// Heap allocations of warm transactions, and of the service's batch path
// in steady state.
//
// This binary replaces the global operator new/delete (aligned forms
// included) with counting versions.  A warm read-only transaction on every
// OTB runtime (tx::atomically, HtmCommitRuntime::atomically, an OTB-NOrec
// and an OTB-TL2 block on one reused context) allocates nothing: each runs
// on a host that parked its descriptors.  The service cases warm a
// one-worker service up and count what a window of requests allocates in
// the whole process: client thread and worker together.  The client keeps
// 64 requests in flight and waits for the oldest, as perfbench does, so the
// client, not the worker, drops each cell's last reference.  The process is
// pinned to one CPU, so the worker finishes a batch's completions before
// the client runs again.
//
// What may still allocate: the nodes a commit publishes, epoch
// reclamation, the temporary buffer of each batch's std::stable_sort, and a
// host's first transaction on a structure (its descriptor).  Everything
// else (request cells with their result and range buffers, up to 8 inline
// script steps, every host with its parked descriptors, the WAL redo
// buffer) is reused.
#include <gtest/gtest.h>

#include <sched.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "common/rng.h"
#include "integration/otb_stm.h"
#include "metrics/sink.h"
#include "otb/htm_commit.h"
#include "otb/mv.h"
#include "otb/otb_list_map.h"
#include "otb/runtime.h"
#include "service/service.h"

namespace {
std::atomic<std::uint64_t> g_allocs{0};

void* counted(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n != 0 ? n : 1);
}

void* counted_aligned(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  // aligned_alloc wants a size that is a multiple of the alignment.
  return std::aligned_alloc(a, ((n != 0 ? n : 1) + a - 1) / a * a);
}

void* or_throw(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

// Out of line, so the compiler does not pair an inlined free() with the
// operator new of a call site and warn about a mismatch.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t n) { return or_throw(counted(n)); }
void* operator new[](std::size_t n) { return or_throw(counted(n)); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return or_throw(counted_aligned(n, al));
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return or_throw(counted_aligned(n, al));
}
void* operator new(std::size_t n, std::align_val_t al, const std::nothrow_t&) noexcept {
  return counted_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al, const std::nothrow_t&) noexcept {
  return counted_aligned(n, al);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  release(p);
}
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  release(p);
}

namespace otb {
namespace {

namespace svc = service;

constexpr unsigned kWindow = 64;
constexpr unsigned kWarmup = 2000;
constexpr unsigned kMeasured = 2000;

/// Pin the calling thread, and so every thread it starts, to the first CPU
/// it may run on; the destructor restores the previous mask.
class PinToOneCpu {
 public:
  PinToOneCpu() {
    CPU_ZERO(&previous_);
    if (::sched_getaffinity(0, sizeof(previous_), &previous_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (!CPU_ISSET(c, &previous_)) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(c, &one);
      pinned_ = ::sched_setaffinity(0, sizeof(one), &one) == 0;
      return;
    }
  }
  ~PinToOneCpu() {
    if (pinned_) ::sched_setaffinity(0, sizeof(previous_), &previous_);
  }
  PinToOneCpu(const PinToOneCpu&) = delete;
  PinToOneCpu& operator=(const PinToOneCpu&) = delete;

 private:
  cpu_set_t previous_;
  bool pinned_ = false;
};

/// Pin OTB_MV_VERSIONS before the map is built (a node's version chain is
/// sized at construction) and restore it afterwards.
struct MvVersionsPin {
  unsigned previous = tx::mv_versions();
  explicit MvVersionsPin(unsigned k) { tx::set_mv_versions(k); }
  ~MvVersionsPin() { tx::set_mv_versions(previous); }
};

/// Runs `n` scripts from `gen` with kWindow in flight, waiting for the
/// oldest before each new submit; returns the number of responses that
/// were not kOk.
template <typename Gen>
unsigned run_window(svc::Service& s, Xorshift& rng, unsigned n, Gen&& gen) {
  std::vector<svc::ResponseFuture> window(kWindow);
  unsigned bad = 0;
  for (unsigned i = 0; i < n + kWindow; ++i) {
    svc::ResponseFuture& slot = window[i % kWindow];
    if (slot.valid()) {
      if (slot.wait() != svc::SvcStatus::kOk) ++bad;
      slot = svc::ResponseFuture{};  // drop the last reference here
    }
    if (i < n) {
      svc::Request r;
      gen(rng, r);
      slot = s.submit(std::move(r));
    }
  }
  return bad;
}

struct Counts {
  std::uint64_t allocs = 0;
  std::uint64_t batches = 0;
};

/// Allocations, and batches the service ran, over kMeasured requests after
/// kWarmup.  `sink` is the service's metrics sink.
template <typename Gen>
Counts measure(svc::Service& s, const metrics::MetricsSink& sink, Gen&& gen) {
  Xorshift rng{9};
  EXPECT_EQ(run_window(s, rng, kWarmup, gen), 0u);
  const std::uint64_t batches = sink.snapshot().counter(metrics::CounterId::kSvcBatches);
  const std::uint64_t allocs = g_allocs.load();
  const unsigned bad = run_window(s, rng, kMeasured, gen);
  Counts c{g_allocs.load() - allocs, 0};
  c.batches = sink.snapshot().counter(metrics::CounterId::kSvcBatches) - batches;
  EXPECT_EQ(bad, 0u);
  std::printf("%llu allocations over %u requests in %llu batches\n",
              static_cast<unsigned long long>(c.allocs), kMeasured,
              static_cast<unsigned long long>(c.batches));
  return c;
}

/// Allocations per call of `run`, a warm read-only transaction: counted
/// over 1000 calls after 100 warm-up calls.
template <typename Run>
double allocs_per_transaction(Run&& run) {
  for (int i = 0; i < 100; ++i) run(i);
  const std::uint64_t before = g_allocs.load();
  for (int i = 0; i < 1000; ++i) run(i);
  return static_cast<double>(g_allocs.load() - before) / 1000;
}

/// A 64-key list map, read by the warm transactions below.
struct ReadTarget {
  tx::OtbListMap map;
  ReadTarget() {
    for (std::int64_t k = 0; k < 64; ++k) map.put_seq(k, k);
  }
  void read(tx::TxHost& host, int i) {
    std::int64_t v = -1;
    EXPECT_TRUE(map.get(host, i % 64, &v));
  }
};

TEST(AllocTest, WarmReadOnlyAtomicallyAllocatesNothing) {
  ReadTarget target;
  EXPECT_EQ(allocs_per_transaction([&](int i) {
              tx::atomically([&](tx::Transaction& t) { target.read(t, i); });
            }),
            0.0);
}

TEST(AllocTest, WarmReadOnlyHtmCommitTransactionAllocatesNothing) {
  ReadTarget target;
  tx::HtmCommitRuntime rt;
  EXPECT_EQ(allocs_per_transaction([&](int i) {
              rt.atomically(
                  [&](tx::HtmCommitRuntime::Transaction& t) { target.read(t, i); });
            }),
            0.0);
}

TEST(AllocTest, WarmReadOnlyIntegrationBlocksAllocateNothing) {
  for (const auto algo :
       {integration::HostAlgo::kOtbNOrec, integration::HostAlgo::kOtbTl2}) {
    SCOPED_TRACE(std::string(integration::to_string(algo)));
    ReadTarget target;
    stm::TVar<std::int64_t> var{7};
    integration::Runtime rt(algo);
    auto ctx = rt.make_tx();
    EXPECT_EQ(allocs_per_transaction([&](int i) {
                rt.atomically(*ctx, [&](integration::OtbTx& t) {
                  EXPECT_EQ(t.read(var), 7);
                  target.read(t, i);
                });
              }),
              0.0);
  }
}

TEST(AllocTest, ReadScriptsOnTheBatchPathAllocateOnlyTheSortBuffer) {
  PinToOneCpu pin;
  MvVersionsPin mv(0);  // read-only scripts take the batch path, not snapshots
  tx::OtbListMap map;
  for (std::int64_t k = 0; k < 256; k += 2) map.put_seq(k, k);
  metrics::MetricsSink sink;
  svc::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.metrics = &sink;
  svc::Service s(svc::Targets::standard(&map), cfg);
  s.start();
  const Counts c = measure(s, sink, [](Xorshift& rng, svc::Request& r) {
    for (int i = 0; i < 8; ++i) {
      const auto k = static_cast<std::int64_t>(rng.next_bounded(240));
      r.then(rng.chance_pct(50) ? svc::map_range(k, k + 15) : svc::map_get(k));
    }
  });
  s.stop();
  // One sort buffer per batch, and at most 1 other allocation per 100
  // requests.
  EXPECT_LE(c.allocs, c.batches + kMeasured / 100);
}

TEST(AllocTest, DurableWriteScriptsAllocateLessThanOncePerRequest) {
  PinToOneCpu pin;
  MvVersionsPin mv(0);  // one allocation per published node, no chains
  char tmpl[] = "/tmp/otb_alloc_wal_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  double per_request = 0;
  {
    tx::OtbListMap map;
    for (std::int64_t k = 0; k < 64; k += 2) map.put_seq(k, k);
    metrics::MetricsSink sink;
    svc::ServiceConfig cfg;
    cfg.workers = 1;
    cfg.batch_max = 32;
    cfg.wal_dir = dir;
    cfg.wal_fsync = svc::WalFsync::kOff;
    cfg.metrics = &sink;
    svc::Service s(svc::Targets::standard(&map), cfg);
    s.start();
    // The hot-key write scripts: puts, erases and 16-key range scans that
    // a batch repeats, so the list map's remembered segments are in use.
    const Counts c = measure(s, sink, [](Xorshift& rng, svc::Request& r) {
      for (int i = 0; i < 8; ++i) {
        const auto h = static_cast<std::int64_t>(8 * rng.next_bounded(8));
        const std::uint64_t pick = rng.next_bounded(100);
        if (pick < 30) {
          r.then(svc::map_range(h, h + 15));
        } else {
          r.then(pick < 80 ? svc::map_put(h, 3 * h + 1) : svc::map_erase(h));
        }
      }
    });
    s.stop();
    per_request = static_cast<double>(c.allocs) / kMeasured;
  }
  const std::string rm = "rm -rf '" + dir + "'";
  EXPECT_EQ(std::system(rm.c_str()), 0);
  EXPECT_LT(per_request, 1.0);
}

}  // namespace
}  // namespace otb
