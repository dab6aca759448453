// Seeded, schedule-perturbing stress driver for the linearizability
// harness.
//
// `run_stress` spins up N worker threads behind a start barrier, each
// executing a seeded pseudo-random stream of ADT operations through a
// caller-supplied worker (one worker object per thread, built by a
// factory so per-thread transactional contexts — stm::TxThread etc. —
// live on their own thread).  Every completed operation is timestamped
// and recorded into a HistoryRecorder lane; the merged history feeds
// lin_check.h / invariants.h.
//
// Determinism knobs:
//   * every stream derives from StressOptions::seed (split per thread);
//   * `yield_pct` injects random yields/short sleeps between operations to
//     perturb the schedule (essential on few-core hosts where threads
//     otherwise run in long uninterrupted slices);
//   * OTB_STRESS_SCALE environment variable scales operation counts for
//     nightly-sized runs without recompiling.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "verify/history.h"

namespace otb::verify {

struct StressOptions {
  unsigned threads = 4;
  std::uint64_t ops_per_thread = 200;
  std::int64_t key_range = 32;      // keys drawn uniformly from [0, key_range)
  std::uint64_t seed = 1;
  unsigned yield_pct = 20;          // % of ops followed by a schedule perturbation
  // Operation mix as (op, weight) pairs; weights need not sum to 100.
  std::vector<std::pair<OpKind, unsigned>> mix = {
      {OpKind::kAdd, 30}, {OpKind::kRemove, 30}, {OpKind::kContains, 40}};
};

/// Nightly-scale multiplier: OTB_STRESS_SCALE (default 1) multiplies each
/// driver's ops_per_thread.  CI's nightly job sets it to run the same
/// binaries at 8–10x.
inline std::uint64_t stress_scale() {
  if (const char* v = std::getenv("OTB_STRESS_SCALE")) {
    const std::uint64_t s = std::strtoull(v, nullptr, 10);
    if (s > 0) return s;
  }
  return 1;
}

/// Override the base seed from the environment (OTB_STRESS_SEED) so a CI
/// failure's exact run reproduces locally.
inline std::uint64_t stress_seed(std::uint64_t fallback) {
  if (const char* v = std::getenv("OTB_STRESS_SEED")) {
    return std::strtoull(v, nullptr, 10);
  }
  return fallback;
}

namespace detail {
inline std::uint64_t split_seed(std::uint64_t base, unsigned tid) {
  // SplitMix64 step — decorrelates per-thread streams from a shared seed.
  std::uint64_t z = base + 0x9e3779b97f4a7c15ull * (tid + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return (z ^ (z >> 31)) | 1;
}
}  // namespace detail

/// Drive `opt.threads` workers and return the merged history.
///
/// WorkerFactory: `(unsigned tid) -> Worker` where Worker is callable as
///   `bool worker(OpKind op, std::int64_t key, std::int64_t& value)`
/// performing one complete (transactional) operation.  `value` carries the
/// put-value in (kPut; kAdd, which maps run as put-if-absent) and the
/// observed value/removed key out (kGet / kPqRemoveMin / kPqMin).  The
/// factory runs on the worker's own thread, so it may construct per-thread
/// transactional contexts.
template <typename WorkerFactory>
History run_stress(const StressOptions& opt, WorkerFactory&& make_worker) {
  HistoryRecorder recorder(opt.threads, opt.ops_per_thread);
  std::vector<std::thread> pool;
  pool.reserve(opt.threads);
  std::atomic<unsigned> ready{0};
  std::atomic<bool> go{false};

  unsigned total_weight = 0;
  for (const auto& [op, w] : opt.mix) total_weight += w;

  for (unsigned tid = 0; tid < opt.threads; ++tid) {
    pool.emplace_back([&, tid] {
      char name[16];
      std::snprintf(name, sizeof(name), "stress/%u", tid);
      set_this_thread_name(name);
      auto worker = make_worker(tid);
      Xorshift rng{detail::split_seed(opt.seed, tid)};
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();

      for (std::uint64_t i = 0; i < opt.ops_per_thread; ++i) {
        // Pick the op by weight, then the key.
        unsigned pick = static_cast<unsigned>(rng.next_bounded(total_weight));
        OpKind op = opt.mix.front().first;
        for (const auto& [kind, w] : opt.mix) {
          if (pick < w) {
            op = kind;
            break;
          }
          pick -= w;
        }
        Event e;
        e.op = op;
        e.key = static_cast<std::int64_t>(rng.next_bounded(
            static_cast<std::uint64_t>(opt.key_range)));
        if (op == OpKind::kPut || op == OpKind::kAdd) {
          e.value = static_cast<std::int64_t>(rng.next_bounded(1u << 20));
        }
        e.invoke_ns = now_ns();
        e.ok = worker(op, e.key, e.value);
        e.response_ns = now_ns();
        recorder.record(tid, e);

        if (opt.yield_pct != 0 && rng.next_bounded(100) < opt.yield_pct) {
          // Perturb the schedule: mostly a bare yield, occasionally a real
          // sleep so another thread gets a long slice mid-history.
          if (rng.next_bounded(8) == 0) {
            std::this_thread::sleep_for(std::chrono::microseconds(
                static_cast<long>(rng.next_bounded(50))));
          } else {
            std::this_thread::yield();
          }
        }
      }
    });
  }

  while (ready.load(std::memory_order_acquire) < opt.threads) {
    std::this_thread::yield();
  }
  go.store(true, std::memory_order_release);
  for (auto& t : pool) t.join();
  return recorder.merge();
}

}  // namespace otb::verify
