// Closed-loop benchmark driver for the transactional service plane.
//
// Runs one named workload against otb::service::Service, either in process
// (client threads call Service::submit directly) or over loopback TCP (one
// client thread drives pipelined v2 frames into the epoll server), checks
// every response, and prints one JSON object on stdout.  Every layer is
// measured from outside: the driver times its own calls into public entry
// points (OtbListMap::put_seq, Service::start/stop/recover/submit, v2 frames
// on a socket) and reads the otb.metrics registry around the measured
// interval.  perfbench/README.md explains the workloads and the metrics.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --run-dir DIR
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
// and traced windows over one service lifetime and prints the per-layer
// metrics plus the tracing overhead.  Scratch files (WAL directories, the
// span dump) go under --run-dir.
#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/vfs.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include "common/rng.h"
#include "metrics/registry.h"
#include "otb/mv.h"
#include "otb/otb_list_map.h"
#include "otb/runtime.h"
#include "service/net.h"
#include "service/service.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace {

namespace fs = std::filesystem;
namespace svc = otb::service;
namespace m = otb::metrics;
using m::CounterId;
using otb::now_ns;
using svc::Request;
using svc::ResponseFuture;
using svc::Step;
using svc::StepResult;
using svc::SvcStatus;
using svc::Verb;

constexpr double kWarmupS = 1.0;
constexpr unsigned kSetupReps = 25;     // untraced run: setup_s is their median
constexpr double kWindowS = 0.5;        // untraced run: length of one window
constexpr unsigned kTraceWindows = 6;   // traced run: even untraced, odd traced
constexpr std::uint64_t kSpanSample = 64;       // keep spans of 1 request in N
constexpr std::size_t kSpanCap = 1u << 18;      // stored spans per thread
constexpr std::uint64_t kDrainLimitNs = 30'000'000'000ull;

// ---- statistics -------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Latency histogram: exact below 64 ns, then 64 linear sub-buckets per
/// power of two (1.6% wide).  Quantiles interpolate by rank inside the
/// bucket, so two runs never report the same value merely because their
/// samples share a bucket.  Buckets are allocated at the first sample, so
/// the per-window histograms a run never fills take no memory in the
/// process whose peak resident set is measured.
class LatHist {
 public:
  void add(std::uint64_t ns) {
    if (buckets_.empty()) buckets_.resize(kBuckets);
    ++count_;
    sum_ += ns;
    ++buckets_[index(ns)];
  }

  void merge(const LatHist& o) {
    if (o.buckets_.empty()) return;
    if (buckets_.empty()) buckets_.resize(kBuckets);
    count_ += o.count_;
    sum_ += o.sum_;
    for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
  }

  std::uint64_t count() const { return count_; }
  double mean() const { return ratio(double(sum_), double(count_)); }

  double quantile(double q) const {
    if (count_ == 0) return 0;
    const double rank = q * double(count_ - 1);
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (buckets_[i] == 0) continue;
      if (double(cum + buckets_[i]) > rank) {
        const double frac = (rank - double(cum) + 0.5) / double(buckets_[i]);
        return double(floor_of(i)) + frac * double(width_of(i));
      }
      cum += buckets_[i];
    }
    return double(floor_of(kBuckets - 1));
  }

 private:
  static constexpr unsigned kSub = 64;
  static constexpr unsigned kMaxExp = 40;
  static constexpr std::size_t kBuckets = (kMaxExp - 5) * kSub + kSub;

  static std::size_t index(std::uint64_t ns) {
    if (ns < kSub) return static_cast<std::size_t>(ns);
    const unsigned e = 63u - static_cast<unsigned>(__builtin_clzll(ns));
    if (e > kMaxExp) return kBuckets - 1;
    return (e - 5) * kSub + static_cast<std::size_t>((ns >> (e - 6)) & (kSub - 1));
  }
  static std::uint64_t floor_of(std::size_t i) {
    if (i < kSub) return i;
    const std::size_t e = i / kSub + 5;
    return (kSub + i % kSub) << (e - 6);
  }
  static std::uint64_t width_of(std::size_t i) {
    return i < kSub ? 1 : std::uint64_t{1} << (i / kSub - 1);
  }

  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::vector<std::uint32_t> buckets_;  // kBuckets once the first sample lands
};

// ---- registry snapshots -------------------------------------------------------

m::SinkSnapshot domain(const m::Snapshot& s, const char* name) {
  const m::SinkSnapshot* d = s.find(name);
  return d != nullptr ? *d : m::SinkSnapshot{};
}

template <std::size_t N>
void sub_row(std::array<std::uint64_t, N>& a,
             const std::array<std::uint64_t, N>& b) {
  for (std::size_t i = 0; i < N; ++i) a[i] -= b[i];
}

void sub_series(m::SeriesSnapshot& a, const m::SeriesSnapshot& b) {
  a.count -= b.count;
  a.total -= b.total;
  sub_row(a.log2_buckets, b.log2_buckets);
}

/// a - b for two snapshots of one monotone sink.
m::SinkSnapshot minus(m::SinkSnapshot a, const m::SinkSnapshot& b) {
  sub_row(a.counters, b.counters);
  sub_row(a.aborts, b.aborts);
  for (std::size_t i = 0; i < m::kPhaseCount; ++i) {
    a.phases[i].count -= b.phases[i].count;
    a.phases[i].total_ns -= b.phases[i].total_ns;
    sub_row(a.phases[i].log2_buckets, b.phases[i].log2_buckets);
  }
  a.traversals.count -= b.traversals.count;
  a.traversals.total_steps -= b.traversals.total_steps;
  sub_row(a.traversals.log2_buckets, b.traversals.log2_buckets);
  sub_series(a.queue_depth, b.queue_depth);
  sub_series(a.batch_size, b.batch_size);
  sub_series(a.mv_chain_len, b.mv_chain_len);
  sub_series(a.fused_set_size, b.fused_set_size);
  return a;
}

struct Domains {
  m::SinkSnapshot tx, svc, net;
};

Domains domains_of(const m::Snapshot& s) {
  return {domain(s, "otb.tx"), domain(s, "otb.service"),
          domain(s, "otb.service.net")};
}

Domains minus(const Domains& a, const Domains& b) {
  return {minus(a.tx, b.tx), minus(a.svc, b.svc), minus(a.net, b.net)};
}

// ---- spans ----------------------------------------------------------------------

enum class SpanName : std::uint8_t {
  kGen,
  kSubmit,
  kWait,
  kRequest,
  kEncode,
  kSend,
  kPoll,
  kRecv,
  kRound,
  kLoad,
  kStart,
  kStop,
  kRecover,
  kCount,
};

constexpr const char* kSpanNames[] = {
    "client.gen",   "service.submit", "client.wait",     "client.request",
    "client.encode", "client.send",   "client.poll",     "client.recv",
    "client.round", "otb.load",       "service.start",   "service.stop",
    "service.recover",
};
static_assert(std::size(kSpanNames) == std::size_t(SpanName::kCount));

struct Span {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::uint64_t req = 0;  // request / frame id; 0 when the call has none
  std::int32_t parent = -1;
  SpanName name = SpanName::kGen;
};

/// One thread's spans, kept in memory and written out at exit.  Bounded:
/// past the cap new spans are dropped (and counted), never reallocated
/// mid-run beyond it.
class SpanLog {
 public:
  std::int32_t open(SpanName n, std::uint64_t start, std::uint64_t req,
                    std::int32_t parent) {
    if (spans_.size() >= kSpanCap) {
      ++dropped_;
      return -1;
    }
    spans_.push_back(Span{start, 0, req, parent, n});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void close(std::int32_t id, std::uint64_t end) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end = end;
  }
  std::int32_t add(SpanName n, std::uint64_t start, std::uint64_t end,
                   std::uint64_t req, std::int32_t parent) {
    const std::int32_t id = open(n, start, req, parent);
    close(id, end);
    return id;
  }
  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

/// Self time of every span: its duration minus the part its children
/// cover (children of one parent run one after another on its thread).
std::vector<std::uint64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::uint64_t> covered(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent < 0 || s.end < s.start) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const std::uint64_t lo = std::max(s.start, p.start);
    const std::uint64_t hi = std::min(s.end, p.end);
    if (hi > lo) covered[static_cast<std::size_t>(s.parent)] += hi - lo;
  }
  std::vector<std::uint64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::uint64_t d =
        spans[i].end > spans[i].start ? spans[i].end - spans[i].start : 0;
    self[i] = d > covered[i] ? d - covered[i] : 0;
  }
  return self;
}

// ---- workloads ------------------------------------------------------------------

constexpr unsigned kMaxSteps = 8;

struct StepInfo {
  Verb verb = Verb::kGet;
  std::int64_t key = 0;
  std::int64_t arg = 0;  // put value / range hi
};

/// What the client sent, kept beside the in-flight request to check its
/// response.
struct Expect {
  unsigned n = 0;
  unsigned write_steps = 0;
  bool mutating = false;
  std::array<StepInfo, kMaxSteps> steps{};
};

void push_step(Request& r, Expect& e, const Step& s) {
  r.steps.push_back(s);
  e.steps[e.n++] = StepInfo{s.verb, s.key, s.value};
  if (s.verb == Verb::kPut || s.verb == Verb::kErase) {
    e.mutating = true;
    ++e.write_steps;
  }
}

/// Every value a key can hold: the preload writes k -> k, puts k -> 3k+1.
bool valid_value(std::int64_t k, std::int64_t v) { return v == k || v == 3 * k + 1; }

// Eight-step scripts on an 8-key hot set {0, 8, ..., 56} of a 64-key map,
// each step a 16-key scan (30%), a put (52.5%) or an erase (17.5%).  One
// script in 32 is read-only (eight scans), so read latency has samples;
// those run inline on the snapshot path inside Service::submit.
void gen_hotkey_wal(otb::Xorshift& rng, Request& r, Expect& e) {
  const bool read_only = rng.next_bounded(32) == 0;
  for (unsigned i = 0; i < kMaxSteps; ++i) {
    const auto h = static_cast<std::int64_t>(8 * rng.next_bounded(8));
    const std::uint64_t pick = read_only ? 0 : rng.next_bounded(1000);
    if (pick < 300) {
      push_step(r, e, svc::map_range(h, h + 15));
    } else if (pick < 825) {
      push_step(r, e, svc::map_put(h, 3 * h + 1));
    } else {
      push_step(r, e, svc::map_erase(h));
    }
  }
}

// The canonical 60/30/10 get/put/erase mix over 256 keys.
void gen_net_mixed(otb::Xorshift& rng, Request& r, Expect& e) {
  const auto k = static_cast<std::int64_t>(rng.next_bounded(256));
  const std::uint64_t pick = rng.next_bounded(100);
  if (pick < 60) {
    push_step(r, e, svc::map_get(k));
  } else if (pick < 90) {
    push_step(r, e, svc::map_put(k, 3 * k + 1));
  } else {
    push_step(r, e, svc::map_erase(k));
  }
}

struct WorkloadSpec {
  const char* name;
  bool net;             // loopback TCP through the epoll server
  unsigned clients;     // client threads (in process) or connections (net)
  unsigned window;      // requests in flight per client thread / connection
  unsigned workers;
  unsigned batch_max;
  bool wal;             // WAL (appends, no fsync) in a fresh directory
  std::int64_t keys;    // key space [0, keys); even keys preloaded k -> k
  void (*gen)(otb::Xorshift&, Request&, Expect&);
};

// hotkey_wal has one client thread: with two threads of 64 requests each on
// the one CPU, the write p50 sat in one of two modes (~245 or ~330 us) for
// seconds at a time, depending on how the threads' bursts interleaved.
constexpr WorkloadSpec kWorkloads[] = {
    {"hotkey_wal", false, 1, 128, 2, 32, true, 64, gen_hotkey_wal},
    {"net_mixed", true, 4, 32, 2, 16, false, 256, gen_net_mixed},
};

/// Check one OK response against the script that produced it.  Returns an
/// empty string when every step result is one the script could produce.
std::string check_script(const Expect& e, std::size_t nres,
                         const StepResult* res,
                         const std::pair<std::int64_t, std::int64_t>* pairs,
                         std::size_t npairs) {
  if (nres != e.n) return "step count " + std::to_string(nres);
  std::size_t off = 0;
  for (std::size_t i = 0; i < e.n; ++i) {
    const StepInfo& s = e.steps[i];
    const StepResult& r = res[i];
    if (!r.ran) return "step " + std::to_string(i) + " did not run";
    switch (s.verb) {
      case Verb::kGet:
        if (r.ok && !valid_value(s.key, r.value)) {
          return "get " + std::to_string(s.key) + " -> " +
                 std::to_string(r.value);
        }
        break;
      case Verb::kPut:
        if (r.value != s.arg) return "put result value";
        break;
      case Verb::kErase:
        if (r.value != s.key) return "erase result value";
        break;
      case Verb::kRange: {
        if (!r.ok || r.value < 0 ||
            off + static_cast<std::size_t>(r.value) > npairs) {
          return "range pair count";
        }
        std::int64_t prev = s.key - 1;
        for (std::int64_t j = 0; j < r.value; ++j, ++off) {
          const auto& [k, v] = pairs[off];
          if (k <= prev || k > s.arg) {
            return "range [" + std::to_string(s.key) + "," +
                   std::to_string(s.arg) + "] key " + std::to_string(k);
          }
          if (!valid_value(k, v)) {
            return "range pair " + std::to_string(k) + " -> " +
                   std::to_string(v);
          }
          prev = k;
        }
        break;
      }
      default:
        return "unexpected verb";
    }
  }
  if (off != npairs) return "range pairs beyond the step counts";
  return {};
}

// ---- measured instance -------------------------------------------------------------

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

void preload(otb::tx::OtbListMap& map, std::int64_t keys) {
  for (std::int64_t k = 0; k < keys; k += 2) map.put_seq(k, k);
}

svc::ServiceConfig service_config(const WorkloadSpec& w,
                                  const std::string& wal_dir) {
  svc::ServiceConfig cfg;
  cfg.workers = w.workers;
  cfg.batch_max = w.batch_max;
  cfg.wal_dir = wal_dir;
  // Appends without fsync: an fsync waits for the shared host's disk, and
  // with group fsync the hot-key workload's throughput ranged from 34K to
  // 190K ok/s between runs minutes apart.
  cfg.wal_fsync = svc::WalFsync::kOff;
  return cfg;
}

/// One set-up of a workload: structures built, keys loaded, service
/// started and (net) server listening with every client connection open.
class Instance {
 public:
  Instance(const WorkloadSpec& w, const std::string& wal_dir, SpanLog& log)
      : map_(std::make_unique<otb::tx::OtbListMap>()) {
    const std::uint64_t l0 = now_ns();
    preload(*map_, w.keys);
    const std::uint64_t l1 = now_ns();
    log.add(SpanName::kLoad, l0, l1, 0, -1);
    load_ns_ = l1 - l0;
    svc_ = std::make_unique<svc::Service>(svc::Targets::standard(map_.get()),
                                          service_config(w, wal_dir));
    const std::uint64_t s0 = now_ns();
    svc_->start();
    log.add(SpanName::kStart, s0, now_ns(), 0, -1);
    if (!w.net) return;
    try {
      svc::NetServerConfig ncfg;
      ncfg.net_threads = 1;
      server_ = std::make_unique<svc::NetServer>(*svc_, 0, ncfg);
      if (!server_->listening()) throw std::runtime_error("cannot bind loopback");
      server_thread_ = std::thread([this] { server_->run(); });
      for (unsigned c = 0; c < w.clients; ++c) {
        const int fd = connect_loopback(server_->bound_port());
        if (fd < 0) throw std::runtime_error("cannot connect to the server");
        conns_.push_back(fd);
      }
    } catch (...) {
      stop(nullptr);  // the destructor does not run for a throwing constructor
      throw;
    }
  }

  ~Instance() { stop(nullptr); }
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  /// Close the connections and stop the service (draining it).  Idempotent.
  void stop(SpanLog* log) {
    const std::uint64_t t0 = now_ns();
    for (const int fd : conns_) ::close(fd);
    conns_.clear();
    if (server_thread_.joinable()) {
      server_->request_stop();
      server_thread_.join();  // run() drains and stops the service
    }
    if (svc_ != nullptr) svc_->stop();
    if (log != nullptr) log->add(SpanName::kStop, t0, now_ns(), 0, -1);
  }

  otb::tx::OtbListMap& map() { return *map_; }
  svc::Service& service() { return *svc_; }
  const std::vector<int>& conns() const { return conns_; }
  std::uint64_t load_ns() const { return load_ns_; }

 private:
  std::unique_ptr<otb::tx::OtbListMap> map_;
  std::unique_ptr<svc::Service> svc_;
  std::unique_ptr<svc::NetServer> server_;
  std::vector<int> conns_;
  std::uint64_t load_ns_ = 0;
  std::thread server_thread_;  // last: joined before the members it uses die
};

/// Time one set-up in a child process and tear it down there.  Every timed
/// set-up thus starts from a fresh heap, like the measured one: within one
/// process a map built from memory its predecessor freed is laid out in a
/// different order (a 32,768-key map then loaded and walked 2-4x slower).
double setup_in_child(const WorkloadSpec& w, const std::string& wal_dir) {
  int pfd[2];
  if (::pipe(pfd) != 0) throw std::runtime_error("pipe failed");
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(pfd[0]);
    double s = -1;
    try {
      SpanLog log;
      const std::uint64_t t0 = now_ns();
      Instance inst(w, wal_dir, log);
      s = double(now_ns() - t0) * 1e-9;
      inst.stop(nullptr);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", e.what());
    }
    const bool sent = ::write(pfd[1], &s, sizeof(s)) == sizeof(s);
    ::_exit(sent && s >= 0 ? 0 : 1);
  }
  ::close(pfd[1]);
  double s = -1;
  const bool got = ::read(pfd[0], &s, sizeof(s)) == sizeof(s);
  ::close(pfd[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up failed in a child process");
  }
  return s;
}

// ---- client side -----------------------------------------------------------------

struct RunCtx {
  const WorkloadSpec* w = nullptr;
  std::uint64_t seed = 0;
  Instance* inst = nullptr;
  std::uint64_t t0 = 0;      // start of the first measured window
  std::uint64_t t_end = 0;   // end of the last one; submitting stops here
  std::uint64_t win_ns = 0;
  unsigned nwin = 0;
  int cpu = 0;               // the CPU the run is pinned to
  std::atomic<bool> tracing{false};
};

int window_of(const RunCtx& ctx, std::uint64_t t) {
  if (t < ctx.t0 || t >= ctx.t_end) return -1;
  const std::uint64_t i = (t - ctx.t0) / ctx.win_ns;
  return i < ctx.nwin ? static_cast<int>(i) : -1;
}

struct WindowStats {
  std::uint64_t ok = 0;
  std::uint64_t write_steps_ok = 0;  // mutating steps of OK requests
  LatHist read;                      // client-observed, by completion time
  LatHist write;
  LatHist submit_read;               // traced Service::submit spans
  LatHist submit_write;
};

struct ClientResult {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t not_ok = 0;     // overloaded, expired or failed
  std::uint64_t bad = 0;        // OK responses that failed their check
  std::uint64_t frames_sent = 0;
  std::string first_error;
  std::string fatal;            // the client could not finish
  // Busy time of the client's own code over the measured interval: thread
  // CPU time for the net client; wall time outside Service::submit and
  // outside blocking completion waits for in-process clients, whose threads
  // also run inline snapshot reads inside submit.
  double busy_s = 0;
  std::vector<WindowStats> win;
  SpanLog spans;
};

std::uint64_t client_seed(std::uint64_t seed, unsigned c) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + (c + 1) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return z != 0 ? z : 1;
}

double thread_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

/// Tracks the measured interval on a client thread, from the first time
/// the thread sees t0 to the first time it sees t_end.  `cpu` selects
/// thread CPU time as the busy measure; otherwise busy = wall time minus
/// the time charged to the service through `charge_service`.
class BusyMeter {
 public:
  explicit BusyMeter(bool cpu) : cpu_(cpu) {}

  void tick(const RunCtx& ctx, std::uint64_t now, ClientResult& res) {
    if (!started_ && now >= ctx.t0) {
      started_ = true;
      wall0_ = now;
      cpu0_ = cpu_ ? thread_cpu_s() : 0;
    }
    if (started_ && !stopped_ && now >= ctx.t_end) {
      stopped_ = true;
      res.busy_s = cpu_ ? thread_cpu_s() - cpu0_
                        : double(now - wall0_) * 1e-9 - service_s_;
    }
  }
  void charge_service(std::uint64_t from, std::uint64_t to) {
    if (started_ && !stopped_) service_s_ += double(to - from) * 1e-9;
  }

 private:
  bool cpu_;
  bool started_ = false;
  bool stopped_ = false;
  std::uint64_t wall0_ = 0;
  double cpu0_ = 0;
  double service_s_ = 0;
};

void account(const RunCtx& ctx, ClientResult& res, const Expect& e,
             SvcStatus status, std::size_t nres, const StepResult* steps,
             const std::pair<std::int64_t, std::int64_t>* pairs,
             std::size_t npairs, std::uint64_t sent, std::uint64_t done) {
  if (status != SvcStatus::kOk) {
    ++res.not_ok;
    return;
  }
  ++res.ok;
  const std::string err = check_script(e, nres, steps, pairs, npairs);
  if (!err.empty()) {
    if (res.bad++ == 0) res.first_error = err;
  }
  const int wi = window_of(ctx, done);
  if (wi < 0) return;
  WindowStats& ws = res.win[static_cast<std::size_t>(wi)];
  ++ws.ok;
  ws.write_steps_ok += e.write_steps;
  (e.mutating ? ws.write : ws.read).add(done - sent);
}

// -- in process

void on_complete(void* arg) {
  static_cast<std::atomic<std::uint64_t>*>(arg)->store(
      now_ns(), std::memory_order_release);
}

struct InprocSlot {
  ResponseFuture fut;
  std::atomic<std::uint64_t> done_ns{0};  // set by the completion hook
  std::uint64_t sent = 0;
  std::uint64_t id = 0;
  std::int32_t root = -1;  // sampled client.request span
  Expect exp;
};

/// Closed loop: keep `window` requests in flight, wait for the oldest.
/// Latency runs from the submit call to the completion hook.
void inproc_client(RunCtx& ctx, unsigned c, ClientResult& res) {
  otb::Xorshift rng{client_seed(ctx.seed, c)};
  const unsigned window = ctx.w->window;
  std::vector<InprocSlot> ring(window);
  std::size_t head = 0;
  std::size_t inflight = 0;
  std::uint64_t next_id = 0;
  bool submitting = true;
  BusyMeter busy(/*cpu=*/false);
  svc::Service& service = ctx.inst->service();
  for (;;) {
    while (submitting && inflight < window) {
      const std::uint64_t now = now_ns();
      busy.tick(ctx, now, res);
      if (now >= ctx.t_end) {
        submitting = false;
        break;
      }
      InprocSlot& s = ring[(head + inflight) % window];
      const bool traced = ctx.tracing.load(std::memory_order_relaxed);
      Request req;
      s.exp = Expect{};
      ctx.w->gen(rng, req, s.exp);
      const std::uint64_t gen_end = traced ? now_ns() : 0;
      s.id = ++next_id;
      s.done_ns.store(0, std::memory_order_relaxed);
      req.on_complete = &on_complete;
      req.on_complete_arg = &s.done_ns;
      s.sent = now_ns();
      s.fut = service.submit(std::move(req));
      const std::uint64_t ret = now_ns();
      ++res.attempted;
      ++inflight;
      busy.charge_service(s.sent, ret);
      s.root = -1;
      if (traced) {
        const int wi = window_of(ctx, s.sent);
        if (wi >= 0) {
          WindowStats& ws = res.win[static_cast<std::size_t>(wi)];
          (s.exp.mutating ? ws.submit_write : ws.submit_read).add(ret - s.sent);
        }
        if (s.id % kSpanSample == 0) {
          res.spans.add(SpanName::kGen, now, gen_end, s.id, -1);
          s.root = res.spans.open(SpanName::kRequest, s.sent, s.id, -1);
          res.spans.add(SpanName::kSubmit, s.sent, ret, s.id, s.root);
        }
      }
    }
    if (inflight == 0) break;
    InprocSlot& s = ring[head];
    if (!s.fut.done()) {
      const std::uint64_t w0 = now_ns();
      s.fut.wait();
      const std::uint64_t w1 = now_ns();
      busy.charge_service(w0, w1);
      if (s.root >= 0) res.spans.add(SpanName::kWait, w0, w1, s.id, s.root);
    }
    std::uint64_t done = 0;
    while ((done = s.done_ns.load(std::memory_order_acquire)) == 0) {
      otb::cpu_relax();
    }
    res.spans.close(s.root, done);
    StepResult steps[kMaxSteps];
    const std::size_t nres = std::min<std::size_t>(s.fut.step_count(), kMaxSteps);
    for (std::size_t i = 0; i < nres; ++i) steps[i] = s.fut.step(i);
    const auto& pairs = s.fut.range();
    account(ctx, res, s.exp, s.fut.status(), s.fut.step_count(), steps,
            pairs.data(), pairs.size(), s.sent, done);
    s.fut = ResponseFuture{};
    head = (head + 1) % window;
    --inflight;
  }
}

// -- over loopback TCP

struct NetFrame {
  std::uint64_t id = 0;
  std::uint64_t sent = 0;  // 0 until the send() that starts writing it
  Expect exp;
};

struct NetConn {
  int fd = -1;
  std::vector<std::uint8_t> out;
  std::size_t out_off = 0;
  std::vector<std::uint8_t> in;
  std::vector<NetFrame> ring;
  std::size_t head = 0;
  std::size_t n = 0;        // frames in flight
  std::size_t stamped = 0;  // in-flight frames already handed to send()
};

void encode_v2(std::vector<std::uint8_t>& out, const Request& req,
               std::uint64_t id) {
  namespace wire = svc::wire;
  wire::put<std::uint32_t>(
      out, static_cast<std::uint32_t>(svc::kNetWireV2HeaderLen +
                                      req.steps.size() * svc::kNetWireStepLen));
  wire::put<std::uint8_t>(out, svc::kNetWireV2);
  wire::put<std::uint8_t>(out, static_cast<std::uint8_t>(req.steps.size()));
  wire::put<std::uint32_t>(out, 0);  // no deadline
  wire::put<std::uint64_t>(out, id);
  for (const Step& s : req.steps) {
    wire::put<std::uint8_t>(out, s.structure);
    wire::put<std::uint8_t>(out, static_cast<std::uint8_t>(s.verb));
    wire::put<std::uint8_t>(out, 0);  // no guards
    wire::put<std::uint8_t>(out, static_cast<std::uint8_t>(s.key_from));
    wire::put<std::uint8_t>(out, static_cast<std::uint8_t>(s.value_from));
    wire::put<std::int64_t>(out, s.key);
    wire::put<std::int64_t>(out, s.value);
    wire::put<std::int64_t>(out, s.expect);
  }
}

/// Write pending bytes; frames not yet stamped get their send time now.
bool flush(NetConn& c, ClientResult& res, std::int32_t round) {
  if (c.out_off >= c.out.size()) return true;
  const std::uint64_t t = now_ns();
  for (; c.stamped < c.n; ++c.stamped) {
    c.ring[(c.head + c.stamped) % c.ring.size()].sent = t;
  }
  while (c.out_off < c.out.size()) {
    const std::uint64_t s0 = round >= 0 ? now_ns() : 0;
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (round >= 0) res.spans.add(SpanName::kSend, s0, now_ns(), 0, round);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;
  }
  c.out.clear();
  c.out_off = 0;
  return true;
}

/// Read everything available and retire each complete response frame.
bool drain(const RunCtx& ctx, NetConn& c, ClientResult& res,
           std::int32_t round) {
  namespace wire = svc::wire;
  std::uint8_t buf[65536];
  for (;;) {
    const std::uint64_t r0 = round >= 0 ? now_ns() : 0;
    const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
    if (round >= 0) res.spans.add(SpanName::kRecv, r0, now_ns(), 0, round);
    if (n > 0) {
      c.in.insert(c.in.end(), buf, buf + n);
      continue;
    }
    if (n == 0) {
      res.fatal = "server closed a connection";
      return false;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    res.fatal = std::string("recv: ") + std::strerror(errno);
    return false;
  }
  std::size_t off = 0;
  StepResult steps[kMaxSteps];
  std::vector<std::pair<std::int64_t, std::int64_t>> pairs;
  while (c.in.size() - off >= 4) {
    const std::uint32_t len = wire::get<std::uint32_t>(c.in.data() + off);
    if (c.in.size() - off < 4 + std::size_t{len}) break;
    const std::uint8_t* p = c.in.data() + off + 4;
    const std::uint64_t done = now_ns();
    if (len < 16 || p[0] != svc::kNetWireV2 || c.n == 0) {
      res.fatal = "malformed or unexpected response frame";
      return false;
    }
    NetFrame& f = c.ring[c.head];
    const std::uint64_t id = wire::get<std::uint64_t>(p + 1);
    const auto status = static_cast<SvcStatus>(p[9]);
    const std::size_t nsteps = p[11];
    const std::size_t pairs_at = 12 + 10 * nsteps;
    if (id != f.id || pairs_at + 4 > len) {
      res.fatal = "response out of order or truncated";
      return false;
    }
    const std::uint32_t npairs = wire::get<std::uint32_t>(p + pairs_at);
    if (pairs_at + 4 + std::size_t{npairs} * 16 != len) {
      res.fatal = "response length disagrees with its pair count";
      return false;
    }
    const std::size_t nres = std::min<std::size_t>(nsteps, kMaxSteps);
    for (std::size_t i = 0; i < nres; ++i) {
      const std::uint8_t* sp = p + 12 + 10 * i;
      steps[i] = StepResult{sp[0] != 0, sp[1] != 0, wire::get<std::int64_t>(sp + 2)};
    }
    pairs.clear();
    for (std::uint32_t i = 0; i < npairs; ++i) {
      const std::uint8_t* pp = p + pairs_at + 4 + 16 * i;
      pairs.emplace_back(wire::get<std::int64_t>(pp),
                         wire::get<std::int64_t>(pp + 8));
    }
    account(ctx, res, f.exp, status, nsteps, steps, pairs.data(), pairs.size(),
            f.sent, done);
    c.head = (c.head + 1) % c.ring.size();
    --c.n;
    if (c.stamped > 0) --c.stamped;
    off += 4 + len;
  }
  c.in.erase(c.in.begin(), c.in.begin() + static_cast<std::ptrdiff_t>(off));
  return true;
}

/// One thread drives every connection through a nonblocking poll() loop
/// (a blocking client can deadlock against server backpressure).
/// Latency runs from the send() carrying a frame to its response decode.
void net_client(RunCtx& ctx, ClientResult& res) {
  otb::Xorshift rng{client_seed(ctx.seed, 0)};
  const unsigned window = ctx.w->window;
  std::vector<NetConn> conns(ctx.inst->conns().size());
  for (std::size_t i = 0; i < conns.size(); ++i) {
    conns[i].fd = ctx.inst->conns()[i];
    conns[i].ring.resize(window);
  }
  std::vector<pollfd> fds(conns.size());
  std::uint64_t next_id = 0;
  std::uint64_t rounds = 0;
  bool submitting = true;
  BusyMeter busy(/*cpu=*/true);
  for (;;) {
    const std::uint64_t now = now_ns();
    busy.tick(ctx, now, res);
    if (submitting && now >= ctx.t_end) submitting = false;
    const bool traced = ctx.tracing.load(std::memory_order_relaxed);
    ++rounds;
    const std::int32_t round =
        traced && rounds % kSpanSample == 0
            ? res.spans.open(SpanName::kRound, now, rounds, -1)
            : -1;
    bool idle = true;
    for (NetConn& c : conns) {
      while (submitting && c.n < window) {
        const std::uint64_t e0 = round >= 0 ? now_ns() : 0;
        NetFrame& f = c.ring[(c.head + c.n) % window];
        Request req;
        f.exp = Expect{};
        ctx.w->gen(rng, req, f.exp);
        f.id = ++next_id;
        f.sent = 0;
        encode_v2(c.out, req, f.id);
        ++c.n;
        ++res.attempted;
        ++res.frames_sent;
        if (round >= 0) res.spans.add(SpanName::kEncode, e0, now_ns(), f.id, round);
      }
      if (!flush(c, res, round)) {
        res.fatal = std::string("send: ") + std::strerror(errno);
        return;
      }
      if (c.n > 0) idle = false;
    }
    if (!submitting && idle) {
      res.spans.close(round, now_ns());
      break;
    }
    if (now > ctx.t_end + kDrainLimitNs) {
      res.fatal = "responses still missing long after the run ended";
      return;
    }
    for (std::size_t i = 0; i < conns.size(); ++i) {
      const bool pending_out = conns[i].out_off < conns[i].out.size();
      fds[i] = pollfd{conns[i].fd,
                      static_cast<short>(POLLIN | (pending_out ? POLLOUT : 0)), 0};
    }
    const std::uint64_t p0 = round >= 0 ? now_ns() : 0;
    ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 100);
    if (round >= 0) res.spans.add(SpanName::kPoll, p0, now_ns(), 0, round);
    for (std::size_t i = 0; i < conns.size(); ++i) {
      const short re = fds[i].revents;
      if ((re & (POLLIN | POLLHUP | POLLERR)) != 0 &&
          !drain(ctx, conns[i], res, round)) {
        return;
      }
      if ((re & POLLOUT) != 0 && !flush(conns[i], res, round)) {
        res.fatal = std::string("send: ") + std::strerror(errno);
        return;
      }
    }
    res.spans.close(round, now_ns());
  }
}

// ---- output ----------------------------------------------------------------------

std::string jnum(double v) {
  if (!(v == v) || v > 1e300 || v < -1e300) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

/// Ordered JSON object built from already-encoded values.
class JsonObj {
 public:
  JsonObj& raw(const std::string& k, const std::string& v) {
    fields_.emplace_back(k, v);
    return *this;
  }
  JsonObj& num(const std::string& k, double v) { return raw(k, jnum(v)); }
  JsonObj& str(const std::string& k, const std::string& v) {
    return raw(k, jstr(v));
  }
  JsonObj& boolean(const std::string& k, bool v) {
    return raw(k, v ? "true" : "false");
  }
  std::string dump() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i != 0) out += ", ";
      out += jstr(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string metrics_json(const std::vector<Metric>& ms) {
  JsonObj o;
  for (const Metric& mt : ms) {
    o.raw(mt.name, JsonObj().num("value", mt.value).str("unit", mt.unit).dump());
  }
  return o.dump();
}

std::string fs_type_name(const std::string& path) {
  struct statfs st{};
  if (::statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x858458F6: return "ramfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    case 0x2FC12FC1: return "zfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

/// Peak resident set of this process image (VmHWM).  getrusage's ru_maxrss
/// would do, except that Linux carries it across execve, so it can report
/// the launching interpreter's peak instead of the driver's.
double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// Busy and stolen time of one CPU so far, in clock ticks, from its line in
/// /proc/stat; "steal" is time the hypervisor ran something else while the
/// CPU had work.  Zeros where unavailable.
struct CpuTicks {
  std::uint64_t busy = 0;
  std::uint64_t steal = 0;
};

CpuTicks cpu_ticks(int cpu) {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {};
  char line[512];
  CpuTicks t;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    int c = -1;
    unsigned long long v[8] = {};
    if (std::sscanf(line, "cpu%d %llu %llu %llu %llu %llu %llu %llu %llu", &c,
                    &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 9 &&
        c == cpu) {
      t.busy = v[0] + v[1] + v[2] + v[5] + v[6];  // user nice system irq softirq
      t.steal = v[7];
      break;
    }
  }
  std::fclose(f);
  return t;
}

struct Pinning {
  int cpu = 0;           // the one CPU every thread of the run uses
  unsigned allowed = 0;  // CPUs the process could use before
};

/// Confine this process, and every thread and child it starts later, to the
/// first CPU it may use.  On the shared 4-vCPU host this was written on,
/// runs spread over several vCPUs measured the host and the placement of
/// threads on vCPUs.  Over runs of the same code, net_mixed's throughput
/// and p99 spread 0.15-0.35 of their medians on two vCPUs, its p99 over 1.0
/// on four, and every figure at most 0.03 on one; the hot-key workload's
/// p99 spread 0.6-1.1 on two vCPUs and under 0.08 on one.  One busy vCPU
/// also lost less time to the hypervisor than several.
Pinning pin_to_one_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0 || CPU_COUNT(&set) == 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  Pinning p;
  p.allowed = static_cast<unsigned>(CPU_COUNT(&set));
  while (!CPU_ISSET(p.cpu, &set)) ++p.cpu;
  CPU_ZERO(&set);
  CPU_SET(p.cpu, &set);
  if (::sched_setaffinity(0, sizeof(set), &set) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
  return p;
}

void write_spans(const std::string& path, const SpanLog& main_log,
                 const std::vector<ClientResult>& clients,
                 std::uint64_t origin) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "thread\tid\tparent\tname\treq\tstart_ns\tend_ns\tself_ns\n");
  const auto dump = [&](const SpanLog& log, const char* thread) {
    const std::vector<std::uint64_t> self = self_times(log.spans());
    for (std::size_t i = 0; i < log.spans().size(); ++i) {
      const Span& s = log.spans()[i];
      std::fprintf(f, "%s\t%zu\t%d\t%s\t%llu\t%lld\t%lld\t%llu\n", thread, i,
                   s.parent, kSpanNames[std::size_t(s.name)],
                   static_cast<unsigned long long>(s.req),
                   static_cast<long long>(s.start - origin),
                   static_cast<long long>(s.end - origin),
                   static_cast<unsigned long long>(self[i]));
    }
  };
  dump(main_log, "main");
  for (std::size_t c = 0; c < clients.size(); ++c) {
    dump(clients[c].spans, ("client" + std::to_string(c)).c_str());
  }
  std::fclose(f);
}

/// Per span name: stored count, mean duration and mean self time.
void print_span_summary(const SpanLog& main_log,
                        const std::vector<ClientResult>& clients) {
  constexpr std::size_t kN = std::size_t(SpanName::kCount);
  std::array<double, kN> dur{}, self{};
  std::array<std::uint64_t, kN> cnt{};
  std::uint64_t dropped = main_log.dropped();
  const auto fold = [&](const SpanLog& log) {
    const std::vector<std::uint64_t> st = self_times(log.spans());
    for (std::size_t i = 0; i < log.spans().size(); ++i) {
      const Span& s = log.spans()[i];
      const std::size_t k = std::size_t(s.name);
      ++cnt[k];
      dur[k] += s.end > s.start ? double(s.end - s.start) : 0.0;
      self[k] += double(st[i]);
    }
  };
  fold(main_log);
  for (const ClientResult& c : clients) {
    fold(c.spans);
    dropped += c.spans.dropped();
  }
  std::fprintf(stderr, "spans (1 request in %llu; %llu dropped at the cap)\n",
               static_cast<unsigned long long>(kSpanSample),
               static_cast<unsigned long long>(dropped));
  std::fprintf(stderr, "  %-16s %10s %12s %12s\n", "name", "count", "mean_us",
               "self_us");
  for (std::size_t k = 0; k < kN; ++k) {
    if (cnt[k] == 0) continue;
    std::fprintf(stderr, "  %-16s %10llu %12.3f %12.3f\n", kSpanNames[k],
                 static_cast<unsigned long long>(cnt[k]),
                 dur[k] / double(cnt[k]) * 1e-3,
                 self[k] / double(cnt[k]) * 1e-3);
  }
}

// ---- the run -----------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string run_dir = ".";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload NAME "
               "--seed N --seconds S --trace 0|1 --run-dir DIR\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") o.workload = v;
    else if (a == "--seed") o.seed = std::stoull(v);
    else if (a == "--seconds") o.seconds = std::stod(v);
    else if (a == "--trace") o.trace = v == "1";
    else if (a == "--run-dir") o.run_dir = v;
    else usage(("unknown flag " + a).c_str());
  }
  if (o.seconds <= 0) usage("--seconds must be positive");
  return o;
}

struct Check {
  std::string name;
  bool ok;
  std::string detail;
};

Check equal(const std::string& name, std::uint64_t a, std::uint64_t b) {
  return {name, a == b, std::to_string(a) + " vs " + std::to_string(b)};
}

/// After stop(): replay the run's WAL into fresh structures and require the
/// recovered map to equal the live one (acknowledged => durable).
Check recovery_check(const WorkloadSpec& w, const std::string& wal_dir,
                     otb::tx::OtbListMap& live, SpanLog& log) {
  otb::tx::OtbListMap fresh;
  svc::Service replica(svc::Targets::standard(&fresh),
                       service_config(w, wal_dir));
  const std::uint64_t r0 = now_ns();
  const svc::RecoveryReport r =
      replica.recover([&] { preload(fresh, w.keys); });
  log.add(SpanName::kRecover, r0, now_ns(), 0, -1);
  if (!r.ok()) return {"wal_recovery", false, r.detail};
  const auto a = live.snapshot_unsafe();
  const auto b = fresh.snapshot_unsafe();
  return {"wal_recovery", a == b,
          std::to_string(r.records_replayed) + " records, " +
              std::to_string(b.size()) + " keys recovered vs " +
              std::to_string(a.size()) + " live"};
}

/// The measured set-up and the set-up times of a run.
struct SetUp {
  std::unique_ptr<Instance> inst;
  std::string wal_dir;
  std::vector<double> seconds;
};

/// Set up `reps` times, each in a fresh process: all but the last in forked
/// children; the last in this process, which has started no thread before
/// it, and which the run measures.
SetUp set_up(const WorkloadSpec& w, const Options& opt, unsigned reps,
             SpanLog& log) {
  const auto fresh_wal_dir = [&](unsigned r) -> std::string {
    if (!w.wal) return {};
    const std::string dir = opt.run_dir + "/wal-" +
                            std::to_string(::getpid()) + "-" + std::to_string(r);
    fs::remove_all(dir);
    return dir;
  };
  SetUp s;
  for (unsigned r = 0; r + 1 < reps; ++r) {
    const std::string dir = fresh_wal_dir(r);
    s.seconds.push_back(setup_in_child(w, dir));
    if (!dir.empty()) fs::remove_all(dir);
  }
  s.wal_dir = fresh_wal_dir(reps);
  const std::uint64_t t0 = now_ns();
  s.inst = std::make_unique<Instance>(w, s.wal_dir, log);
  s.seconds.push_back(double(now_ns() - t0) * 1e-9);
  return s;
}

struct Measured {
  std::vector<ClientResult> clients;
  std::vector<Domains> at;           // registry at each window boundary
  std::vector<CpuTicks> ticks;       // pinned CPU at each window boundary
  Domains run_delta;                 // registry over the whole measured service
  std::uint64_t drained = 0;
};

/// Drive the clients through warm-up and every window, then stop the
/// service.  In a traced run, odd windows are traced.
Measured measure(RunCtx& ctx, bool trace, SpanLog& log) {
  const WorkloadSpec& w = *ctx.w;
  Measured out;
  out.clients.resize(w.net ? 1 : w.clients);
  for (ClientResult& c : out.clients) c.win.resize(ctx.nwin);
  const Domains before = domains_of(m::Registry::global().snapshot());
  ctx.t0 = now_ns() + static_cast<std::uint64_t>(kWarmupS * 1e9);
  ctx.t_end = ctx.t0 + ctx.win_ns * ctx.nwin;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < out.clients.size(); ++c) {
    threads.emplace_back([&ctx, &out, c, net = w.net] {
      if (net) {
        net_client(ctx, out.clients[c]);
      } else {
        inproc_client(ctx, static_cast<unsigned>(c), out.clients[c]);
      }
    });
  }
  for (unsigned i = 0; i <= ctx.nwin; ++i) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(ctx.t0 + ctx.win_ns * i)));
    if (trace) {
      const bool on = i < ctx.nwin && i % 2 == 1;
      ctx.tracing.store(on, std::memory_order_relaxed);
      otb::tx::set_collect_timing(on);
    }
    out.at.push_back(domains_of(m::Registry::global().snapshot()));
    out.ticks.push_back(cpu_ticks(ctx.cpu));
  }
  for (std::thread& t : threads) t.join();
  out.drained = now_ns();
  ctx.inst->stop(&log);
  out.run_delta = minus(domains_of(m::Registry::global().snapshot()), before);
  return out;
}

ClientResult sum_clients(const std::vector<ClientResult>& clients) {
  ClientResult total;
  for (const ClientResult& c : clients) {
    total.attempted += c.attempted;
    total.ok += c.ok;
    total.not_ok += c.not_ok;
    total.bad += c.bad;
    total.frames_sent += c.frames_sent;
    total.busy_s += c.busy_s;
    if (total.first_error.empty()) total.first_error = c.first_error;
    if (total.fatal.empty()) total.fatal = c.fatal;
  }
  return total;
}

std::vector<Check> output_checks(const WorkloadSpec& w, const ClientResult& total,
                                 const Domains& run) {
  const m::SinkSnapshot& sd = run.svc;
  std::vector<Check> checks;
  checks.push_back({"client_finished", total.fatal.empty(), total.fatal});
  checks.push_back({"responses_valid", total.bad == 0,
                    std::to_string(total.bad) + " bad; first: " + total.first_error});
  checks.push_back(equal("enqueued_eq_batched_plus_expired",
                         sd.counter(CounterId::kSvcEnqueued),
                         sd.batch_size.total + sd.counter(CounterId::kSvcExpired)));
  checks.push_back(equal("read_only_eq_snapshot_plus_misses",
                         sd.counter(CounterId::kSvcReadOnly),
                         sd.counter(CounterId::kMvSnapshotReads) +
                             sd.counter(CounterId::kMvVersionMisses)));
  checks.push_back(equal("fusion_unions_eq_fused_sets",
                         sd.counter(CounterId::kFusionUnions),
                         sd.fused_set_size.count));
  checks.push_back(equal("client_ok_eq_server_ok", total.ok,
                         sd.batch_size.total + sd.counter(CounterId::kSvcReadOnly)));
  checks.push_back(equal("client_attempted_eq_server_admissions", total.attempted,
                         sd.counter(CounterId::kSvcEnqueued) +
                             sd.counter(CounterId::kSvcReadOnly) +
                             sd.counter(CounterId::kSvcRejected) +
                             sd.counter(CounterId::kSvcFailed)));
  if (w.net) {
    checks.push_back(equal("frames_sent_eq_net_frames_in", total.frames_sent,
                           run.net.counter(CounterId::kNetFramesIn)));
  }
  return checks;
}

std::vector<WindowStats> merge_windows(const std::vector<ClientResult>& clients,
                                       unsigned nwin) {
  std::vector<WindowStats> win(nwin);
  for (const ClientResult& c : clients) {
    for (unsigned i = 0; i < nwin; ++i) {
      win[i].ok += c.win[i].ok;
      win[i].write_steps_ok += c.win[i].write_steps_ok;
      win[i].read.merge(c.win[i].read);
      win[i].write.merge(c.win[i].write);
      win[i].submit_read.merge(c.win[i].submit_read);
      win[i].submit_write.merge(c.win[i].submit_write);
    }
  }
  return win;
}

/// Per window, the share of the pinned CPU's busy time the hypervisor
/// took: steal / (busy + steal).
std::vector<double> stolen_shares(const std::vector<CpuTicks>& ticks) {
  std::vector<double> out;
  for (std::size_t i = 0; i + 1 < ticks.size(); ++i) {
    const double steal = double(ticks[i + 1].steal - ticks[i].steal);
    const double busy = double(ticks[i + 1].busy - ticks[i].busy);
    out.push_back(ratio(steal, steal + busy));
  }
  return out;
}

/// The windows an untraced run reports: those whose stolen share is at most
/// the median share, so at least half of them, and all of them when the
/// host took nothing.  On a shared host the hypervisor takes CPU time in
/// bursts; a window that lost 15-35% of it read p99 latencies 3-6x higher.
std::vector<bool> least_stolen(const std::vector<double>& stolen) {
  const double limit = median(stolen);
  std::vector<bool> used(stolen.size());
  for (std::size_t i = 0; i < stolen.size(); ++i) used[i] = stolen[i] <= limit;
  return used;
}

struct Figures {
  double ok_per_s = 0, read_p50 = 0, read_p99 = 0, write_p50 = 0, write_p99 = 0;
  std::uint64_t read_n = 0, write_n = 0, read_min = ~0ull, write_min = ~0ull;
};

/// End-to-end figures over the windows `pick` selects, each window first
/// put in the CPU time the program was given: a window whose CPU lost a
/// share s to the hypervisor ran for (1 - s) of its length, so its rate is
/// divided and its latencies multiplied by (1 - s).  Throughput is the OK
/// count over the CPU time of the windows, and each percentile the mean of
/// the windows' percentiles.  Means, not medians: with no steal at all the
/// host's pace still moved single windows by up to 20% for seconds at a
/// time, and across six runs the mean spread less than the median over
/// windows on most metrics (at most 0.19 of its value against 0.21).
template <typename Pick>
Figures figures(const std::vector<WindowStats>& win,
                const std::vector<double>& stolen, double win_s, Pick pick) {
  double ok = 0, cpu_s = 0, r50 = 0, r99 = 0, w50 = 0, w99 = 0;
  unsigned n = 0;
  Figures f;
  for (unsigned i = 0; i < win.size(); ++i) {
    if (!pick(i)) continue;
    const double given = 1.0 - stolen[i];
    ++n;
    ok += double(win[i].ok);
    cpu_s += win_s * given;
    r50 += win[i].read.quantile(0.50) * 1e-3 * given;
    r99 += win[i].read.quantile(0.99) * 1e-3 * given;
    w50 += win[i].write.quantile(0.50) * 1e-3 * given;
    w99 += win[i].write.quantile(0.99) * 1e-3 * given;
    f.read_n += win[i].read.count();
    f.write_n += win[i].write.count();
    f.read_min = std::min(f.read_min, win[i].read.count());
    f.write_min = std::min(f.write_min, win[i].write.count());
  }
  f.ok_per_s = ratio(ok, cpu_s);
  f.read_p50 = ratio(r50, n);
  f.read_p99 = ratio(r99, n);
  f.write_p50 = ratio(w50, n);
  f.write_p99 = ratio(w99, n);
  return f;
}

/// Per-layer metrics from the traced (odd) windows of a traced run.
std::vector<Metric> layer_metrics(const WorkloadSpec& w, const Measured& run,
                                  const std::vector<WindowStats>& win,
                                  const std::vector<double>& stolen,
                                  double win_s, std::uint64_t load_ns,
                                  double cpu_share) {
  Domains d;
  LatHist submit_read, submit_write, rtt;
  std::uint64_t write_steps = 0;
  unsigned traced = 0;
  for (unsigned i = 1; i < win.size(); i += 2) {
    const Domains wd = minus(run.at[i + 1], run.at[i]);
    d.tx += wd.tx;
    d.svc += wd.svc;
    d.net += wd.net;
    submit_read.merge(win[i].submit_read);
    submit_write.merge(win[i].submit_write);
    rtt.merge(win[i].read);
    rtt.merge(win[i].write);
    write_steps += win[i].write_steps_ok;
    ++traced;
  }
  const double traced_s = traced * win_s;
  const auto c = [](const m::SinkSnapshot& s, CounterId id) {
    return double(s.counter(id));
  };
  const auto phase_us = [](const m::SinkSnapshot& s, m::Phase p) {
    return ratio(double(s.phase(p).total_ns), double(s.phase(p).count)) * 1e-3;
  };
  const auto change_pct = [](double traced_v, double untraced_v) {
    return ratio(traced_v - untraced_v, untraced_v) * 100;
  };
  const m::SinkSnapshot& tx = d.tx;
  const m::SinkSnapshot& sv = d.svc;
  const double hits = c(tx, CounterId::kHintHitLocal) + c(tx, CounterId::kHintHitCached);
  const double in_service_us = phase_us(sv, m::Phase::kService);
  const Figures on = figures(win, stolen, win_s, [](unsigned i) { return i % 2 == 1; });
  const Figures off = figures(win, stolen, win_s, [](unsigned i) { return i % 2 == 0; });
  return {
      {"otb.load_ns_per_key", ratio(double(load_ns), double(w.keys / 2)), "ns"},
      {"otb.traversal_steps_mean",
       ratio(double(tx.traversals.total_steps), double(tx.traversals.count)),
       "nodes"},
      {"otb.hint_hit_share", ratio(hits, hits + c(tx, CounterId::kHintMiss)),
       "ratio"},
      {"otb.commit_ratio",
       ratio(c(tx, CounterId::kCommits), c(tx, CounterId::kAttempts)), "ratio"},
      {"otb.conflicts_per_commit",
       ratio(double(tx.aborts_for(m::AbortReason::kSemanticConflict)),
             c(tx, CounterId::kCommits)),
       "ratio"},
      {"otb.fast_validation_share",
       ratio(c(tx, CounterId::kValidationsFast),
             c(tx, CounterId::kValidationsFast) + c(tx, CounterId::kValidationsFull)),
       "ratio"},
      {"otb.validation_us_mean", phase_us(tx, m::Phase::kValidation), "us"},
      {"otb.commit_us_mean", phase_us(tx, m::Phase::kCommit), "us"},
      {"otb.mv.read_us_p50", submit_read.quantile(0.5) * 1e-3, "us"},
      {"otb.mv.nodes_per_read",
       ratio(double(sv.mv_chain_len.count), c(sv, CounterId::kMvSnapshotReads)),
       "nodes"},
      {"otb.mv.chain_depth_mean",
       ratio(double(sv.mv_chain_len.total), double(sv.mv_chain_len.count)),
       "entries"},
      {"otb.mv.miss_share",
       ratio(c(sv, CounterId::kMvVersionMisses), c(sv, CounterId::kSvcReadOnly)),
       "ratio"},
      {"service.submit_us_p50", submit_write.quantile(0.5) * 1e-3, "us"},
      {"service.in_service_us_mean", in_service_us, "us"},
      {"service.batch_size_mean",
       ratio(double(sv.batch_size.total), double(sv.batch_size.count)),
       "requests"},
      {"service.queue_depth_mean",
       ratio(double(sv.queue_depth.total), double(sv.queue_depth.count)),
       "requests"},
      {"service.split_share",
       ratio(c(sv, CounterId::kSvcBatchSplits), c(sv, CounterId::kSvcBatches)),
       "ratio"},
      {"service.fusion.fused_share",
       ratio(c(sv, CounterId::kSvcFused), c(sv, CounterId::kSvcEnqueued)),
       "ratio"},
      {"service.fusion.fallback_share",
       ratio(c(sv, CounterId::kFusionFallbacks),
             c(sv, CounterId::kFusionUnions) + c(sv, CounterId::kFusionFallbacks)),
       "ratio"},
      {"service.fusion.set_size_mean",
       ratio(double(sv.fused_set_size.total), double(sv.fused_set_size.count)),
       "requests"},
      {"service.wal.bytes_per_write_step",
       ratio(c(sv, CounterId::kWalBytes), double(write_steps)), "B"},
      {"service.net.outside_service_us_mean",
       w.net ? std::max(0.0, rtt.mean() * 1e-3 - in_service_us) : 0.0, "us"},
      {"service.net.frames_per_s",
       ratio(c(d.net, CounterId::kNetFramesIn), traced_s), "1/s"},
      {"service.net.backpressure_per_s",
       ratio(c(d.net, CounterId::kNetBackpressure), traced_s), "1/s"},
      {"client.cpu_share", cpu_share, "ratio"},
      {"trace.ok_per_s", on.ok_per_s, "req/s"},
      {"trace.untraced_ok_per_s", off.ok_per_s, "req/s"},
      {"trace.ok_per_s_change_pct", change_pct(on.ok_per_s, off.ok_per_s), "%"},
      {"trace.read_p50_us", on.read_p50, "us"},
      {"trace.untraced_read_p50_us", off.read_p50, "us"},
      {"trace.read_p50_change_pct", change_pct(on.read_p50, off.read_p50), "%"},
      {"trace.write_p50_us", on.write_p50, "us"},
      {"trace.untraced_write_p50_us", off.write_p50, "us"},
      {"trace.write_p50_change_pct", change_pct(on.write_p50, off.write_p50), "%"},
  };
}

std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i != 0 ? ", " : "") + items[i];
  }
  return out + "]";
}

/// Everything a reader needs to tell whether this run can stand as a
/// baseline: machine, build, run shape, sample counts, set-up times, checks.
JsonObj run_record(const WorkloadSpec& w, const Options& opt, const RunCtx& ctx,
                   const Pinning& pin, const Measured& run, const Figures& fig,
                   const std::vector<double>& setup_s,
                   const std::vector<Check>& checks, const std::string& fs_type,
                   const ClientResult& total, double cpu_share) {
  std::vector<std::string> setups, check_items;
  for (const double s : setup_s) setups.push_back(jnum(s));
  for (const Check& c : checks) {
    check_items.push_back(JsonObj()
                              .str("name", c.name)
                              .boolean("ok", c.ok)
                              .str("detail", c.detail)
                              .dump());
  }
#if defined(__OPTIMIZE__)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#if defined(NDEBUG)
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  return JsonObj()
      .str("workload", w.name)
      .num("seed", double(opt.seed))
      .boolean("trace", opt.trace)
      .num("nproc", double(std::thread::hardware_concurrency()))
      .num("allowed_cpus", pin.allowed)
      .num("pinned_cpu", pin.cpu)
      .str("compiler", __VERSION__)
      .str("cxx_flags", PERFBENCH_CXX_FLAGS)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .boolean("optimized", optimized)
      .boolean("ndebug", ndebug)
      .num("warmup_s", kWarmupS)
      .num("measured_s", opt.seconds)
      .num("drained_s", double(run.drained - ctx.t_end) * 1e-9)
      .num("windows", ctx.nwin)
      .num("window_s", double(ctx.win_ns) * 1e-9)
      .str("transport", w.net ? "loopback_tcp" : "in_process")
      .num("client_threads", double(run.clients.size()))
      .num("connections", w.net ? double(w.clients) : 0.0)
      .num("window", w.window)
      .num("workers", w.workers)
      .num("batch_max", w.batch_max)
      .num("key_space", double(w.keys))
      .boolean("wal", w.wal)
      .str("wal_fsync", w.wal ? "off" : "")
      .str("run_dir_fs", fs_type)
      .boolean("wal_on_tmpfs", w.wal && (fs_type == "tmpfs" || fs_type == "ramfs"))
      .num("mv_versions", otb::tx::mv_versions())
      .num("read_samples", double(fig.read_n))
      .num("read_samples_min_window", double(fig.read_min))
      .num("write_samples", double(fig.write_n))
      .num("write_samples_min_window", double(fig.write_min))
      .raw("setup_s_each", json_array(setups))
      .num("failed_share", ratio(double(total.not_ok), double(total.attempted)))
      .num("client_cpu_share", cpu_share)
      .boolean("client_saturated", cpu_share > 0.9)
      .raw("checks", json_array(check_items));
}

int run(const Options& opt) {
  const WorkloadSpec* wp = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (opt.workload == w.name) wp = &w;
  }
  if (wp == nullptr) usage(("unknown workload " + opt.workload).c_str());
  const WorkloadSpec& w = *wp;
  fs::create_directories(opt.run_dir);
  const Pinning pin = pin_to_one_cpu();
  const std::uint64_t origin = now_ns();
  SpanLog main_log;
  SetUp setup = set_up(w, opt, opt.trace ? 1 : kSetupReps, main_log);

  RunCtx ctx;
  ctx.w = &w;
  ctx.seed = opt.seed;
  ctx.inst = setup.inst.get();
  ctx.nwin = opt.trace ? kTraceWindows
                       : std::max(2u, static_cast<unsigned>(opt.seconds / kWindowS + 0.5));
  ctx.cpu = pin.cpu;
  ctx.win_ns = static_cast<std::uint64_t>(opt.seconds * 1e9 / ctx.nwin);
  const Measured run = measure(ctx, opt.trace, main_log);
  const double peak_rss = peak_rss_mib();

  const ClientResult total = sum_clients(run.clients);
  std::vector<Check> checks = output_checks(w, total, run.run_delta);
  if (w.wal) {
    checks.push_back(recovery_check(w, setup.wal_dir, setup.inst->map(), main_log));
  }
  bool correct = true;
  for (const Check& c : checks) {
    if (!c.ok) correct = false;
    std::fprintf(stderr, "check %-40s %s  (%s)\n", c.name.c_str(),
                 c.ok ? "ok  " : "FAIL", c.detail.c_str());
  }
  const std::string fs_type = fs_type_name(opt.run_dir);
  const std::uint64_t load_ns = setup.inst->load_ns();
  setup.inst.reset();
  if (!setup.wal_dir.empty()) fs::remove_all(setup.wal_dir);

  const double win_s = double(ctx.win_ns) * 1e-9;
  const std::vector<WindowStats> win = merge_windows(run.clients, ctx.nwin);
  const std::vector<double> stolen = stolen_shares(run.ticks);
  // A traced run reports its traced (odd) windows; an untraced run the
  // least stolen half.
  std::vector<bool> used(ctx.nwin);
  if (opt.trace) {
    for (unsigned i = 0; i < ctx.nwin; ++i) used[i] = i % 2 == 1;
  } else {
    used = least_stolen(stolen);
  }
  for (unsigned i = 0; i < ctx.nwin; ++i) {
    std::fprintf(stderr,
                 "window %u%s%s: ok/s %.0f  read p50 %.1f p99 %.1f us (n=%llu)  "
                 "write p50 %.1f p99 %.1f us (n=%llu)  stolen %.1f%%\n",
                 i, opt.trace ? (i % 2 == 1 ? " traced" : " untraced") : "",
                 used[i] ? " *" : "", double(win[i].ok) / win_s,
                 win[i].read.quantile(0.5) * 1e-3,
                 win[i].read.quantile(0.99) * 1e-3,
                 static_cast<unsigned long long>(win[i].read.count()),
                 win[i].write.quantile(0.5) * 1e-3,
                 win[i].write.quantile(0.99) * 1e-3,
                 static_cast<unsigned long long>(win[i].write.count()),
                 stolen[i] * 100);
  }
  const double cpu_share =
      std::max(0.0, total.busy_s / (double(run.clients.size()) * opt.seconds));
  if (cpu_share > 0.9) {
    std::fprintf(stderr,
                 "warning: client threads were %.0f%% busy; this run measured "
                 "the load generator\n",
                 cpu_share * 100);
  }

  const Figures fig = figures(win, stolen, win_s, [&](unsigned i) { return used[i]; });
  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = {
        {"ok_per_s", fig.ok_per_s, "req/s"},
        {"read_p50_us", fig.read_p50, "us"},
        {"read_p99_us", fig.read_p99, "us"},
        {"write_p50_us", fig.write_p50, "us"},
        {"write_p99_us", fig.write_p99, "us"},
        {"setup_s", median(setup.seconds), "s"},
        {"peak_rss_mib", peak_rss, "MiB"},
    };
  } else {
    metrics = layer_metrics(w, run, win, stolen, win_s, load_ns, cpu_share);
    print_span_summary(main_log, run.clients);
    const std::string path = opt.run_dir + "/spans-" + w.name + "-seed" +
                             std::to_string(opt.seed) + ".tsv";
    write_spans(path, main_log, run.clients, origin);
    std::fprintf(stderr, "spans written to %s\n", path.c_str());
  }

  std::vector<std::string> stolen_items, used_items;
  for (unsigned i = 0; i < ctx.nwin; ++i) {
    stolen_items.push_back(jnum(stolen[i]));
    if (used[i]) used_items.push_back(std::to_string(i));
  }
  const JsonObj record =
      run_record(w, opt, ctx, pin, run, fig, setup.seconds, checks, fs_type,
                 total, cpu_share)
          .raw("stolen_share_by_window", json_array(stolen_items))
          .raw("windows_used", json_array(used_items));
  std::printf("%s\n", JsonObj()
                          .boolean("correct", correct)
                          .num("attempted", double(total.attempted))
                          .num("failed", double(total.not_ok))
                          .raw("metrics", metrics_json(correct ? metrics
                                                               : std::vector<Metric>{}))
                          .raw("record", record.dump())
                          .dump()
                          .c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
