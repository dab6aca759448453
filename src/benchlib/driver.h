// Fixed-duration multi-threaded throughput driver used by every figure
// bench: warm-up phase, measured phase, per-thread op counters and STM
// stats, aggregated into ops/second.  Mirrors the paper's methodology
// (§3.3: "warm up phase ... followed by an execution ... during which the
// throughput is measured").
//
// Durations and thread sweeps honour the environment variables
//   OTB_BENCH_MS       measured milliseconds per data point (default 250)
//   OTB_BENCH_WARM_MS  warm-up milliseconds (default 50)
//   OTB_BENCH_THREADS  space-separated thread counts (default "1 2 4 8")
// so the full suite stays runnable in seconds on small hosts.
#pragma once

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/platform.h"
#include "metrics/json.h"
#include "metrics/registry.h"
#include "metrics/tally.h"

namespace otb::bench {

namespace detail {
inline std::string& metrics_json_path() {
  static std::string path;
  return path;
}
}  // namespace detail

/// Strip `--metrics-json=<path>` from argv (call before the benchmark
/// library parses flags; the environment variable OTB_METRICS_JSON works
/// too) and register an at-exit dump of the global metrics registry as
/// JSON.  Every runtime constructed without an injected sink lands in the
/// registry, so the dump covers all of them.
inline void install_metrics_json_exporter(int& argc, char** argv) {
  std::string& path = detail::metrics_json_path();
  if (const char* env = std::getenv("OTB_METRICS_JSON")) path = env;
  constexpr std::string_view kFlag = "--metrics-json=";
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.substr(0, kFlag.size()) == kFlag) {
      path = std::string(arg.substr(kFlag.size()));
    } else {
      argv[out++] = argv[i];
    }
  }
  for (int i = out; i < argc; ++i) argv[i] = nullptr;
  argc = out;
  if (path.empty()) return;
  // Touch the registry singleton now so it outlives the handler: atexit
  // handlers and static destructors run in reverse registration order, and
  // the first sink is otherwise only created mid-run.
  metrics::Registry::global();
  std::atexit([] {
    const std::string& p = detail::metrics_json_path();
    std::FILE* f = std::fopen(p.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "metrics-json: cannot open %s\n", p.c_str());
      return;
    }
    const std::string body =
        metrics::to_json(metrics::Registry::global().snapshot());
    std::fwrite(body.data(), 1, body.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
  });
}

enum class Phase : int { kWarmup = 0, kMeasure = 1, kDone = 2 };

struct ThreadResult {
  std::uint64_t ops = 0;
  std::uint64_t aborts = 0;
  metrics::TxTally stats{};
};

struct RunResult {
  double ops_per_sec = 0;
  std::uint64_t total_ops = 0;
  std::uint64_t total_aborts = 0;
  metrics::TxTally stats{};
};

/// Worker contract: loop "one operation per iteration" until phase() is
/// kDone, incrementing out.ops only while phase() is kMeasure.
using Worker =
    std::function<void(unsigned tid, const std::function<Phase()>& phase,
                       ThreadResult& out)>;

inline unsigned env_unsigned(const char* name, unsigned fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? static_cast<unsigned>(std::strtoul(v, nullptr, 10))
                      : fallback;
}

inline std::vector<unsigned> thread_counts() {
  std::vector<unsigned> counts;
  if (const char* v = std::getenv("OTB_BENCH_THREADS")) {
    std::istringstream in(v);
    unsigned n;
    while (in >> n) counts.push_back(n);
  }
  if (counts.empty()) counts = {1, 2, 4, 8};
  return counts;
}

inline unsigned measure_ms() { return env_unsigned("OTB_BENCH_MS", 250); }
inline unsigned warmup_ms() { return env_unsigned("OTB_BENCH_WARM_MS", 50); }

/// Run `worker` on `threads` threads for warm_ms + run_ms.
inline RunResult run_fixed_duration(unsigned threads, unsigned warm_ms,
                                    unsigned run_ms, const Worker& worker) {
  std::atomic<int> phase{static_cast<int>(Phase::kWarmup)};
  const auto phase_fn = [&phase]() {
    return static_cast<Phase>(phase.load(std::memory_order_acquire));
  };
  std::vector<ThreadResult> results(threads);
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      char name[16];
      std::snprintf(name, sizeof(name), "bench/w%u", t);
      set_this_thread_name(name);
      worker(t, phase_fn, results[t]);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(warm_ms));
  const std::uint64_t t0 = now_ns();
  phase.store(static_cast<int>(Phase::kMeasure), std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::milliseconds(run_ms));
  phase.store(static_cast<int>(Phase::kDone), std::memory_order_release);
  const std::uint64_t t1 = now_ns();
  for (auto& th : pool) th.join();

  RunResult out;
  for (const auto& r : results) {
    out.total_ops += r.ops;
    out.total_aborts += r.aborts;
    out.stats += r.stats;
  }
  const double seconds = double(t1 - t0) * 1e-9;
  out.ops_per_sec = seconds > 0 ? double(out.total_ops) / seconds : 0;
  return out;
}

}  // namespace otb::bench
