// Mini-STAMP: scaled-down re-creations of the six STAMP workloads the
// paper evaluates RTC/RInval on (Table 5.1, Figs 5.10, 6.3, 6.8).  Each app
// preserves the *transaction shape* of its namesake — read/write-set sizes,
// commit-time ratio, contention pattern — while completing in milliseconds
// (see DESIGN.md's substitution table).
//
// Every app runs a fixed amount of work split across threads (STAMP
// measures execution time, not throughput) and produces a checksum; for
// deterministic apps the checksum is independent of the thread count, so
// tests can equate the concurrent result with the sequential oracle.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/platform.h"
#include "stm/stm.h"

namespace otb::ministamp {

struct AppResult {
  double exec_ms = 0;
  std::uint64_t checksum = 0;
  metrics::TxTally stats{};
};

class App {
 public:
  virtual ~App() = default;
  virtual const char* name() const = 0;

  /// Run the full workload on `threads` threads over runtime `rt`.
  virtual AppResult run(stm::Runtime& rt, unsigned threads) const = 0;

  /// Whether the checksum is order-independent (labyrinth is not: route
  /// claiming is a race by design).
  virtual bool deterministic() const { return true; }
};

/// Work scale multiplier (env OTB_STAMP_SCALE, default 1).
inline unsigned stamp_scale() {
  const char* v = std::getenv("OTB_STAMP_SCALE");
  const unsigned s = v != nullptr ? static_cast<unsigned>(std::atoi(v)) : 1;
  return s == 0 ? 1 : s;
}

/// Shared driver: splits tasks [0, ntasks) across threads through a global
/// cursor, times the whole run, and aggregates per-thread STM stats.
/// `body(th, task)` executes one task transactionally.
template <typename Body>
AppResult run_tasks(stm::Runtime& rt, unsigned threads, std::uint64_t ntasks,
                    const Body& body) {
  std::atomic<std::uint64_t> cursor{0};
  std::vector<metrics::TxTally> stats(threads);
  const std::uint64_t t0 = now_ns();
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      stm::TxThread th(rt);
      for (;;) {
        const std::uint64_t task = cursor.fetch_add(1, std::memory_order_relaxed);
        if (task >= ntasks) break;
        body(th, task);
      }
      stats[t] = th.tx().tally();
    });
  }
  for (auto& th : pool) th.join();
  AppResult out;
  out.exec_ms = double(now_ns() - t0) * 1e-6;
  for (const auto& s : stats) out.stats += s;
  return out;
}

}  // namespace otb::ministamp
