// Minimal transaction runtime for Herlihy–Koskinen *pessimistic* boosting
// (§2.3): eager execution on an underlying linearizable object, abstract
// locks held in two-phase style until commit, and a semantic undo-log
// replayed in reverse on abort.
//
// Aborts only ever come from failed abstract-lock acquisition (bounded
// try-lock to preempt deadlock), exactly as the paper notes when comparing
// abort sources against OTB.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/attempt_loop.h"
#include "metrics/registry.h"
#include "metrics/sink.h"

namespace otb::boosted {

/// The sink pessimistic-boosting transactions report through (domain
/// "boosted" in the global registry unless overridden).
namespace detail {
inline metrics::MetricsSink*& sink_slot() {
  static metrics::MetricsSink* sink =
      &metrics::Registry::global().sink("boosted");
  return sink;
}
}  // namespace detail

inline metrics::MetricsSink& metrics_sink() { return *detail::sink_slot(); }

inline void set_metrics_sink(metrics::MetricsSink* sink) {
  detail::sink_slot() =
      sink != nullptr ? sink : &metrics::Registry::global().sink("boosted");
}

inline metrics::SinkSnapshot metrics_snapshot() { return metrics_sink().snapshot(); }

/// One pessimistic-boosting transaction: the undo log plus the release
/// actions for every abstract lock its current attempt acquired.
class BoostedTx {
 public:
  using Action = std::function<void()>;

  /// Register the inverse of an operation that just executed eagerly.
  void log_undo(Action inverse) { undo_.push_back(std::move(inverse)); }

  /// Register how to release an abstract lock at transaction end.
  void log_release(Action release) { releases_.push_back(std::move(release)); }

  void begin() {}

  void commit() {
    undo_.clear();
    release_all();
  }

  /// Replay the undo log in reverse, then release the abstract locks.
  void rollback() {
    for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) (*it)();
    undo_.clear();
    release_all();
  }

  void end() {}

  /// Pessimistic boosting counts no operations and is never timed, so an
  /// attempt has nothing of its own to flush: the loop's outcome counts
  /// land in a per-thread scratch, and every attempt flushes an empty tally
  /// (a per-transaction tally cost a small transaction ~50% more time).
  metrics::TxTally& tally() {
    thread_local metrics::TxTally scratch;
    return scratch;
  }
  const metrics::TxTally& attempt_tally() const {
    static const metrics::TxTally kEmpty;
    return kEmpty;
  }

 private:
  void release_all() {
    for (auto it = releases_.rbegin(); it != releases_.rend(); ++it) (*it)();
    releases_.clear();
  }

  std::vector<Action> undo_;
  std::vector<Action> releases_;
};

/// Run `fn(tx)` under pessimistic boosting, retrying on abort; a user
/// exception is rethrown after the undo log ran.  Returns the attempt
/// report for this call; lifetime totals flow into the metrics sink.
template <typename Fn>
metrics::AttemptReport atomically(Fn&& fn) {
  BoostedTx tx;
  return run_attempts(tx, metrics_sink(), /*timed=*/false, 0, fn);
}

}  // namespace otb::boosted
