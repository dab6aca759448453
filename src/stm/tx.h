// Abstract per-thread transaction context — the C++ analogue of the DEUCE
// "STM context" layer (§4.1.2): each algorithm implements begin / read /
// write / commit / rollback, and the runtime drives the retry loop.
//
// Accounting: algorithms bump the plain per-context `stats_` tally on the
// hot path (no atomics); the retry loop calls `note_commit` /
// `note_abort(reason)` at each attempt boundary, which flushes the
// attempt's tally *delta* into the bound `metrics::MetricsSink` — commit
// and abort-by-reason counters, operation counters, and per-phase latency
// histograms when timing is collected.
#pragma once

#include "common/tx_abort.h"
#include "metrics/sink.h"
#include "metrics/tally.h"
#include "stm/tvar.h"

namespace otb::stm {

class Tx {
 public:
  virtual ~Tx() = default;

  /// Start (or restart) a transaction attempt.
  virtual void begin() = 0;

  /// Transactional word read; throws TxAbort on conflict.
  virtual Word read_word(const TWord* addr) = 0;

  /// Transactional (buffered or eager, per algorithm) word write.
  virtual void write_word(TWord* addr, Word value) = 0;

  /// Attempt to commit; throws TxAbort on failure.
  virtual void commit() = 0;

  /// Clean up after an abort (release anything held, clear logs).
  virtual void rollback() = 0;

  // ---- typed sugar --------------------------------------------------------

  template <WordSized T>
  T read(const TVar<T>& var) {
    return from_word<T>(read_word(&var.word()));
  }

  template <WordSized T>
  void write(TVar<T>& var, T value) {
    write_word(&var.word(), to_word(value));
  }

  /// Read-modify-write helper.
  template <WordSized T, typename Fn>
  void update(TVar<T>& var, Fn&& fn) {
    write(var, fn(read(var)));
  }

  // ---- accounting ---------------------------------------------------------

  /// Lifetime totals including per-reason abort attribution.
  const metrics::TxTally& tally() const { return stats_; }

  /// Bind the sink this context flushes into (null = keep tallying only).
  /// Called once at construction by the owning runtime.
  void bind_metrics(metrics::MetricsSink* sink) { sink_ = sink; }
  metrics::MetricsSink* metrics_sink() const { return sink_; }

  /// Attempt boundary: the retry loop reports the committed attempt.
  void note_commit() {
    stats_.commits += 1;
    stats_.attempts += 1;
    flush_attempt(true, metrics::AbortReason::kNone);
  }

  /// Attempt boundary: the retry loop reports an aborted attempt.
  void note_abort(metrics::AbortReason r) {
    stats_.aborts += 1;
    stats_.attempts += 1;
    stats_.aborts_by[metrics::index(r)] += 1;
    stats_.last_reason = r;
    flush_attempt(false, r);
  }

 protected:
  metrics::TxTally stats_;

 private:
  void flush_attempt(bool committed, metrics::AbortReason r) {
    if (sink_ == nullptr) return;
    sink_->record_attempt(stats_.delta_since(flushed_), committed, r);
    flushed_ = stats_;
  }

  metrics::MetricsSink* sink_ = nullptr;
  metrics::TxTally flushed_;
};

}  // namespace otb::stm
