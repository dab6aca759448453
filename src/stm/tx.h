// Abstract per-thread transaction context — the C++ analogue of the DEUCE
// "STM context" layer (§4.1.2): each algorithm implements begin / read /
// write / commit / rollback, and the shared attempt loop
// (common/attempt_loop.h) drives them.
//
// Accounting: algorithms bump the plain per-context `stats_` tally on the
// hot path (no atomics).  The tally runs over the context's lifetime; the
// loop adds each attempt's phase times and outcome to it and flushes the
// attempt's share (`attempt_tally`) into the runtime's `metrics::MetricsSink`.
#pragma once

#include "common/tx_abort.h"
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

  /// The transaction is over, committed or not.  Memory contexts hold
  /// nothing between transactions; the OTB contexts park descriptors here.
  virtual void end() {}

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
  metrics::TxTally& tally() { return stats_; }

  /// What this context counted since the previous call: the attempt that
  /// just ended, for the attempt loop's flush.
  metrics::TxTally attempt_tally() {
    const metrics::TxTally d = stats_.delta_since(flushed_);
    flushed_ = stats_;
    return d;
  }

 protected:
  metrics::TxTally stats_;

 private:
  metrics::TxTally flushed_;
};

}  // namespace otb::stm
