// STM runtime facade: owns the algorithm's global state (clocks, orec
// tables, server threads) and hands out per-thread transaction contexts,
// which the shared attempt loop drives (the DEUCE agent of Fig 4.1).
#pragma once

#include <cassert>
#include <memory>
#include <mutex>
#include <vector>

#include "common/attempt_loop.h"
#include "metrics/sink.h"
#include "stm/config.h"
#include "stm/tx.h"

namespace otb::stm {

/// Algorithm-global state + context factory.  One instance per Runtime.
class AlgoGlobal {
 public:
  virtual ~AlgoGlobal() = default;
  virtual std::unique_ptr<Tx> make_tx(unsigned slot) = 0;
};

class Runtime;

/// RAII registration of the calling thread with a runtime: reserves a slot
/// (used by invalidation records / RTC request entries) and owns the
/// thread's transaction context.
class TxThread {
 public:
  explicit TxThread(Runtime& rt);
  ~TxThread();
  TxThread(const TxThread&) = delete;
  TxThread& operator=(const TxThread&) = delete;

  Tx& tx() { return *tx_; }
  unsigned slot() const { return slot_; }

 private:
  Runtime& rt_;
  unsigned slot_;
  std::unique_ptr<Tx> tx_;
};

class Runtime {
 public:
  Runtime(AlgoKind kind, Config config = {});
  ~Runtime() = default;

  AlgoKind kind() const { return kind_; }
  const Config& config() const { return config_; }

  /// The sink every context of this runtime reports through (injected via
  /// `Config::metrics`, else the registry domain "stm.<algo>").
  metrics::MetricsSink& metrics_sink() const { return *sink_; }

  /// Snapshot of this runtime's accumulated metrics (every context's
  /// tally, summed by the sink).
  metrics::SinkSnapshot metrics() const { return sink_->snapshot(); }

  /// Execute `fn(tx)` atomically with retry-on-abort; a user exception is
  /// rethrown after rollback.  Returns the attempt report for this call;
  /// lifetime totals flow into the metrics sink.
  template <typename Fn>
  metrics::AttemptReport atomically(TxThread& thread, Fn&& fn) {
    return run_attempts(thread.tx(), *sink_, config_.collect_timing, 0, fn);
  }

 private:
  friend class TxThread;

  unsigned acquire_slot() {
    std::lock_guard<std::mutex> lk(slots_mu_);
    for (unsigned i = 0; i < slot_used_.size(); ++i) {
      if (!slot_used_[i]) {
        slot_used_[i] = true;
        return i;
      }
    }
    assert(false && "more threads than Config::max_threads");
    return 0;
  }

  void release_slot(unsigned slot) {
    std::lock_guard<std::mutex> lk(slots_mu_);
    slot_used_[slot] = false;
  }

  AlgoKind kind_;
  Config config_;
  metrics::MetricsSink* sink_ = nullptr;  // resolved in the constructor
  std::unique_ptr<AlgoGlobal> global_;
  std::mutex slots_mu_;
  std::vector<bool> slot_used_;
};

inline TxThread::TxThread(Runtime& rt) : rt_(rt), slot_(rt.acquire_slot()) {
  tx_ = rt.global_->make_tx(slot_);
}

inline TxThread::~TxThread() {
  tx_.reset();  // the context must deregister before the slot can be reused
  rt_.release_slot(slot_);
}

}  // namespace otb::stm
