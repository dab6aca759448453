// Adaptive STM runtime — the §5.4.1 integration story: "an STM runtime can
// heuristically detect these cases of RTC degradation by comparing the
// sizes of read-sets and write-sets, and switching at run-time from/to
// another appropriate algorithm … in a 'stop-the-world' manner, in which
// new transactions are blocked from starting until the current in-flight
// transactions commit and then the switch takes place."
//
// Implementation: a reader/writer gate.  Every transaction holds the gate
// shared for its whole retry loop; switch_to() takes it exclusively, so it
// observes a quiescent moment, tears down the old algorithm's global state
// (including RTC/RInval server threads) and installs the new one.  Thread
// contexts are generation-stamped and lazily rebuilt after a switch.
//
// The built-in policy mirrors the paper's heuristic: long traversals with
// tiny write-sets (linked-list-like, commit share ≈ 0) favour NOrec; short
// transactions with meaningful write-sets (commit-bound) favour RTC.
#pragma once

#include <memory>
#include <shared_mutex>

#include "stm/stm.h"

namespace otb::stm {

class AdaptiveThread;

class AdaptiveRuntime {
 public:
  explicit AdaptiveRuntime(AlgoKind initial, Config config = {})
      : config_(config),
        runtime_(std::make_shared<Runtime>(initial, config)) {}

  AlgoKind kind() const {
    std::shared_lock lk(gate_);
    return runtime_->kind();
  }

  /// Stop-the-world switch.  No-op when already running `kind`.
  void switch_to(AlgoKind kind) {
    std::unique_lock lk(gate_);
    if (runtime_->kind() == kind) return;
    // The exclusive gate guarantees quiescence (no in-flight transaction).
    // The old runtime is kept alive by the threads still holding handles to
    // it and dies when the last of them refreshes.
    runtime_ = std::make_shared<Runtime>(kind, config_);
    generation_.fetch_add(1, std::memory_order_acq_rel);
  }

  /// §5.4.1 heuristic, fed with a thread's observed averages.  Returns the
  /// algorithm the workload shape calls for.
  AlgoKind recommend(double avg_reads, double avg_writes) const {
    // Commit work scales with the write-set; traversal work with the
    // read-set.  A tiny write share means remote commit cannot pay for the
    // request round-trip (the paper's linked-list case).
    if (avg_writes < 1.0 || avg_reads > 32.0 * avg_writes) {
      return AlgoKind::kNOrec;
    }
    return AlgoKind::kRTC;
  }

  /// Re-evaluate the policy against a thread's statistics and switch if the
  /// recommendation differs.  Returns true when a switch happened.
  bool maybe_adapt(const metrics::TxTally& stats) {
    if (stats.commits == 0) return false;
    const double reads = double(stats.reads) / double(stats.commits);
    const double writes = double(stats.writes) / double(stats.commits);
    const AlgoKind want = recommend(reads, writes);
    if (want == kind()) return false;
    switch_to(want);
    return true;
  }

  template <typename Fn>
  metrics::AttemptReport atomically(AdaptiveThread& thread, Fn&& fn);

 private:
  friend class AdaptiveThread;

  Config config_;
  mutable std::shared_mutex gate_;
  std::shared_ptr<Runtime> runtime_;
  std::atomic<std::uint64_t> generation_{0};
};

/// Per-thread handle; rebuilds its underlying TxThread after each switch.
class AdaptiveThread {
 public:
  explicit AdaptiveThread(AdaptiveRuntime& rt) : rt_(rt) {}

  /// Cumulative statistics across generations.
  const metrics::TxTally& tally() const { return accumulated_; }

 private:
  friend class AdaptiveRuntime;

  /// Called under the shared gate.
  TxThread& refresh() {
    const std::uint64_t gen = rt_.generation_.load(std::memory_order_acquire);
    if (inner_ == nullptr || gen != generation_) {
      inner_.reset();  // release the slot on the runtime it belongs to
      bound_ = rt_.runtime_;  // pin the current runtime's lifetime
      inner_ = std::make_unique<TxThread>(*bound_);
      generation_ = gen;
      last_snapshot_ = metrics::TxTally{};
    }
    return *inner_;
  }

  void harvest() {
    // Fold the delta since the last harvest into the running total.
    const metrics::TxTally& now = inner_->tx().tally();
    accumulated_ += now.delta_since(last_snapshot_);
    last_snapshot_ = now;
  }

  AdaptiveRuntime& rt_;
  std::shared_ptr<Runtime> bound_;     // keeps the owning runtime alive
  std::unique_ptr<TxThread> inner_;    // destroyed before bound_
  std::uint64_t generation_ = ~0ull;
  metrics::TxTally last_snapshot_{};
  metrics::TxTally accumulated_{};
};

template <typename Fn>
metrics::AttemptReport AdaptiveRuntime::atomically(AdaptiveThread& thread, Fn&& fn) {
  std::shared_lock lk(gate_);
  TxThread& th = thread.refresh();
  const metrics::AttemptReport report =
      runtime_->atomically(th, std::forward<Fn>(fn));
  thread.harvest();
  return report;
}

}  // namespace otb::stm
