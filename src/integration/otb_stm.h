// Chapter 4: integrating OTB data structures with an STM framework.
//
// `OtbTx` is the joint context type — simultaneously an STM transaction
// (memory reads/writes) and an OTB transaction host (semantic descriptors).
// `OtbNOrecTx` and `OtbTl2Tx` are the two case-study contexts of §4.2:
//
//   * OTB-NOrec (§4.2.2): the single global lock subsumes the semantic
//     locks, so boosted commits run with use_locks = false, and the NOrec
//     value-based incremental validation is extended to also run
//     validate-without-locks over every attached structure;
//   * OTB-TL2 (§4.2.3): fine-grained orecs mean the semantic locks must be
//     real — boosted operations validate-with-locks after every memory read
//     and every boosted operation, and commit interleaves preCommit /
//     onCommit / postCommit with the orec protocol.
//
// A transaction may freely mix `tx.read(var)` / `tx.write(var, v)` with
// `set.add(tx, k)` — the Algorithm 7 programming model.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "common/attempt_loop.h"
#include "metrics/registry.h"
#include "otb/otb_ds.h"
#include "stm/algs/norec.h"
#include "stm/algs/tl2.h"

namespace otb::integration {

/// Joint base: an STM context that can also host boosted structures.
class OtbTx : public stm::Tx, public tx::TxHost {
 public:
  /// Boosted structures account hint/traversal stats on the STM tally, so
  /// the existing per-attempt flush carries them into the sink.
  OtbTx() { bind_op_tally(&this->stats_); }

  /// Park the descriptors for the context's next transaction.
  void end() override { tx::TxHost::end(); }
};

// ---- OTB-NOrec --------------------------------------------------------------

class OtbNOrecTx final : public stm::NOrecTxT<OtbTx> {
 public:
  explicit OtbNOrecTx(stm::NOrecGlobal& global) : stm::NOrecTxT<OtbTx>(global) {}

  void begin() override {
    pin_epoch();
    stm::NOrecTxT<OtbTx>::begin();
  }

  /// §4.2.2 onOperationValidate: same procedure as onReadAccess — if the
  /// global timestamp has not moved since our snapshot the whole snapshot
  /// is trivially still valid (NOrec's fast path, §2.1.1); otherwise run
  /// the extended value-based validation.
  ///
  /// Interaction with the per-DS commit sequence: NOrec's global seqlock
  /// *subsumes* it — every writer (memory or semantic) commits under the
  /// global lock, so an unchanged global clock already proves no structure
  /// was published into and this check never reaches the per-DS gate.  The
  /// gate still pays off on the slow path below: when the clock moved
  /// because of unrelated *memory* commits, `validate()`'s semantic half
  /// fast-paths per structure instead of rescanning the read-sets.
  void on_operation_validate() override {
    if (global_.clock.load() == snapshot_) return;
    snapshot_ = validate();
  }

  void commit() override {
    if (writes_.empty() && !any_attached_writes()) return;  // read-only
    while (!global_.clock.try_acquire(snapshot_)) {
      this->stats_.lock_cas_failures += 1;
      snapshot_ = validate();
    }
    this->stats_.lock_acquisitions += 1;
    // Semantic locks are pointless under the global lock (§4.2.2): commit
    // with use_locks = false.  pre_commit re-runs commit-time validation.
    // The per-DS commit sequence is still bumped by on_commit/post_commit
    // below (under the global lock), keeping the gate coherent for readers
    // that consult it concurrently.
    if (!pre_commit_attached(/*use_locks=*/false,
                             /*other_writes=*/!writes_.empty())) {
      global_.clock.release();
      throw TxAbort{metrics::AbortReason::kSemanticConflict};
    }
    writes_.publish();
    on_commit_attached();
    post_commit_attached();  // releases the locks on freshly inserted nodes
    global_.clock.release();
  }

  void rollback() override {
    abandon();
    stm::NOrecTxT<OtbTx>::rollback();
  }

 protected:
  /// Extended NOrec validation: memory values *and* semantic read-sets
  /// (validate-without-locks) under one even-timestamp window.
  std::uint64_t validate() override {
    this->stats_.validations += 1;
    Backoff backoff;
    for (;;) {
      const std::uint64_t t = global_.clock.load();
      if ((t & 1) != 0) {
        this->stats_.lock_spins += 1;
        backoff.pause();
        continue;
      }
      if (!reads_.values_match()) {
        throw TxAbort{metrics::AbortReason::kValidation};
      }
      if (!validate_attached(/*check_locks=*/false, &this->stats_.validations_fast,
                             &this->stats_.validations_full)) {
        throw TxAbort{metrics::AbortReason::kSemanticConflict};
      }
      if (global_.clock.load() == t) return t;
    }
  }
};

// ---- OTB-TL2 ----------------------------------------------------------------

class OtbTl2Tx final : public stm::Tl2TxT<OtbTx> {
 public:
  explicit OtbTl2Tx(stm::Tl2Global& global) : stm::Tl2TxT<OtbTx>(global) {}

  void begin() override {
    pin_epoch();
    stm::Tl2TxT<OtbTx>::begin();
  }

  /// §4.2.3 onOperationValidate: semantic validation with lock checks.  We
  /// additionally re-validate the TL2 orec read-set (a linear version
  /// check): the paper deems this unnecessary, but without it a transaction
  /// mixing memory reads (snapshotted at rv) with boosted reads (validated
  /// "now") can observe a memory/semantic state from two different points in
  /// time — see DESIGN.md, "correctness strengthening".
  void on_operation_validate() override {
    if (!validate_reads()) {
      throw TxAbort{metrics::AbortReason::kValidation};
    }
    // Unlike OTB-NOrec there is no global clock subsuming the per-DS commit
    // sequences here — TL2's orecs cover only memory — so the gate is what
    // turns these per-operation (and per-memory-read, below) semantic
    // re-scans into O(1) checks on the quiescent path.
    if (!validate_attached(/*check_locks=*/true, &this->stats_.validations_fast,
                           &this->stats_.validations_full)) {
      throw TxAbort{metrics::AbortReason::kSemanticConflict};
    }
  }

  /// §4.2.3 onReadAccess: ordinary TL2 read plus validate-with-locks over
  /// the attached structures.
  stm::Word read_word(const stm::TWord* addr) override {
    const stm::Word value = stm::Tl2TxT<OtbTx>::read_word(addr);
    if (!attached().empty() &&
        !validate_attached(/*check_locks=*/true, &this->stats_.validations_fast,
                           &this->stats_.validations_full)) {
      throw TxAbort{metrics::AbortReason::kSemanticConflict};
    }
    return value;
  }

  void commit() override {
    if (writes_.empty() && !any_attached_writes()) return;
    lock_write_orecs();  // throws (after self-cleanup) on CAS failure
    // Acquire the semantic locks right after the memory locks (§4.2.3).
    // Memory writes alone still make every read-only structure part
    // re-validate there.
    if (!pre_commit_attached(/*use_locks=*/true,
                             /*other_writes=*/!writes_.empty())) {
      release_locked(/*stamp=*/false, 0);
      throw TxAbort{metrics::AbortReason::kSemanticConflict};
    }
    const std::uint64_t wv =
        global_.clock.fetch_add(1, std::memory_order_acq_rel) + 1;
    // Memory read-set: plain TL2 validation (semantic read-sets were already
    // commit-validated by pre_commit while their locks are held).
    if (wv != rv_ + 1 && !validate_reads()) {
      release_locked(/*stamp=*/false, 0);
      on_abort_attached();
      throw TxAbort{metrics::AbortReason::kValidation};
    }
    writes_.publish();
    on_commit_attached();
    release_locked(/*stamp=*/true, wv);
    post_commit_attached();
  }

  void rollback() override {
    abandon();
    stm::Tl2TxT<OtbTx>::rollback();
  }
};

// ---- integration runtime ----------------------------------------------------

enum class HostAlgo { kOtbNOrec, kOtbTl2 };

constexpr std::string_view to_string(HostAlgo a) {
  return a == HostAlgo::kOtbNOrec ? "OTB-NOrec" : "OTB-TL2";
}

/// Owns the host algorithm's global state and hands out contexts, which
/// the shared attempt loop drives: the "new DEUCE agent" of Fig 4.1.
class Runtime {
 public:
  explicit Runtime(HostAlgo algo, stm::Config cfg = {})
      : algo_(algo), timed_(cfg.collect_timing) {
    sink_ = cfg.metrics != nullptr
                ? cfg.metrics
                : &metrics::Registry::global().sink(
                      std::string("integration.") + std::string(to_string(algo)));
    if (algo == HostAlgo::kOtbNOrec) {
      norec_ = std::make_unique<stm::NOrecGlobal>(cfg);
    } else {
      tl2_ = std::make_unique<stm::Tl2Global>(cfg);
    }
  }

  HostAlgo algo() const { return algo_; }

  /// The sink every context of this runtime reports through.
  metrics::MetricsSink& metrics_sink() const { return *sink_; }

  /// Snapshot of this runtime's accumulated metrics.
  metrics::SinkSnapshot metrics() const { return sink_->snapshot(); }

  /// One context per thread.
  std::unique_ptr<OtbTx> make_tx() {
    if (algo_ == HostAlgo::kOtbNOrec) return std::make_unique<OtbNOrecTx>(*norec_);
    return std::make_unique<OtbTl2Tx>(*tl2_);
  }

  /// Run `fn(tx)` atomically.  Every exit (commit or exception) ends the
  /// context, so its parked descriptors serve its next transaction; a user
  /// exception is rethrown after rollback.  Returns the attempt report for
  /// this call; lifetime totals flow into the metrics sink.
  template <typename Fn>
  metrics::AttemptReport atomically(OtbTx& tx, Fn&& fn) {
    return run_attempts(tx, *sink_, timed_, 0, fn);
  }

 private:
  HostAlgo algo_;
  bool timed_;
  metrics::MetricsSink* sink_ = nullptr;
  std::unique_ptr<stm::NOrecGlobal> norec_;
  std::unique_ptr<stm::Tl2Global> tl2_;
};

}  // namespace otb::integration
