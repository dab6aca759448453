// OTB with a simulated-HTM commit phase (§7.1.1: "OTB can be significantly
// enhanced if the monitored commit part is executed inside HTM blocks
// instead of being executed using software lock-based mechanisms"; the
// traversal stays outside any speculation, as the paper requires).
//
// Simulation model (no TSX on this host — DESIGN.md substitution): the
// hardware commit is a *lock-elision* window on a global commit clock —
//   * the fast path takes the window, commit-validates the semantic
//     read-sets and publishes WITHOUT acquiring any per-node semantic lock
//     (that is the saving hardware transactions buy);
//   * capacity (total deferred writes) and simulated spurious aborts send
//     the transaction to the software fallback, which commits with the
//     ordinary fine-grained semantic 2PL — under the same window, so the
//     two paths compose;
//   * readers subscribe to the commit clock during post-validation, which
//     models hardware transactions being killed by a committer's cache-line
//     invalidations.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/attempt_loop.h"
#include "common/rng.h"
#include "common/spinlock.h"
#include "common/tx_abort.h"
#include "metrics/registry.h"
#include "metrics/sink.h"
#include "otb/otb_ds.h"

namespace otb::tx {

/// Fine-grained fast-path/fallback accounting specific to the HTM-commit
/// protocol (internal hardware retries are not attempt aborts, so they live
/// here rather than in the sink's abort taxonomy).
struct HtmCommitStats {
  std::atomic<std::uint64_t> htm_commits{0};
  std::atomic<std::uint64_t> fallback_commits{0};
  std::atomic<std::uint64_t> htm_aborts{0};
};

class HtmCommitRuntime {
 public:
  /// Maximum deferred writes the simulated hardware buffer holds.
  static constexpr std::size_t kWriteCapacity = 16;
  static constexpr unsigned kHtmRetries = 4;
  static constexpr std::uint64_t kSpuriousPeriod = 10000;

  class Transaction final : public TxHost {
   public:
    Transaction() { bind_op_tally(&tally_); }  // hint/traversal stats land here

    /// Start a transaction that commits through `rt`.
    void start(HtmCommitRuntime& rt) { rt_ = &rt; }

    /// Arm the next attempt (the attempt loop reuses one instance and
    /// parks its descriptors across attempts).
    void begin() {
      tally_ = metrics::TxTally{};
      pin_epoch();
    }

    /// Post-validation subscribes to the commit clock: a fast-path commit
    /// takes no semantic locks, so the clock is the only way a reader can
    /// notice it (the cache-invalidation analogue).  The per-DS commit
    /// sequence gates the semantic scan the same way it does in the
    /// standalone runtime.
    void on_operation_validate() override {
      for (;;) {
        const std::uint64_t s = rt_->clock_.wait_even();
        if (!validate_attached(/*check_locks=*/true, &tally_.validations_fast,
                               &tally_.validations_full)) {
          throw TxAbort{metrics::AbortReason::kSemanticConflict};
        }
        if (rt_->clock_.load() == s) return;
      }
    }

    void commit() {
      if (!any_attached_writes()) return;  // read-only
      // --- hardware attempts -------------------------------------------
      if (attached_write_count() <= kWriteCapacity) {
        for (unsigned attempt = 0; attempt < kHtmRetries; ++attempt) {
          if (spurious_due()) {
            rt_->stats_.htm_aborts.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          const std::uint64_t even = rt_->clock_.load();
          if ((even & 1) != 0 || !rt_->clock_.try_acquire(even)) {
            rt_->stats_.htm_aborts.fetch_add(1, std::memory_order_relaxed);
            continue;  // busy window = immediate conflict abort
          }
          // Inside the "hardware" window: no semantic locks (use_locks =
          // false).  Every committer — fast path or fallback — holds this
          // window, so commit-validation runs against quiescent state.
          // (Structures driven by this runtime must not simultaneously be
          // committed through the plain tx::atomically runtime.)
          if (!pre_commit_attached(/*use_locks=*/false)) {
            rt_->clock_.release();
            throw TxAbort{metrics::AbortReason::kSemanticConflict};
          }
          on_commit_attached();
          post_commit_attached();
          rt_->clock_.release();
          rt_->stats_.htm_commits.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
      // --- software fallback: fine-grained semantic 2PL under the same
      // window (the paper's lock-based commit). ---------------------------
      std::uint64_t even = rt_->clock_.wait_even();
      while (!rt_->clock_.try_acquire(even)) even = rt_->clock_.wait_even();
      if (!pre_commit_attached(/*use_locks=*/true)) {
        rt_->clock_.release();
        throw TxAbort{metrics::AbortReason::kSemanticConflict};
      }
      on_commit_attached();
      post_commit_attached();
      rt_->clock_.release();
      rt_->stats_.fallback_commits.fetch_add(1, std::memory_order_relaxed);
    }

    /// Undo a failed attempt and park its descriptors for the retry.
    void rollback() { abandon(); }

    /// This attempt's accounting (begin() clears it).
    metrics::TxTally& tally() { return tally_; }
    metrics::TxTally& attempt_tally() { return tally_; }

   private:
    bool spurious_due() {
      thread_local Xorshift rng{0xbeef ^ reinterpret_cast<std::uintptr_t>(this)};
      return rng.next_bounded(kSpuriousPeriod) == 0;
    }

    HtmCommitRuntime* rt_ = nullptr;
    metrics::TxTally tally_;
  };

  explicit HtmCommitRuntime(metrics::MetricsSink* sink = nullptr)
      : sink_(sink != nullptr
                  ? sink
                  : &metrics::Registry::global().sink("otb.htm_commit")) {}

  /// Run `fn(tx)` atomically with the HTM-commit protocol, on the calling
  /// thread's host (a call nested on the same thread runs on a host of its
  /// own), which every exit leaves ready for the next transaction.  Returns
  /// the attempt report for this call; totals flow into the metrics sink.
  template <typename Fn>
  metrics::AttemptReport atomically(Fn&& fn) {
    return on_thread_host(thread_host(), [&](Transaction& tx) {
      tx.start(*this);
      return run_attempts(tx, *sink_, /*timed=*/false, 0, fn);
    });
  }

  const HtmCommitStats& stats() const { return stats_; }
  metrics::SinkSnapshot metrics() const { return sink_->snapshot(); }

 private:
  friend class Transaction;

  /// The calling thread's host.  A non-template accessor, so every block
  /// type and every runtime share one host per thread.
  static ThreadHost<Transaction>& thread_host() {
    thread_local ThreadHost<Transaction> slot;
    return slot;
  }

  SeqLock clock_;
  HtmCommitStats stats_;
  metrics::MetricsSink* sink_;
};

}  // namespace otb::tx
