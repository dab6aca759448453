// Standalone OTB transaction runtime (Chapter 3).
//
// Drives transactions that touch only boosted data structures through the
// shared attempt loop on a reused `Transaction` host (one per thread for
// `atomically(fn)`), with the commit protocol
//   pre_commit (semantic 2PL + commit-time validation)
//   on_commit  (publish semantic write-sets)
//   post_commit(release locks)
// Aborts are signalled with TxAbort and retried with bounded, jittered
// backoff.  Accounting flows through otb::metrics: every attempt is flushed
// into the module's `MetricsSink` (domain "otb.tx" by default, injectable
// for tests), with per-reason abort attribution and — when
// `set_collect_timing(true)` — per-phase latency histograms.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/attempt_loop.h"
#include "common/platform.h"
#include "common/tx_abort.h"
#include "metrics/registry.h"
#include "metrics/sink.h"
#include "otb/otb_ds.h"

namespace otb::tx {

// ---- metrics wiring --------------------------------------------------------

namespace detail {
inline metrics::MetricsSink*& sink_slot() {
  static metrics::MetricsSink* sink = &metrics::Registry::global().sink("otb.tx");
  return sink;
}
inline std::atomic<bool>& timing_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}
}  // namespace detail

/// The sink standalone OTB transactions report through ("otb.tx" in the
/// global registry unless overridden).
inline metrics::MetricsSink& metrics_sink() { return *detail::sink_slot(); }

/// Inject a sink (tests pass an in-memory instance); null restores the
/// registry default.
inline void set_metrics_sink(metrics::MetricsSink* sink) {
  detail::sink_slot() =
      sink != nullptr ? sink : &metrics::Registry::global().sink("otb.tx");
}

/// Snapshot of the standalone runtime's metrics — the redesigned stats
/// accessor (mirrors `stm::Runtime::metrics()`).
inline metrics::SinkSnapshot metrics_snapshot() { return metrics_sink().snapshot(); }

/// Opt into per-phase wall-clock collection (attempt/validation/commit
/// histograms).  Off by default: two clock reads per validation are not
/// free.
inline void set_collect_timing(bool on) {
  detail::timing_flag().store(on, std::memory_order_relaxed);
}
inline bool collect_timing() {
  return detail::timing_flag().load(std::memory_order_relaxed);
}

// ---- transaction host ------------------------------------------------------

/// A host for transactions over boosted structures only.  The attempt loop
/// reuses one instance across attempts (`rollback()` parks the descriptors
/// for the retry, `begin()` re-arms the per-attempt state) and ends it on
/// every exit (`end()`), so the same instance hosts the next transaction
/// without allocating.
class Transaction final : public TxHost {
 public:
  Transaction() {
    bind_op_tally(&tally_);  // structures account hint/traversal stats here
    pin_epoch();             // for operations run before any atomically
  }

  /// Start a transaction: its validations are timed iff the timing flag is
  /// set now.  Returns that choice, which the attempt loop's timers follow.
  bool start() {
    timed_ = collect_timing();
    return timed_;
  }

  /// Arm the next attempt: fresh per-attempt tally, re-pinned reclamation
  /// epoch (abandon() unpins so other threads can advance during backoff).
  void begin() {
    tally_ = metrics::TxTally{};
    pin_epoch();
  }

  /// Post-validation after every boosted operation: every attached
  /// structure's semantic read-set must still hold, with lock checks
  /// (nothing is locked by us during execution).  The commit-sequence gate
  /// skips the scan for structures no one published into since our last
  /// full validation.
  void on_operation_validate() override {
    tally_.validations += 1;
    const std::uint64_t t0 = timed_ ? now_ns() : 0;
    const bool ok = validate_attached(/*check_locks=*/true,
                                      &tally_.validations_fast,
                                      &tally_.validations_full);
    if (timed_) tally_.ns_validation += now_ns() - t0;
    if (!ok) throw TxAbort{metrics::AbortReason::kSemanticConflict};
  }

  /// Two-phase commit across all attached structures.
  void commit() {
    if (!pre_commit_attached(/*use_locks=*/true)) {
      throw TxAbort{metrics::AbortReason::kSemanticConflict};
    }
    on_commit_attached();
    // The commit hook runs while the semantic locks are still held: a
    // conflicting transaction cannot observe our writes, or reach its own
    // hook, until post_commit below releases them.  The service WAL appends
    // the commit record and draws its stamp here, so conflicting commits
    // log in their serialization order and a group fsync taken before
    // acknowledging a dependent covers our record (docs/DURABILITY.md).
    if (commit_hook_ != nullptr) commit_hook_(commit_hook_arg_);
    post_commit_attached();
  }

  /// Undo a failed attempt: every attached structure releases what it
  /// holds and its descriptor is parked for the retry.
  void rollback() { abandon(); }

  /// This attempt's accounting (begin() clears it, so the tally *is* the
  /// attempt's share the loop flushes).
  metrics::TxTally& tally() { return tally_; }
  metrics::TxTally& attempt_tally() { return tally_; }

  /// Arm a callback invoked inside commit(), before post_commit releases
  /// the semantic locks.  Runs exactly once per successful commit; must not
  /// throw.  (Plain function pointer + context rather than std::function:
  /// this sits on the commit fast path.)
  void set_commit_hook(void (*fn)(void*), void* arg) {
    commit_hook_ = fn;
    commit_hook_arg_ = arg;
  }

 private:
  metrics::TxTally tally_;
  bool timed_ = false;
  void (*commit_hook_)(void*) = nullptr;
  void* commit_hook_arg_ = nullptr;
};

/// Run `fn(tx)` atomically in the caller's transaction `tx` (which carries
/// any commit hook) through the shared attempt loop.  At most
/// `max_attempts` attempts run (0 = unbounded); a report with no commit
/// means the bound was spent.  Returns the attempt report for this call;
/// lifetime totals (including the attempt count) flow into the metrics
/// sink.
///
/// One Transaction serves every attempt: retries reuse the parked
/// descriptors instead of re-allocating them (the zero-allocation retry
/// path).  Every exit (commit, spent budget or exception) ends `tx`, so it
/// is ready for the caller's next transaction.  Exceptions other than
/// TxAbort still roll the attempt back before propagating — without that, a
/// throwing `fn` (or an exception escaping a structure operation) would
/// leak semantic locks and the heap PQ's eager effects.
template <typename Fn>
metrics::AttemptReport atomically(Transaction& tx, unsigned max_attempts,
                                  Fn&& fn) {
  return run_attempts(tx, metrics_sink(), tx.start(), max_attempts, fn);
}

namespace detail {
/// The calling thread's host for atomically(fn).  A non-template accessor,
/// so every block type shares one host.
inline ThreadHost<Transaction>& thread_host() {
  thread_local ThreadHost<Transaction> slot;
  return slot;
}
}  // namespace detail

/// Run `fn(tx)` atomically on the calling thread's host, retrying until it
/// commits.  A call nested in another on the same thread runs on a host of
/// its own.
template <typename Fn>
metrics::AttemptReport atomically(Fn&& fn) {
  return on_thread_host(detail::thread_host(), [&](Transaction& tx) {
    return atomically(tx, 0, static_cast<Fn&&>(fn));
  });
}

/// Run `fn(snap)` as an abort-free multi-version snapshot read (ISSUE 8).
///
/// The callback receives a SnapshotTx and must route every read through the
/// structures' `*_at` entry points (`contains_at`, `get_at`, `range_at`,
/// `min_at`).  There is no validation, no commit protocol, and no abort
/// channel: the snapshot is consistent by construction (stamps are drawn
/// only at quiescent clock instants, and each read resolves as of the drawn
/// stamp: through the version chains, or over the current links while no
/// publication has begun since the stamp — DESIGN.md "Multi-version
/// snapshot reads").
///
/// Returns true on success (counted as kMvSnapshotReads, chain-depth
/// samples, if any chain was resolved, flushed into the sink's mv_chain_len
/// series).  Returns false —
/// counted once as kMvVersionMisses — when a needed version has been
/// evicted from a bounded chain (SnapshotMiss, including the
/// OTB_MV_VERSIONS=0 case where nodes carry no chains) or when clock draws
/// kept failing under publication churn (SnapshotRetry, bounded attempts).
/// On false the caller should fall back to the validated path
/// (`atomically`); `fn` must therefore be repeatable and side-effect-free
/// until it returns.
template <typename Fn>
bool snapshot_read(metrics::MetricsSink& sink, Fn&& fn) {
  static constexpr int kAttempts = 8;
  if (mv_versions() != 0) {
    for (int attempt = 0; attempt < kAttempts; ++attempt) {
      try {
        SnapshotTx snap;
        fn(snap);
        // A finished snapshot's every resolve found its entry (depth >= 1),
        // so a zero total means it resolved no chain: nothing to merge.
        if (snap.chain_depth_total() != 0) {
          sink.record_mv_chain_slice(snap.chain_depth_total(),
                                     snap.chain_depth_buckets());
        }
        sink.add(metrics::CounterId::kMvSnapshotReads);
        return true;
      } catch (const SnapshotRetry&) {
        cpu_relax();
        continue;  // clock draw raced a publication window; redraw
      } catch (const SnapshotMiss&) {
        break;  // version evicted: only the validated path can serve this
      }
    }
  }
  sink.add(metrics::CounterId::kMvVersionMisses);
  return false;
}

/// Convenience overload against the runtime's injected sink ("otb.tx").
template <typename Fn>
bool snapshot_read(Fn&& fn) {
  return snapshot_read(metrics_sink(), static_cast<Fn&&>(fn));
}

}  // namespace otb::tx
