// The OTB data-structure interface (DESIGN.md item #23's "OTB-DS").
//
// Every optimistically boosted structure exposes the five sub-routines the
// paper's framework extension defines (§4.1.2): validation with and without
// semantic-lock checks, and the preCommit / onCommit / postCommit commit
// protocol (plus onAbort).  A structure keeps **no** per-transaction state
// of its own; all semantic read/write sets live in a per-transaction
// descriptor owned by the hosting transaction (`TxHost`), which may be the
// standalone OTB runtime (§3) or an OTB-aware STM context (§4).
//
// Two hot-path mechanisms live at this layer (DESIGN.md "Commit-sequence
// fast path"):
//   * every structure carries a cache-line-aligned `CommitSeq`; the
//     non-virtual on_commit/post_commit wrappers bracket publication with
//     it, and `validate_gated()` lets hosts skip the O(read-set) semantic
//     re-scan entirely when no publication happened since the descriptor's
//     last successful full validation (snapshot extension preserves
//     opacity);
//   * descriptors are poolable: `OtbDsDesc::reset()` returns one to its
//     freshly-made state so `TxHost` can park it, keyed by the structure's
//     never-reused id, for the next attempt or transaction instead of
//     re-running `make_desc()` (zero-allocation retries and warm hosts).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/commit_seq.h"
#include "common/epoch.h"
#include "common/tx_abort.h"
#include "metrics/tally.h"
#include "otb/mv.h"

namespace otb::tx {

// ---- validation fast-path knob ---------------------------------------------

namespace detail {
inline std::atomic<bool>& fast_path_flag() {
  static std::atomic<bool> flag{[] {
    // Env knob for whole-binary forcing (stress/CI); the programmatic
    // setter below covers in-process toggling.
    const char* env = std::getenv("OTB_VALIDATION_FAST_PATH");
    return !(env != nullptr && (env[0] == '0' || env[0] == 'n' || env[0] == 'N' ||
                                env[0] == 'f' || env[0] == 'F'));
  }()};
  return flag;
}
}  // namespace detail

/// Whether `validate_gated` may skip the semantic re-scan when the commit
/// sequence is unchanged.  On by default; `OTB_VALIDATION_FAST_PATH=0`
/// disables it for a whole run.
inline bool validation_fast_path_enabled() {
  return detail::fast_path_flag().load(std::memory_order_relaxed);
}

/// Programmatic override (tests exercise both settings in one process).
inline void set_validation_fast_path(bool on) {
  detail::fast_path_flag().store(on, std::memory_order_relaxed);
}

// ---- descriptors ------------------------------------------------------------

/// Base class of per-transaction, per-structure descriptors (semantic
/// read-set + semantic write-set/redo-log).
struct OtbDsDesc {
  virtual ~OtbDsDesc() = default;

  /// Return the descriptor to its freshly-`make_desc()`'d state so the host
  /// can reuse it for the next attempt.  Overrides must call the base.
  virtual void reset() {
    seq_snapshot = CommitSeq::kNoSnapshot;
    publishing = false;
    mv_stamp = 0;
    mv_reclaimed = 0;
  }

  /// Like reset(), for the host's next *transaction* rather than the next
  /// attempt of this one: also drops what only a retry may inherit (the
  /// list map's level-1 traversal hints).
  virtual void reset_for_next() { reset(); }

  /// Commit-sequence begin-count at this descriptor's last successful full
  /// validation of the owning structure (while quiescent and stable).
  std::uint64_t seq_snapshot = CommitSeq::kNoSnapshot;

  /// Set between the owning structure's on_commit/post_commit wrappers while
  /// this transaction's publication window is open.
  bool publishing = false;

  /// Counted among the owning structure's lockers (OtbDs::enter_locked):
  /// from the end of a successful lock phase to the unlock.
  bool counted_locker = false;

  /// Commit stamp of this transaction's publication into the owning
  /// structure (the publish_begin return value) — the timestamp do_on_commit
  /// pushes into version chains.  0 outside the publication window.
  std::uint64_t mv_stamp = 0;

  /// Ring evictions this publication caused (versions "reclaimed" out of
  /// chains); the host flushes it into kMvVersionsReclaimed.
  std::uint64_t mv_reclaimed = 0;
};

/// Result of a gated validation — hosts count kFast/kFull separately
/// (metrics `kValidationsFast` / `kValidationsFull`).
enum class ValidateOutcome : std::uint8_t { kFailed, kFast, kFull };

/// Interface every boosted data structure implements so a transaction host
/// can drive its validation/commit protocol generically.
class OtbDs {
 public:
  virtual ~OtbDs() = default;

  /// Fresh, empty descriptor for a new transaction.
  virtual std::unique_ptr<OtbDsDesc> make_desc() const = 0;

  /// Semantic validation of the descriptor's read-set.  With
  /// `check_locks` the semantic locks are snapshotted before and re-checked
  /// after (post-validation during execution); without, only values are
  /// checked (commit-time validation while the locks are held, or hosts
  /// whose global lock subsumes semantic locks — OTB-NOrec, §4.2.2).
  virtual bool validate(const OtbDsDesc& desc, bool check_locks) const = 0;

  /// Commit-sequence-gated validation: when no publication started since
  /// this descriptor's last successful full validation, the read-set is
  /// untouched and the scan is skipped (kFast — a single acquire load).
  /// Otherwise the full scan runs, and on success the snapshot is extended
  /// iff the structure was quiescent and stable across the scan — the
  /// TL2/NOrec revalidate-and-extend argument: a successful full validation
  /// over state frozen at begin-count B proves the whole transaction could
  /// have run against that state, so B is a sound new snapshot.
  ValidateOutcome validate_gated(OtbDsDesc& desc, bool check_locks) const {
    // end_ before begin_: begin == end then proves every publication that
    // had begun by the (later) begin_ load had already ended by the end_
    // load — i.e. the structure was quiescent at some point before the scan.
    const std::uint64_t end = seq_.end_count();
    const std::uint64_t begin = seq_.begin_count();
    if (begin == desc.seq_snapshot && validation_fast_path_enabled()) {
      return ValidateOutcome::kFast;
    }
    if (!validate(desc, check_locks)) return ValidateOutcome::kFailed;
    // Extend only if no publication was in flight before the scan and none
    // began during it; an unstable window just means "no extension", never
    // a spin — the next operation revalidates again.
    if (begin == end && seq_.begin_count() == begin) desc.seq_snapshot = begin;
    return ValidateOutcome::kFull;
  }

  /// Acquire semantic locks (when `use_locks`) and run commit-time
  /// validation.  Returns false on failure; the caller must then invoke
  /// on_abort() on every attached structure.
  virtual bool pre_commit(OtbDsDesc& desc, bool use_locks) = 0;

  /// Publish the semantic write-set to the shared structure.  Non-virtual:
  /// opens the commit-sequence publication window around the structure's
  /// `do_on_commit` when there is anything to publish.
  void on_commit(OtbDsDesc& desc) {
    if (has_writes(desc)) {
      desc.mv_stamp = seq_.publish_begin();
      desc.publishing = true;
    }
    do_on_commit(desc);
  }

  /// Release semantic locks acquired by pre_commit and close the
  /// publication window.
  void post_commit(OtbDsDesc& desc) {
    do_post_commit(desc);
    if (desc.publishing) {
      desc.publishing = false;
      seq_.publish_end();
    }
  }

  /// Release any locks still held after a failed pre_commit / host abort.
  /// Also closes the publication window defensively — no host currently
  /// aborts between on_commit and post_commit, but a leaked open window
  /// would wedge the fast path's quiescence test forever.
  void on_abort(OtbDsDesc& desc) {
    do_on_abort(desc);
    if (desc.publishing) {
      desc.publishing = false;
      seq_.publish_end();
    }
  }

  /// Whether the descriptor carries deferred writes — hosts use this to keep
  /// read-only transactions on their lock-free commit path.
  virtual bool has_writes(const OtbDsDesc& desc) const = 0;

  /// Number of deferred write operations (used by the simulated-HTM commit
  /// path to model capacity limits).
  virtual std::size_t write_count(const OtbDsDesc& desc) const {
    return has_writes(desc) ? 1 : 0;
  }

  /// Whether the structure offers the multi-version snapshot-read path
  /// (`*_at(SnapshotTx&, ...)` operations).  Structures with eager effects
  /// under a global lock (the array heap PQ) cannot, so read-only scripts
  /// touching them stay on the validated path.
  virtual bool supports_snapshot_reads() const { return false; }

  /// This structure's commit sequence (tests assert on its movement).
  const CommitSeq& commit_seq() const { return seq_; }

  /// Process-unique id keying this structure in the cross-transaction
  /// predecessor cache (`PredCache`) and in every host's parked
  /// descriptors.  Ids are never reused, so neither can alias a different
  /// structure reincarnated at the same address — destroying a structure
  /// implicitly orphans its entries.
  std::uint64_t hint_owner_id() const { return hint_id_; }

  /// The same id doubles as the structure's rank in the GLOBAL cross-
  /// structure lock-acquisition order: a host that pre-commits multiple
  /// structures does so in ascending structure_id(), and each structure's
  /// own pre_commit locks its keys in one fixed order (the list structures
  /// use descending key order — their on_commit publication walk requires
  /// higher keys first), so the combined (structure id, key-order) is total
  /// across the process (DESIGN.md "Cross-structure lock order").  Locks
  /// are try-acquired with abort-and-retry, so the order matters for
  /// livelock avoidance, not deadlock freedom.
  std::uint64_t structure_id() const { return hint_id_; }

 protected:
  virtual void do_on_commit(OtbDsDesc& desc) = 0;
  virtual void do_post_commit(OtbDsDesc& desc) = 0;
  virtual void do_on_abort(OtbDsDesc& desc) = 0;

  /// Commit-time validation must fail on a read entry whose node another
  /// committer holds locked but has not published yet, or two writers that
  /// each read what the other writes both commit (write skew; DESIGN.md
  /// "Correctness strengthening").  A committer calls this once it holds
  /// all its locks, and lock-checks its reads only on true: another is
  /// counted (CommitSeq::enter_locked).  Every change to the count is an
  /// acq_rel RMW, so of two overlapping committers the later to enter sees
  /// the earlier's locks, or its decrement and, before that, its unlock
  /// and writes.
  bool enter_locked(OtbDsDesc& desc) {
    desc.counted_locker = true;
    return seq_.enter_locked();
  }

  /// After the unlock (post_commit or abort).
  void leave_locked(OtbDsDesc& desc) {
    if (!desc.counted_locker) return;
    desc.counted_locker = false;
    seq_.leave_locked();
  }

 private:
  static std::uint64_t next_hint_owner_id() {
    static std::atomic<std::uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }

  CommitSeq seq_;
  const std::uint64_t hint_id_ = next_hint_owner_id();
};

// ---- transaction host -------------------------------------------------------

/// A transaction host: owns the per-structure descriptors and decides how
/// operation post-validation composes with its own state (memory read-sets
/// for STM hosts, nothing extra for the standalone runtime).  Every host
/// runs any number of transactions and parks its descriptors between them
/// keyed by the never-reused OtbDs::structure_id(), so a structure rebuilt
/// at a destroyed one's address gets a fresh descriptor, and a host may
/// outlive every structure it attached (DESIGN.md "One host lifetime").
class TxHost {
 public:
  /// Parked descriptors kept, the oldest evicted first: one per structure a
  /// service names (service::Targets), so a worker's host never evicts.
  static constexpr std::size_t kMaxParked = 16;

  virtual ~TxHost() = default;

  /// Descriptor for `ds`, attaching the structure on first use (§4.1.2
  /// "attachSet"), from the pool when an earlier attempt or transaction
  /// parked one for it, so a warm host attaches without allocating.
  ///
  /// Both lookups are deliberate linear scans: transactions attach a
  /// handful of structures (the paper's workloads use one or two), and the
  /// pool holds at most kMaxParked entries.
  OtbDsDesc& descriptor(OtbDs& ds) {
    for (auto& [attached, desc] : attached_) {
      if (attached == &ds) return *desc;
    }
    for (auto it = pool_.begin(); it != pool_.end(); ++it) {
      if (it->first == ds.structure_id()) {
        attached_.emplace_back(&ds, std::move(it->second));
        pool_.erase(it);
        return *attached_.back().second;
      }
    }
    attached_.emplace_back(&ds, ds.make_desc());
    return *attached_.back().second;
  }

  /// Post-validation hook run after every boosted operation (§4.1.2
  /// "onOperationValidate").  Throws TxAbort on failure.
  virtual void on_operation_validate() = 0;

  /// Tally structures account per-operation instrumentation into
  /// (traversal lengths, hint hits/misses).  Hosts bind their attempt tally
  /// via bind_op_tally(); an unbound host falls back to a thread-local
  /// scratch that is never flushed, so structure code can tick
  /// unconditionally.
  metrics::TxTally& op_tally() {
    if (op_tally_ != nullptr) return *op_tally_;
    thread_local metrics::TxTally scratch;
    return scratch;
  }

  const std::vector<std::pair<OtbDs*, std::unique_ptr<OtbDsDesc>>>& attached() const {
    return attached_;
  }

  /// Descriptors parked for the next attempt or transaction.
  std::size_t parked() const { return pool_.size(); }

  /// Failed attempt: every attached structure rolls back what it still
  /// holds (on_abort is idempotent), its descriptor is reset and parked for
  /// the retry, and the reclamation epoch is unpinned for the backoff.
  void abandon() {
    on_abort_attached();
    for (auto& [ds, desc] : attached_) {
      desc->reset();
      park(*ds, std::move(desc));
    }
    attached_.clear();
    epoch_.reset();
  }

  /// End of a transaction, committed or not, leaving the host ready for
  /// its next one: every descriptor, attached or parked by an aborted
  /// attempt, is reset for a new transaction (OtbDsDesc::reset_for_next)
  /// and parked with its capacity, and the reclamation epoch is unpinned.
  void end() {
    for (auto& [ds, desc] : attached_) park(*ds, std::move(desc));
    attached_.clear();
    for (auto& [id, desc] : pool_) desc->reset_for_next();
    epoch_.reset();
  }

 protected:
  void bind_op_tally(metrics::TxTally* tally) { op_tally_ = tally; }

  /// Pin the reclamation epoch for an attempt: semantic read-set entries
  /// hold raw node pointers that other transactions may retire.
  void pin_epoch() {
    if (!epoch_.has_value()) epoch_.emplace();
  }

  /// Validate every attached structure through the commit-sequence gate
  /// (helper for hosts).  `fast`/`full`, when given, accumulate per-
  /// structure fast-path hits and full scans for the host's tally.
  bool validate_attached(bool check_locks, std::uint64_t* fast = nullptr,
                         std::uint64_t* full = nullptr) {
    for (auto& [ds, desc] : attached_) {
      switch (ds->validate_gated(*desc, check_locks)) {
        case ValidateOutcome::kFailed:
          return false;
        case ValidateOutcome::kFast:
          if (fast != nullptr) ++*fast;
          break;
        case ValidateOutcome::kFull:
          if (full != nullptr) ++*full;
          break;
      }
    }
    return true;
  }

  /// pre_commit every structure; on failure, roll back the ones already
  /// locked and report false.
  ///
  /// Structures are visited in ascending structure_id() — combined with the
  /// per-structure ascending-key lock order inside each pre_commit, every
  /// transaction in the process acquires semantic locks along one total
  /// (structure id, key) order.  pre_commit lock grabs are try_lock
  /// (fail -> abort, never block), so this is not needed for deadlock
  /// freedom; it makes the failure point deterministic and keeps two
  /// multi-structure writers from repeatedly aborting each other from
  /// opposite ends (the same livelock argument as the PR 5 batch key sort,
  /// now lifted across heterogeneous structures — DESIGN.md
  /// "Cross-structure lock order").
  ///
  /// A structure's pre_commit validates only a descriptor with writes.  So
  /// once the writers are locked and validated, a transaction that writes
  /// anything (`other_writes`: writes outside the attached structures, an
  /// STM host's memory write-set) validates every descriptor it only read
  /// too; else a read-only part could commit stale (DESIGN.md "Correctness
  /// strengthening").  With semantic locks that check includes their
  /// locks, which a committer holds before it publishes, and so runs the
  /// full scan: the gate's fast path sees publications only.  A fully
  /// read-only transaction validates nothing here.
  bool pre_commit_attached(bool use_locks, bool other_writes = false) {
    if (attached_.size() > 1) {
      std::sort(attached_.begin(), attached_.end(),
                [](const auto& a, const auto& b) {
                  return a.first->structure_id() < b.first->structure_id();
                });
    }
    bool writes = other_writes;
    for (std::size_t i = 0; i < attached_.size(); ++i) {
      auto& [ds, desc] = attached_[i];
      if (!ds->pre_commit(*desc, use_locks)) {
        for (std::size_t j = 0; j <= i; ++j) {
          attached_[j].first->on_abort(*attached_[j].second);
        }
        return false;
      }
      writes = writes || ds->has_writes(*desc);
    }
    if (!writes) return true;
    for (auto& [ds, desc] : attached_) {
      if (ds->has_writes(*desc)) continue;
      const bool valid = use_locks
                             ? ds->validate(*desc, /*check_locks=*/true)
                             : ds->validate_gated(*desc, /*check_locks=*/false) !=
                                   ValidateOutcome::kFailed;
      if (!valid) {
        on_abort_attached();
        return false;
      }
    }
    return true;
  }

  void on_commit_attached() {
    for (auto& [ds, desc] : attached_) {
      ds->on_commit(*desc);
      if (desc->mv_reclaimed != 0) {
        op_tally().mv_versions_reclaimed += desc->mv_reclaimed;
        desc->mv_reclaimed = 0;
      }
    }
  }

  void post_commit_attached() {
    for (auto& [ds, desc] : attached_) ds->post_commit(*desc);
  }

  void on_abort_attached() {
    for (auto& [ds, desc] : attached_) ds->on_abort(*desc);
  }

  bool any_attached_writes() const {
    for (const auto& [ds, desc] : attached_) {
      if (ds->has_writes(*desc)) return true;
    }
    return false;
  }

  std::size_t attached_write_count() const {
    std::size_t n = 0;
    for (const auto& [ds, desc] : attached_) n += ds->write_count(*desc);
    return n;
  }

  std::vector<std::pair<OtbDs*, std::unique_ptr<OtbDsDesc>>> attached_;

 private:
  void park(const OtbDs& ds, std::unique_ptr<OtbDsDesc> desc) {
    if (pool_.size() == kMaxParked) pool_.erase(pool_.begin());
    pool_.emplace_back(ds.structure_id(), std::move(desc));
  }

  std::vector<std::pair<std::uint64_t, std::unique_ptr<OtbDsDesc>>> pool_;
  std::optional<ebr::Guard> epoch_;
  metrics::TxTally* op_tally_ = nullptr;
};

/// A runtime's host for one thread, which its atomically(fn) reuses for
/// every transaction; `busy` while a block runs on it.
template <typename Host>
struct ThreadHost {
  Host host;
  bool busy = false;
};

/// `run(host)` on `slot`'s host, or on a host of its own when a block
/// already runs on the slot (an atomically(fn) nested on the same thread).
template <typename Host, typename Run>
metrics::AttemptReport on_thread_host(ThreadHost<Host>& slot, Run&& run) {
  if (slot.busy) {
    Host own;
    return run(own);
  }
  slot.busy = true;
  struct Release {
    bool& busy;
    ~Release() { busy = false; }
  } release{slot.busy};
  return run(slot.host);
}

}  // namespace otb::tx
