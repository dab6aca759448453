// Fully-optimistic OTB skip-list priority queue (§3.2.2, Algorithm 6).
//
// Wraps an internal OTB skip-list set: add/removeMin are deferred set
// operations, a per-transaction *local* sequential heap covers
// read-after-write (removing a minimum this transaction added), and the
// thread-local `last_removed` cursor walks the bottom level so repeated
// removeMin calls in one transaction pick successive shared minima without
// physically changing the list before commit.  No locks are taken until
// commit; min() is wait-free, unlike pessimistic boosting where it blocks
// on the global abstract write-lock.
#pragma once

#include <cstdint>

#include "cds/binary_heap.h"
#include "otb/otb_ds.h"
#include "otb/otb_skiplist_set.h"

namespace otb::tx {

class OtbSkipListPQ final : public OtbDs {
 public:
  using Key = OtbSkipListSet::Key;

  // ---- transactional operations -----------------------------------------

  /// Insert a key (keys are unique, as in the paper's implementation);
  /// false when already present.
  bool add(TxHost& tx, Key key) {
    Desc& desc = this->desc(tx);
    if (!set_.add_op(tx, *desc.set, key)) return false;
    desc.local.add(key);
    return true;
  }

  /// Remove the minimum; false when the queue is observably empty.
  bool remove_min(TxHost& tx, Key* out) {
    Desc& desc = this->desc(tx);
    const auto shared = set_.next_ref(desc.last_removed);
    const bool shared_empty = set_.is_tail(shared);
    const Key shared_key = shared_empty ? 0 : set_.key_of(shared);
    const bool local_wins =
        !desc.local.empty() && (shared_empty || desc.local.min() < shared_key);
    if (!local_wins && shared_empty) return false;

    // Every pop pins the link from the cursor to the shared minimum (or to
    // the tail), so a concurrent insert in front of it or a remove of it
    // aborts us, and locks the cursor at commit, so an insert behind the
    // cursor commits after us.  Commit order — the order the service WAL
    // replays pops in — then never puts a smaller key in front of a pop.
    // A pop's own remove cannot carry this: a popped key pushed back, or a
    // popped local key, leaves no write to lock, and a transaction without
    // shared writes skips commit-time validation.
    set_.pin_next_op(*desc.set, desc.last_removed, shared);

    if (local_wins) {
      // Algorithm 6 pops the local heap; routing through the set eliminates
      // the pending add so commit publishes nothing for this key.
      const Key local_min = desc.local.min();
      if (!set_.remove_op(tx, *desc.set, local_min)) throw TxAbort{metrics::AbortReason::kSemanticConflict};
      tx.on_operation_validate();
      desc.local.remove_min();
      *out = local_min;
      return true;
    }

    if (!set_.remove_op(tx, *desc.set, shared_key)) throw TxAbort{metrics::AbortReason::kSemanticConflict};
    if (set_.next_ref(desc.last_removed) != shared) throw TxAbort{metrics::AbortReason::kSemanticConflict};
    desc.last_removed = shared;
    *out = shared_key;
    return true;
  }

  /// Read the minimum without removing it — wait-free, no locks (the key
  /// OTB advantage the paper highlights for getMin).
  bool min(TxHost& tx, Key* out) {
    Desc& desc = this->desc(tx);
    const auto shared = set_.next_ref(desc.last_removed);
    const bool shared_empty = set_.is_tail(shared);
    const Key shared_key = shared_empty ? 0 : set_.key_of(shared);

    if (!desc.local.empty() && (shared_empty || desc.local.min() < shared_key)) {
      if (!shared_empty) {
        if (!set_.contains_op(tx, *desc.set, shared_key)) throw TxAbort{metrics::AbortReason::kSemanticConflict};
        if (set_.next_ref(desc.last_removed) != shared) throw TxAbort{metrics::AbortReason::kSemanticConflict};
      }
      *out = desc.local.min();
      return true;
    }
    if (shared_empty) return false;
    if (!set_.contains_op(tx, *desc.set, shared_key)) throw TxAbort{metrics::AbortReason::kSemanticConflict};
    if (set_.next_ref(desc.last_removed) != shared) throw TxAbort{metrics::AbortReason::kSemanticConflict};
    *out = shared_key;
    return true;
  }

  // ---- snapshot (multi-version) reads -------------------------------------

  /// Minimum as of the snapshot's stamp — the abort-free counterpart of
  /// min().  Draws the stamp from *this* structure's clock (the one hosts
  /// bracket commits with) and reads the nested set's bottom level as of it.
  bool min_at(SnapshotTx& snap, Key* out) const {
    const std::uint64_t t = snap.stamp_for(commit_seq());
    return set_.first_at(snap, t, out);
  }

  bool supports_snapshot_reads() const override { return true; }

  bool add_seq(Key key) { return set_.add_seq(key); }
  std::size_t size_unsafe() const { return set_.size_unsafe(); }

  /// Quiescent-only ascending copy of the live keys (checkpoint path).
  std::vector<Key> snapshot_unsafe() const { return set_.snapshot_unsafe(); }

  // ---- OTB-DS protocol: delegate to the nested set descriptor -------------

  std::unique_ptr<OtbDsDesc> make_desc() const override {
    auto d = std::make_unique<Desc>();
    d->set = std::make_unique<OtbSkipListSet::Desc>();
    d->head = set_.head_ref();
    d->last_removed = d->head;
    return d;
  }

  bool validate(const OtbDsDesc& base, bool check_locks) const override {
    return set_.validate_desc(*static_cast<const Desc&>(base).set, check_locks);
  }
  bool pre_commit(OtbDsDesc& base, bool use_locks) override {
    return set_.pre_commit_desc(*static_cast<Desc&>(base).set, use_locks);
  }
  // The nested set is bracketed by *this* structure's commit sequence (the
  // PQ is the OtbDs hosts see), so delegation targets the set's unwrapped
  // `*_desc` protocol.
  void do_on_commit(OtbDsDesc& base) override {
    Desc& d = static_cast<Desc&>(base);
    // Forward the commit stamp (assigned on *this* structure's clock by the
    // on_commit wrapper) into the nested set desc so its version pushes are
    // stamped correctly, and roll the eviction tally back up.
    d.set->mv_stamp = d.mv_stamp;
    set_.on_commit_desc(*d.set);
    d.mv_reclaimed += d.set->mv_reclaimed;
    d.set->mv_reclaimed = 0;
  }
  void do_post_commit(OtbDsDesc& base) override {
    set_.post_commit_desc(*static_cast<Desc&>(base).set);
  }
  void do_on_abort(OtbDsDesc& base) override {
    set_.on_abort_desc(*static_cast<Desc&>(base).set);
  }
  bool has_writes(const OtbDsDesc& base) const override {
    return set_.has_writes(*static_cast<const Desc&>(base).set);
  }

 private:
  struct Desc final : OtbDsDesc {
    std::unique_ptr<OtbSkipListSet::Desc> set;
    cds::BinaryHeap local;  // read-after-write: minima this tx added
    OtbSkipListSet::NodeRef last_removed;
    OtbSkipListSet::NodeRef head;  // saved so reset() can rewind the cursor

    void reset() override {
      set->reset();
      local.clear();
      last_removed = head;
      OtbDsDesc::reset();
    }
  };

  Desc& desc(TxHost& tx) { return static_cast<Desc&>(tx.descriptor(*this)); }

  OtbSkipListSet set_;
};

}  // namespace otb::tx
