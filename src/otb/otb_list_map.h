// OTB lazy linked list: the paper's OTB-Set protocol (§3.2.1, Algorithms
// 1–3) carrying a value per key, which also makes it the OTB map of its
// "More OTB Data Structures" future work (§7.1.2).  OtbListSet
// (otb_list_set.h) is this map with a unit value.
//
// Operations are split into the three OTB steps:
//   1. unmonitored traversal (identical to the lazy list, no logging of
//      traversed nodes — this is what removes STM false conflicts),
//   2. post-validation of the semantic read-set after every operation
//      (opacity), and
//   3. commit: semantic two-phase locking over only the involved nodes,
//      commit-time validation, then publication of the semantic write-set
//      in descending key order (§3.2.1's three commit guidelines, Fig 3.2).
//
// Structure-specific optimisations from the paper:
//   * lookups and unsuccessful insert/erase acquire no locks, ever;
//   * a successful lookup / unsuccessful insert validates only !curr.marked;
//   * insert/erase pairs on the same key eliminate each other locally,
//     leaving their read-set entries behind (isolation is preserved);
//   * inserted nodes stay locked until the whole commit finishes.
//
// Step 1's traversal is additionally seeded by the two-level hint layer
// (traversal_hints.h): the walk may start from a previously validated
// predecessor instead of head_, but everything after the walk — the marked
// checks, read-set logging, and post-validation — is byte-for-byte the
// no-hint protocol, so hints cannot weaken opacity (DESIGN.md, "Traversal
// hints and opacity").
//
// Nodes are immutable (key, value) pairs, so a `put` over an existing key
// is a *node replacement* at commit (unlink the old node, insert a fresh
// one).  That choice keeps the set's validation rules sound unchanged: a
// `get` pins only "this node is still unmarked", and any concurrent value
// change marks the node, invalidating the reader — no per-node version
// counters are needed.
//
// Local write-set state machine per key (at most one entry):
//     put    on Insert  -> Insert (new value)        returns false
//     put    on Replace -> Replace (new value)       returns false
//     put    on Erase   -> Replace                   returns true
//     insert on Insert / Replace -> unchanged        returns false
//     insert on Erase   -> entry eliminated if the erased node holds the
//                          same value, else Replace  returns true
//     erase  on Insert  -> entry eliminated          returns true
//     erase  on Replace -> Erase                     returns true
//     erase  on Erase   -> no-op                     returns false
// (`put` returns true iff the key was absent, insert-or-assign style;
// `insert` is insert-if-absent.)
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/epoch.h"
#include "common/small_vec.h"
#include "common/spinlock.h"
#include "otb/mv.h"
#include "otb/otb_ds.h"
#include "otb/traversal_hints.h"

namespace otb::tx {

class OtbListMap : public OtbDs {
 public:
  using Key = std::int64_t;
  using Value = std::int64_t;

  OtbListMap() {
    head_ = new Node(std::numeric_limits<Key>::min(), 0);
    tail_ = new Node(std::numeric_limits<Key>::max(), 0);
    head_->next.store(tail_, std::memory_order_release);
    // Stamp-0 version so snapshot walks see the empty map from the start.
    std::uint64_t unused = 0;
    mv_push(head_->mv, tail_, 0, unused);
  }

  ~OtbListMap() override {
    Node* n = head_;
    while (n != nullptr) {
      Node* next = n->next.load(std::memory_order_relaxed);
      delete n;
      n = next;
    }
  }

  OtbListMap(const OtbListMap&) = delete;
  OtbListMap& operator=(const OtbListMap&) = delete;

  // ---- transactional operations -----------------------------------------

  /// Insert-or-assign; true iff the key was newly inserted.
  bool put(TxHost& tx, Key key, Value value) {
    Desc& desc = this->desc(tx);
    if (WriteEntry* w = find_local(desc, key)) {
      switch (w->op) {
        case Op::kInsert:
        case Op::kReplace:
          w->value = value;
          return false;
        case Op::kErase:
          w->op = Op::kReplace;
          w->value = value;
          return true;
      }
    }
    auto [pred, curr, found] = traverse(tx, desc, key);
    // Both outcomes modify links at commit, so both need the full
    // structural rule (pred -> curr intact), never the relaxed one.
    desc.reads.push_back({pred, curr, ReadKind::kStructural});
    desc.writes.push_back(
        {pred, curr, found ? Op::kReplace : Op::kInsert, key, value});
    tx.on_operation_validate();
    return !found;
  }

  /// Insert-if-absent; true iff the key was absent.  A present key is a
  /// read-only outcome (the set's unsuccessful add): its read entry pins
  /// only "the node stays unmarked" and it takes no lock at commit.
  bool insert(TxHost& tx, Key key, Value value) {
    Desc& desc = this->desc(tx);
    if (WriteEntry* w = find_local(desc, key)) {
      if (w->op != Op::kErase) return false;
      // Over our own pending erase: the same value cancels it (the paper's
      // add/remove elimination; its read entry stays), another replaces.
      if (w->curr->value == value) {
        erase_local(desc, key);
      } else {
        w->op = Op::kReplace;
        w->value = value;
      }
      return true;
    }
    auto [pred, curr, found] = traverse(tx, desc, key);
    if (found) {
      desc.reads.push_back({pred, curr, ReadKind::kPresent});
    } else {
      desc.reads.push_back({pred, curr, ReadKind::kStructural});
      desc.writes.push_back({pred, curr, Op::kInsert, key, value});
    }
    tx.on_operation_validate();
    return !found;
  }

  /// Remove; false when absent.
  bool erase(TxHost& tx, Key key) {
    Desc& desc = this->desc(tx);
    if (WriteEntry* w = find_local(desc, key)) {
      switch (w->op) {
        case Op::kInsert:
          erase_local(desc, key);  // elimination; read entries stay
          return true;
        case Op::kReplace:
          w->op = Op::kErase;
          return true;
        case Op::kErase:
          return false;
      }
    }
    auto [pred, curr, found] = traverse(tx, desc, key);
    if (!found) {
      desc.reads.push_back({pred, curr, ReadKind::kStructural});
      tx.on_operation_validate();
      return false;
    }
    desc.reads.push_back({pred, curr, ReadKind::kStructural});
    desc.writes.push_back({pred, curr, Op::kErase, key, 0});
    tx.on_operation_validate();
    return true;
  }

  /// Lookup; false when absent.  Never acquires locks.
  bool get(TxHost& tx, Key key, Value* out) {
    Desc& desc = this->desc(tx);
    if (const WriteEntry* w = find_local(desc, key)) {
      if (w->op == Op::kErase) return false;
      *out = w->value;
      return true;
    }
    auto [pred, curr, found] = traverse(tx, desc, key);
    if (found) {
      desc.reads.push_back({pred, curr, ReadKind::kPresent});
      *out = curr->value;
    } else {
      desc.reads.push_back({pred, curr, ReadKind::kStructural});
    }
    tx.on_operation_validate();
    return found;
  }

  bool contains(TxHost& tx, Key key) {
    Value ignored;
    return get(tx, key, &ignored);
  }

  /// Collect every live (key, value) with lo <= key <= hi, in key order,
  /// merged with this transaction's pending writes (read-own-writes).
  /// Returns the number of pairs appended to `out`.
  ///
  /// On THIS validated path the whole segment is pinned structurally: one
  /// read entry per link from the predecessor of lo up to the first node
  /// beyond hi, so any concurrent insert/erase inside the range invalidates
  /// the reader — the same rule a single structural read uses, applied
  /// link-by-link.  That wording is the whole story only when
  /// `OTB_MV_VERSIONS=0`: with multi-versioning on, read-only range scans
  /// run through `range_at()` instead, which reads the segment as of a
  /// snapshot stamp via the version chains — concurrent inserts/erases
  /// publish *new* versions and no longer invalidate the reader (DESIGN.md
  /// "Multi-version snapshot reads").  The service plane's range requests
  /// are the consumer (DESIGN.md "Transactional service plane").
  ///
  /// A range with the same bounds as one this attempt already walked
  /// re-emits the nodes that walk read, from its read entries: no
  /// traversal, no new read entries, no hint updates.  Those entries pin
  /// every link of the segment, and post-validation (after every operation,
  /// and at commit) keeps the attempt alive only while they hold, so the
  /// remembered nodes are the segment's current ones; a concurrent commit
  /// into it fails the post-validation below exactly as it would after a
  /// fresh walk.  No `next` link is followed, so a segment that shrank
  /// concurrently cannot lead the re-emission past the tail sentinel, and
  /// the attempt's epoch guard keeps every remembered node readable.
  std::size_t range(TxHost& tx, Key lo, Key hi,
                    std::vector<std::pair<Key, Value>>* out) {
    Desc& desc = this->desc(tx);
    const std::size_t before = out->size();
    if (lo > hi) {
      tx.on_operation_validate();
      return 0;
    }
    if (const Segment* s = desc.walked(lo, hi)) {
      // The walk's i-th pair is the curr of its i-th read entry.
      for (std::uint32_t i = s->first; i < s->first + s->n; ++i) {
        const Node* c = desc.reads[i].curr;
        out->emplace_back(c->key, c->value);
      }
    } else {
      auto [pred, curr, found] = traverse(tx, desc, lo);
      (void)found;
      const std::size_t first = desc.reads.size();
      desc.reads.push_back({pred, curr, ReadKind::kStructural});
      Node* c = curr;
      while (c != tail_ && c->key <= hi) {
        out->emplace_back(c->key, c->value);
        Node* next = c->next.load(std::memory_order_acquire);
        desc.reads.push_back({c, next, ReadKind::kStructural});
        c = next;
      }
      desc.remember(lo, hi, first, out->size() - before);
    }
    tx.on_operation_validate();
    // Overlay the local write-set: pending inserts/replaces upsert, pending
    // erases drop.  The shared walk above saw none of them.
    for (const WriteEntry& w : desc.writes) {
      if (w.key < lo || w.key > hi) continue;
      auto it = out->begin() + static_cast<std::ptrdiff_t>(before);
      for (; it != out->end() && it->first < w.key; ++it) {
      }
      const bool present = it != out->end() && it->first == w.key;
      switch (w.op) {
        case Op::kInsert:
        case Op::kReplace:
          if (present) {
            it->second = w.value;
          } else {
            out->insert(it, {w.key, w.value});
          }
          break;
        case Op::kErase:
          if (present) out->erase(it);
          break;
      }
    }
    return out->size() - before;
  }

  // ---- snapshot (multi-version) reads ------------------------------------

  /// Lookup as of the snapshot's stamp for this structure — no read-set, no
  /// locks, no validation.  The stamp was drawn while the map was quiescent,
  /// so if no publication has begun since (the begin count still equals the
  /// stamp, common/commit_seq.h), the current links ARE the links as of the
  /// stamp: a walk over them is the answer, with no chain resolved.  Else
  /// the walk's result is dropped and the version chains are walked; that
  /// walk throws SnapshotMiss when a chain can no longer serve the stamp.
  bool get_at(SnapshotTx& snap, Key key, Value* out) const {
    const std::uint64_t t = snap.stamp_for(commit_seq());
    const Node* c = locate(key).second;
    if (commit_seq().begin_count() == t) {
      if (c->key != key) return false;
      *out = c->value;
      return true;
    }
    c = head_;
    for (;;) {
      const Node* nx = mv_next_at(snap, c, t);
      if (nx->key >= key) {
        if (nx->key != key) return false;
        *out = nx->value;  // immutable once constructed: safe to read
        return true;
      }
      c = nx;
    }
  }

  bool contains_at(SnapshotTx& snap, Key key) const {
    Value ignored;
    return get_at(snap, key, &ignored);
  }

  /// Range scan as of the snapshot's stamp: every (key, value) with
  /// lo <= key <= hi that was live at the stamp, in key order.  Concurrent
  /// inserts/erases publish new versions; they cannot invalidate this walk.
  /// Same two walks as get_at: the current links while the begin count
  /// still equals the stamp, else the version chains.
  std::size_t range_at(SnapshotTx& snap, Key lo, Key hi,
                       std::vector<std::pair<Key, Value>>* out) const {
    if (lo > hi) return 0;
    const std::uint64_t t = snap.stamp_for(commit_seq());
    const std::size_t before = out->size();
    for (const Node* c = locate(lo).second; c != tail_ && c->key <= hi;
         c = c->next.load(std::memory_order_acquire)) {
      out->emplace_back(c->key, c->value);
    }
    if (commit_seq().begin_count() == t) return out->size() - before;
    out->resize(before);  // a publication began mid-walk: not the stamp's
    const Node* c = head_;
    // Find the first node with key >= lo as of t, then emit until > hi.
    for (;;) {
      const Node* nx = mv_next_at(snap, c, t);
      if (nx->key >= lo) {
        c = nx;
        break;
      }
      c = nx;
    }
    while (c != tail_ && c->key <= hi) {
      out->emplace_back(c->key, c->value);
      c = mv_next_at(snap, c, t);
    }
    return out->size() - before;
  }

  bool supports_snapshot_reads() const override { return true; }

  // ---- non-transactional helpers -----------------------------------------

  bool put_seq(Key key, Value value) {
    auto [pred, curr] = locate(key);
    const std::uint64_t ts = commit_seq().begin_count();
    std::uint64_t unused = 0;
    if (curr->key == key) {
      Node* node = new Node(key, value);
      node->next.store(curr->next.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
      curr->marked.store(true, std::memory_order_relaxed);
      pred->next.store(node, std::memory_order_release);
      mv_push(node->mv, node->next.load(std::memory_order_relaxed), ts, unused);
      mv_push(pred->mv, node, ts, unused);
      // Retire (not delete): the traversal-hint cache may still hold this
      // node from an earlier transactional phase on some thread, and the
      // epoch age-gate only protects EBR-reclaimed memory.
      ebr::retire(curr);
      return false;
    }
    Node* node = new Node(key, value);
    node->next.store(curr, std::memory_order_relaxed);
    pred->next.store(node, std::memory_order_release);
    mv_push(node->mv, curr, ts, unused);
    mv_push(pred->mv, node, ts, unused);
    return true;
  }

  /// Sequential insert-if-absent; not thread-safe.
  bool insert_seq(Key key, Value value) {
    return locate(key).second->key != key && put_seq(key, value);
  }

  std::size_t size_unsafe() const {
    std::size_t n = 0;
    for (const Node* c = head_->next.load(std::memory_order_acquire); c != tail_;
         c = c->next.load(std::memory_order_acquire)) {
      if (!c->marked.load(std::memory_order_acquire)) ++n;
    }
    return n;
  }

  std::vector<std::pair<Key, Value>> snapshot_unsafe() const {
    std::vector<std::pair<Key, Value>> out;
    for (const Node* c = head_->next.load(std::memory_order_acquire); c != tail_;
         c = c->next.load(std::memory_order_acquire)) {
      if (!c->marked.load(std::memory_order_acquire)) {
        out.emplace_back(c->key, c->value);
      }
    }
    return out;
  }

  // ---- OTB-DS protocol (§4.1.2) ------------------------------------------

  std::unique_ptr<OtbDsDesc> make_desc() const override {
    return std::make_unique<Desc>();
  }

  bool validate(const OtbDsDesc& base, bool check_locks) const override {
    const Desc& desc = static_cast<const Desc&>(base);
    // Phase 1: snapshot the involved locks and require them free.  The
    // scratch lives in the descriptor so repeated validations of one
    // transaction reuse the same storage (zero-allocation hot path).
    auto& snaps = desc.snaps;
    snaps.clear();
    if (check_locks) {
      snaps.reserve(desc.reads.size() * 2);
      for (const ReadEntry& e : desc.reads) {
        const std::uint64_t p = e.pred->lock.load();
        const std::uint64_t c = e.curr->lock.load();
        if (VersionedLock::is_locked(p) || VersionedLock::is_locked(c)) return false;
        snaps.push_back(p);
        snaps.push_back(c);
      }
    }
    // Phase 2: semantic checks.
    for (const ReadEntry& e : desc.reads) {
      if (!validate_entry(e)) return false;
    }
    // Phase 3: lock versions unchanged while we validated.
    if (check_locks) {
      std::size_t i = 0;
      for (const ReadEntry& e : desc.reads) {
        if (e.pred->lock.load() != snaps[i++]) return false;
        if (e.curr->lock.load() != snaps[i++]) return false;
      }
    }
    return true;
  }

  bool pre_commit(OtbDsDesc& base, bool use_locks) override {
    Desc& desc = static_cast<Desc&>(base);
    if (desc.writes.empty()) return true;  // read-only: nothing to do
    // Guideline 2 (§3.2.1): publish in descending key order.
    std::sort(desc.writes.begin(), desc.writes.end(),
              [](const WriteEntry& a, const WriteEntry& b) { return a.key > b.key; });
    // Lock pred for inserts, pred and victim otherwise (the lazy-list
    // rule), with pointer dedup.  A failed try-lock reports false; the
    // host's abort path releases what was taken.
    if (use_locks) {
      auto lock_one = [&](Node* n) -> bool {
        for (Node* held : desc.locked) {
          if (held == n) return true;
        }
        if (!n->lock.try_lock()) return false;
        desc.locked.push_back(n);
        return true;
      };
      for (const WriteEntry& e : desc.writes) {
        if (!lock_one(e.pred)) return false;
        if (e.op != Op::kInsert && !lock_one(e.curr)) return false;
      }
    }
    // Commit-time validation: lock versions need no re-check, the involved
    // nodes are locked by us.
    return OtbListMap::validate(desc, /*check_locks=*/false);
  }

  void do_on_commit(OtbDsDesc& base) override {
    Desc& desc = static_cast<Desc&>(base);
    ebr::Guard guard;
    for (const WriteEntry& e : desc.writes) {
      // Guideline 3: resume traversal from the saved pred; every node on the
      // resumed path is either the saved pred or a node this transaction
      // inserted (and holds locked), so the walk is race-free.
      Node* pred = e.pred;
      Node* curr = pred->next.load(std::memory_order_acquire);
      while (curr->key < e.key) {
        pred = curr;
        curr = pred->next.load(std::memory_order_acquire);
      }
      switch (e.op) {
        case Op::kInsert: {
          Node* node = new Node(e.key, e.value);
          node->lock.try_lock();  // guideline 1: new nodes stay locked
          desc.locked.push_back(node);
          node->next.store(curr, std::memory_order_relaxed);
          pred->next.store(node, std::memory_order_release);
          // Version the insert: the new node's own chain gets its initial
          // successor (uniform resolve rule for nodes born at this stamp) and
          // pred's chain records the link change.
          mv_push(node->mv, curr, desc.mv_stamp, desc.mv_reclaimed);
          mv_push(pred->mv, node, desc.mv_stamp, desc.mv_reclaimed);
          break;
        }
        case Op::kReplace: {
          Node* node = new Node(e.key, e.value);
          node->lock.try_lock();
          desc.locked.push_back(node);
          curr->marked.store(true, std::memory_order_release);
          Node* after = curr->next.load(std::memory_order_relaxed);
          node->next.store(after, std::memory_order_relaxed);
          pred->next.store(node, std::memory_order_release);
          // Snapshots at stamps >= this one route pred -> node -> after;
          // older stamps keep resolving to the retired curr (whose chain
          // and value stay readable under the epoch guard).
          mv_push(node->mv, after, desc.mv_stamp, desc.mv_reclaimed);
          mv_push(pred->mv, node, desc.mv_stamp, desc.mv_reclaimed);
          ebr::retire(curr);
          break;
        }
        case Op::kErase: {  // curr is the victim (validation pinned it)
          curr->marked.store(true, std::memory_order_release);
          Node* after = curr->next.load(std::memory_order_relaxed);
          pred->next.store(after, std::memory_order_release);
          // Version the unlink: snapshots at stamps >= this one bypass curr.
          mv_push(pred->mv, after, desc.mv_stamp, desc.mv_reclaimed);
          ebr::retire(curr);
          break;
        }
      }
    }
  }

  void do_post_commit(OtbDsDesc& base) override {
    Desc& desc = static_cast<Desc&>(base);
    for (Node* n : desc.locked) n->lock.unlock_new_version();
    desc.locked.clear();
  }

  void do_on_abort(OtbDsDesc& base) override {
    Desc& desc = static_cast<Desc&>(base);
    // Nothing was published (on_commit never fails); release what we locked
    // without disturbing versions.
    for (Node* n : desc.locked) n->lock.unlock_same_version();
    desc.locked.clear();
  }

  bool has_writes(const OtbDsDesc& base) const override {
    return !static_cast<const Desc&>(base).writes.empty();
  }

  std::size_t write_count(const OtbDsDesc& base) const override {
    return static_cast<const Desc&>(base).writes.size();
  }

  /// Visit a descriptor's write-set: `fn(upsert, key, value)` once per
  /// written key, net of local elimination.  An insert or replace is an
  /// upsert carrying the key's final value; an erase carries its victim's
  /// key (value 0).  Read-only: the service's commit hook logs it.
  template <typename Fn>
  void for_each_write(const OtbDsDesc& base, Fn&& fn) const {
    for (const WriteEntry& w : static_cast<const Desc&>(base).writes) {
      fn(w.op != Op::kErase, w.key, w.op != Op::kErase ? w.value : 0);
    }
  }

 private:
  enum class Op : std::uint8_t { kInsert, kReplace, kErase };

  /// kPresent: the found node must merely stay unmarked (optimised rule).
  /// kStructural: the (pred -> curr) link must be intact and both unmarked.
  enum class ReadKind : std::uint8_t { kPresent, kStructural };

  struct Node {
    Node(Key k, Value v) : key(k), value(v) {}
    ~Node() { delete mv; }
    const Key key;
    const Value value;
    std::atomic<Node*> next{nullptr};
    std::atomic<bool> marked{false};
    VersionedLock lock;
    /// Bounded version chain of this node's successive `next` values
    /// (nullptr when OTB_MV_VERSIONS was 0 at construction).
    MvChain* const mv = mv_make_chain();
  };

  struct ReadEntry {
    Node* pred;
    Node* curr;
    ReadKind kind;
  };

  struct WriteEntry {
    Node* pred;
    Node* curr;  // victim for kReplace / kErase
    Op op;
    Key key;
    Value value;
  };

  /// A range this attempt walked: its bounds, and the `n` read entries from
  /// `first` on whose curr nodes are the pairs it read (before the
  /// write-set overlay).
  struct Segment {
    Key lo;
    Key hi;
    std::uint32_t first;
    std::uint32_t n;
  };

  struct Desc final : OtbDsDesc {
    /// Inline capacity: typical transactions run 1–5 operations (the
    /// paper's workloads); 8 keeps them heap-free with headroom.
    static constexpr std::size_t kInline = 8;
    SmallVec<ReadEntry, kInline> reads;
    SmallVec<WriteEntry, kInline> writes;
    // Up to two locks (pred + victim) per write, plus one per inserted node.
    SmallVec<Node*, 2 * kInline> locked;  // semantic locks held (commit phase only)
    /// Scratch for validate()'s lock snapshots (two words per read entry).
    mutable SmallVec<std::uint64_t, 2 * kInline> snaps;
    /// Level-1 traversal hints: key-ordered positions this transaction's own
    /// operations landed on.  Deliberately NOT cleared by reset() — a pooled
    /// descriptor hands them to the retry attempt, which inherits the
    /// already-proven positions; staleness is epoch-gated at consult time
    /// (hint::age_gate).  reset_for_next() drops them: a host's next
    /// transaction would otherwise inherit one hint per key any earlier
    /// transaction touched, and pick_start scans them all.
    SmallVec<LocalHint<Node>, 2 * kInline> hints;
    /// Oldest announce epoch any surviving hint was recorded under.
    std::uint64_t hint_epoch = 0;
    /// Segments range() walked in this attempt, so a repeated range
    /// re-emits them from `reads`.  At most kSegments, inline, so a lookup
    /// stays short and a parked descriptor keeps no extra capacity: a range
    /// past the bound is simply walked every time.
    static constexpr std::size_t kSegments = 8;
    SmallVec<Segment, kSegments> segments;

    const Segment* walked(Key lo, Key hi) const {
      for (const Segment& s : segments) {
        if (s.lo == lo && s.hi == hi) return &s;
      }
      return nullptr;
    }

    void remember(Key lo, Key hi, std::size_t first, std::size_t n) {
      if (segments.size() == kSegments) return;
      segments.push_back({lo, hi, static_cast<std::uint32_t>(first),
                          static_cast<std::uint32_t>(n)});
    }

    void reset() override {
      reads.clear();
      writes.clear();
      locked.clear();
      snaps.clear();
      segments.clear();
      OtbDsDesc::reset();
    }

    void reset_for_next() override {
      reset();
      hints.clear();
      hint_epoch = 0;
    }
  };

  Desc& desc(TxHost& tx) { return static_cast<Desc&>(tx.descriptor(*this)); }

  bool validate_entry(const ReadEntry& e) const {
    const bool curr_live = !e.curr->marked.load(std::memory_order_acquire);
    if (e.kind == ReadKind::kPresent) return curr_live;
    return curr_live && !e.pred->marked.load(std::memory_order_acquire) &&
           e.pred->next.load(std::memory_order_acquire) == e.curr;
  }

  /// Algorithm 1's unmonitored traversal, seeded by the hint layer when
  /// enabled (the entry point is advisory; everything after the walk is the
  /// unchanged protocol).  Re-traverses when it lands on a node mid-removal
  /// so no entry that is doomed to fail is ever recorded; a stale hint
  /// falls back to a full from-head walk — never a conflict.
  std::tuple<Node*, Node*, bool> traverse(TxHost& tx, Desc& desc, Key key) {
    metrics::TxTally& tally = tx.op_tally();
    const bool hints_on = traversal_hints_enabled();
    HintSource src = HintSource::kNone;
    Node* start =
        hints_on ? hint::pick_start(desc, key, hint_owner_id(), head_, src)
                 : head_;
    std::uint64_t steps = 0;
    for (;;) {
      auto [pred, curr] = locate_from(start, key, steps);
      if (!pred->marked.load(std::memory_order_acquire) &&
          !curr->marked.load(std::memory_order_acquire)) {
        if (hints_on) {
          hint::count(tally, src);
          hint::remember(desc, hint_owner_id(), pred, curr, head_, tail_);
        }
        hint::sample_traversal(tally, steps);
        return {pred, curr, curr->key == key};
      }
      if (start != head_) {
        start = head_;
        src = HintSource::kNone;
        continue;
      }
      tx.on_operation_validate();
    }
  }

  /// Linear write-set lookup — deliberate: write-sets hold a handful of
  /// entries (≤ Desc::kInline in every paper workload), where a flat scan
  /// beats hashing.  Crossover guard: if transactions ever carry ~32+
  /// writes, replace with a small key-indexed table; do not "fix" this for
  /// typical sizes.
  WriteEntry* find_local(Desc& desc, Key key) {
    for (WriteEntry& w : desc.writes) {
      if (w.key == key) return &w;
    }
    return nullptr;
  }
  const WriteEntry* find_local(const Desc& desc, Key key) const {
    for (const WriteEntry& w : desc.writes) {
      if (w.key == key) return &w;
    }
    return nullptr;
  }

  void erase_local(Desc& desc, Key key) {
    for (auto it = desc.writes.begin(); it != desc.writes.end(); ++it) {
      if (it->key == key) {
        desc.writes.erase(it);
        return;
      }
    }
  }

  /// Successor of `n` as of stamp `t` (snapshot walk step); misses when the
  /// node carries no chain or the ring overflowed past `t`.
  const Node* mv_next_at(SnapshotTx& snap, const Node* n, std::uint64_t t) const {
    if (n->mv == nullptr) throw SnapshotMiss{};
    const MvChain::Resolved r = n->mv->resolve_at(t);
    snap.sample_chain_depth(r.depth);
    if (!r.found) throw SnapshotMiss{};
    return static_cast<const Node*>(r.ptr);
  }

  std::pair<Node*, Node*> locate(Key key) const {
    std::uint64_t steps = 0;
    return locate_from(head_, key, steps);
  }

  std::pair<Node*, Node*> locate_from(Node* start, Key key,
                                      std::uint64_t& steps) const {
    Node* pred = start;
    Node* curr = pred->next.load(std::memory_order_acquire);
    while (curr->key < key) {
      pred = curr;
      curr = pred->next.load(std::memory_order_acquire);
      ++steps;
    }
    return {pred, curr};
  }

  Node* head_;
  Node* tail_;
};

}  // namespace otb::tx
