// The service's structure table and step executor (split out of service.h
// so the durability layer — wal.h / recovery.h — can address slots without
// pulling in the whole service plane).
//
// This is the one place that knows what a verb does on a structure kind.
// The batch path, the snapshot route, WAL replay and checkpoints all run
// their steps through it (DESIGN.md "Transactional service plane").
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "otb/otb_heap_pq.h"
#include "otb/otb_list_map.h"
#include "otb/otb_list_set.h"
#include "otb/otb_skiplist_pq.h"
#include "service/request.h"

namespace otb::service {

/// (key, value) pairs: range output and a checkpoint slot's contents
/// (value 0 for every kind but the map).
using Entries = std::vector<std::pair<std::int64_t, std::int64_t>>;

/// The service's structure table: each registered structure occupies one
/// slot, and a `Step` names its target by slot index (`StructureId`).
/// A service registers any mix of structures in any order; the canonical
/// `standard()` layout (map=0, set=1, heap=2, skip-list PQ=3) is what the
/// step factories in request.h default to.  A null slot stays addressable
/// but fails validation, so "this service does not expose a set" keeps the
/// old kFailed semantics.
struct Targets {
  static constexpr std::size_t kMaxStructures = 16;
  // A worker's host parks one descriptor per slot and never evicts.
  static_assert(tx::TxHost::kMaxParked >= kMaxStructures);

  struct Slot {
    StructureKind kind = StructureKind::kMap;
    tx::OtbDs* ds = nullptr;
  };

  Slot slots[kMaxStructures] = {};
  std::size_t count = 0;

  StructureId add_map(tx::OtbListMap* m) { return add(StructureKind::kMap, m); }
  StructureId add_set(tx::OtbListSet* s) { return add(StructureKind::kSet, s); }
  StructureId add_heap_pq(tx::OtbHeapPQ* q) {
    return add(StructureKind::kHeapPq, q);
  }
  StructureId add_sl_pq(tx::OtbSkipListPQ* q) {
    return add(StructureKind::kSlPq, q);
  }

  /// Canonical four-slot layout matching request.h's factory defaults.
  /// Null pointers register empty slots (addressable, never valid).
  static Targets standard(tx::OtbListMap* map = nullptr,
                          tx::OtbListSet* set = nullptr,
                          tx::OtbHeapPQ* heap_pq = nullptr,
                          tx::OtbSkipListPQ* sl_pq = nullptr) {
    Targets t;
    t.add_map(map);
    t.add_set(set);
    t.add_heap_pq(heap_pq);
    t.add_sl_pq(sl_pq);
    return t;
  }

  /// Slot exists, holds a structure, and the verb fits its kind.
  bool fits(StructureId id, Verb v) const {
    if (id >= count || slots[id].ds == nullptr) return false;
    switch (slots[id].kind) {
      case StructureKind::kMap:
        return v == Verb::kGet || v == Verb::kPut || v == Verb::kErase ||
               v == Verb::kContains || v == Verb::kRange;
      case StructureKind::kSet:
        return v == Verb::kAdd || v == Verb::kRemove || v == Verb::kContains;
      case StructureKind::kHeapPq:
      case StructureKind::kSlPq:
        return v == Verb::kPush || v == Verb::kPopMin || v == Verb::kMin;
    }
    return false;
  }

  /// Whether a (fitting) step may take the snapshot route: a read verb over
  /// a structure with `*_at` entry points.  The eager heap PQ has none: its
  /// effects bypass the OTB deferral discipline, so it grows no versions.
  bool reads_at(StructureId id, Verb v) const {
    return fits(id, v) && is_read(v) && slots[id].ds->supports_snapshot_reads();
  }

  /// Run one fitting step inside transaction `t`.  `value` is a put's value
  /// or a range's upper bound.  The result value is the put's value, the
  /// range's own pair count (its pairs are appended to `range_out`), the
  /// value get / pop_min / min found (0 when none), or else the key.
  StepResult run(tx::TxHost& t, StructureId id, Verb verb, std::int64_t key,
                 std::int64_t value, Entries* range_out) const {
    StepResult r{true, false, key};
    const bool heap = slots[id].kind == StructureKind::kHeapPq;
    switch (verb) {
      case Verb::kGet:
        r.value = 0;
        r.ok = map(id)->get(t, key, &r.value);
        break;
      case Verb::kPut:
        r.ok = map(id)->put(t, key, value);
        r.value = value;
        break;
      case Verb::kErase:
        r.ok = map(id)->erase(t, key);
        break;
      case Verb::kContains:  // the set is a map with unit values
        r.ok = map(id)->contains(t, key);
        break;
      case Verb::kRange:
        r.value = static_cast<std::int64_t>(
            map(id)->range(t, key, value, range_out));
        r.ok = true;
        break;
      case Verb::kAdd:
        r.ok = set(id)->add(t, key);
        break;
      case Verb::kRemove:
        r.ok = set(id)->remove(t, key);
        break;
      case Verb::kPush:
        if (heap) {
          heap_pq(id)->add(t, key);  // keeps duplicates: always succeeds
          r.ok = true;
        } else {
          r.ok = sl_pq(id)->add(t, key);
        }
        break;
      case Verb::kPopMin:
        r.value = 0;
        r.ok = heap ? heap_pq(id)->remove_min(t, &r.value)
                    : sl_pq(id)->remove_min(t, &r.value);
        break;
      case Verb::kMin:
        r.value = 0;
        r.ok = heap ? heap_pq(id)->min(t, &r.value) : sl_pq(id)->min(t, &r.value);
        break;
    }
    return r;
  }

  /// Whether a committed batch logs this slot's steps one by one (wal.h
  /// took_effect / wal_op) rather than its write-set: the PQ kinds.  A
  /// pop_min replays correctly only after the pushes and pops before it,
  /// in order, which a net set of pushes and pops cannot express.
  bool logs_steps(StructureId id) const {
    return slots[id].kind == StructureKind::kHeapPq ||
           slots[id].kind == StructureKind::kSlPq;
  }

  /// The write-set of every map and set slot that transaction `t` attached,
  /// as the verbs replay runs through run(): `emit(slot, verb, key, value)`
  /// once per written key.  A map logs put(key, value) for an insert or a
  /// replace and erase(key) for an erase; a set logs add(key) and
  /// remove(key).  Each attached structure is visited once, under the
  /// first slot that holds it.
  template <typename Emit>
  void for_each_write(const tx::TxHost& t, Emit&& emit) const {
    for (const auto& [ds, desc] : t.attached()) {
      for (std::size_t i = 0; i < count; ++i) {
        if (slots[i].ds != ds) continue;
        const auto id = static_cast<StructureId>(i);
        if (logs_steps(id)) break;
        const bool is_map = slots[i].kind == StructureKind::kMap;
        map(id)->for_each_write(
            *desc, [&](bool upsert, std::int64_t key, std::int64_t value) {
              if (is_map) {
                emit(id, upsert ? Verb::kPut : Verb::kErase, key, value);
              } else {
                emit(id, upsert ? Verb::kAdd : Verb::kRemove, key,
                     std::int64_t{0});
              }
            });
        break;
      }
    }
  }

  /// run()'s snapshot twin, for steps reads_at() admits: the same results,
  /// read as of the snapshot's stamp.
  StepResult read_at(tx::SnapshotTx& snap, StructureId id, Verb verb,
                     std::int64_t key, std::int64_t value,
                     Entries* range_out) const {
    StepResult r{true, false, key};
    switch (verb) {
      case Verb::kGet:
        r.value = 0;
        r.ok = map(id)->get_at(snap, key, &r.value);
        break;
      case Verb::kContains:
        r.ok = map(id)->contains_at(snap, key);
        break;
      case Verb::kRange:
        r.value = static_cast<std::int64_t>(
            map(id)->range_at(snap, key, value, range_out));
        r.ok = true;
        break;
      case Verb::kMin:
        r.value = 0;
        r.ok = sl_pq(id)->min_at(snap, &r.value);
        break;
      default:
        break;  // unreachable: reads_at admits only these
    }
    return r;
  }

  /// Copy a registered slot's contents (quiescent only: checkpoint pause).
  Entries capture(StructureId id) const {
    switch (slots[id].kind) {
      case StructureKind::kMap:
      case StructureKind::kSet:  // unit values: (key, 0) pairs
        return map(id)->snapshot_unsafe();
      case StructureKind::kHeapPq:
        return keys(heap_pq(id)->snapshot_unsafe());
      case StructureKind::kSlPq:
        return keys(sl_pq(id)->snapshot_unsafe());
    }
    return {};
  }

  /// Load checkpoint `entries` into a registered slot; false (nothing
  /// loaded) unless the structure is empty — the snapshot IS the state.
  bool load(StructureId id, const Entries& entries) const {
    if (!capture(id).empty()) return false;
    for (const auto& [k, v] : entries) {
      switch (slots[id].kind) {
        case StructureKind::kMap:
          map(id)->put_seq(k, v);
          break;
        case StructureKind::kSet:
          set(id)->add_seq(k);
          break;
        case StructureKind::kHeapPq:
          heap_pq(id)->add_seq(k);
          break;
        case StructureKind::kSlPq:
          sl_pq(id)->add_seq(k);
          break;
      }
    }
    return true;
  }

  tx::OtbListMap* map(StructureId id) const {
    return static_cast<tx::OtbListMap*>(slots[id].ds);
  }
  tx::OtbListSet* set(StructureId id) const {
    return static_cast<tx::OtbListSet*>(slots[id].ds);
  }
  tx::OtbHeapPQ* heap_pq(StructureId id) const {
    return static_cast<tx::OtbHeapPQ*>(slots[id].ds);
  }
  tx::OtbSkipListPQ* sl_pq(StructureId id) const {
    return static_cast<tx::OtbSkipListPQ*>(slots[id].ds);
  }

 private:
  StructureId add(StructureKind k, tx::OtbDs* ds) {
    slots[count] = Slot{k, ds};
    return static_cast<StructureId>(count++);
  }

  static Entries keys(const std::vector<std::int64_t>& ks) {
    Entries out;
    out.reserve(ks.size());
    for (std::int64_t k : ks) out.emplace_back(k, 0);
    return out;
  }
};

}  // namespace otb::service
