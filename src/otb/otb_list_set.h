// OTB-Set over a lazy linked list — the paper's primary contribution
// (§3.2.1, Algorithms 1–3) — as an OtbListMap whose every value is 0.
//
// The protocol itself (unmonitored traversal, post-validation, semantic
// locking, descending-key publication, version chains, traversal hints)
// lives in otb_list_map.h.  Each set rule is a map operation:
//   * add = insert(key, 0).  Absent: a structural read plus a pending
//     insert that locks pred at commit.  Present: a read-only outcome that
//     pins only !curr.marked and takes no lock.
//   * remove = erase.  Present: locks pred and victim at commit.  Absent: a
//     structural read, no lock.
//   * contains / contains_at are the map's lookups: present pins only
//     !curr.marked, absent pins the (pred -> curr) link.
//   * add over a pending remove cancels it (values are all 0, so insert's
//     same-value rule always applies); remove over a pending add eliminates
//     it.  Either way the read entries stay behind.
#pragma once

#include <vector>

#include "otb/otb_list_map.h"

namespace otb::tx {

class OtbListSet final : public OtbListMap {
 public:
  /// Transactional insert; false when the key is already present.
  bool add(TxHost& tx, Key key) { return insert(tx, key, 0); }

  /// Transactional remove; false when absent.
  bool remove(TxHost& tx, Key key) { return erase(tx, key); }

  /// Sequential insert used to seed benchmarks; not thread-safe.
  bool add_seq(Key key) { return insert_seq(key, 0); }

  std::vector<Key> snapshot_unsafe() const {
    std::vector<Key> out;
    for (const auto& kv : OtbListMap::snapshot_unsafe()) out.push_back(kv.first);
    return out;
  }
};

}  // namespace otb::tx
