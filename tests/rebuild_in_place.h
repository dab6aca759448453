// Shared check for the host lifetime rule (DESIGN.md "One host lifetime"):
// a structure destroyed and rebuilt at the same address between two
// transactions of one host must get a fresh descriptor, never the one its
// predecessor left parked.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

#include "otb/otb_list_map.h"
#include "otb/otb_skiplist_pq.h"

namespace otb::test {

inline void fill(tx::OtbSkipListPQ& pq) {
  for (std::int64_t k : {3, 6}) pq.add_seq(k);
}
inline void fill(tx::OtbListMap& map) {
  for (std::int64_t k : {3, 6}) map.put_seq(k, 10 * k);
}

/// A read-write transaction body on the rebuilt structure.
inline void touch(tx::TxHost& host, tx::OtbSkipListPQ& pq) {
  std::int64_t v = -1;
  EXPECT_TRUE(pq.remove_min(host, &v));
  EXPECT_EQ(v, 3);
}
inline void touch(tx::TxHost& host, tx::OtbListMap& map) {
  std::int64_t v = -1;
  EXPECT_TRUE(map.get(host, 3, &v));
  EXPECT_EQ(v, 30);
  EXPECT_FALSE(map.put(host, 6, 61));
}

/// What `touch` leaves behind once it committed.
inline void expect_touched(const tx::OtbSkipListPQ& pq) {
  EXPECT_EQ(pq.snapshot_unsafe(), std::vector<std::int64_t>{6});
}
inline void expect_touched(const tx::OtbListMap& map) {
  EXPECT_EQ(map.snapshot_unsafe(),
            (std::vector<std::pair<std::int64_t, std::int64_t>>{{3, 30}, {6, 61}}));
}

inline const tx::OtbDsDesc* attached_desc(const tx::TxHost& host,
                                          const tx::OtbDs& ds) {
  for (const auto& [attached, desc] : host.attached()) {
    if (attached == &ds) return desc.get();
  }
  return nullptr;
}

/// Runs a transaction on a skip-list PQ, destroys the PQ, builds a `Next`
/// in its storage with placement new, and runs a transaction on that.
/// `run(body)` runs `body(host)` as one transaction on the host under
/// test.  The second transaction must attach a fresh descriptor: the PQ's
/// parked one still holds the PQ's freed head node.
template <typename Next, typename Run>
void expect_fresh_descriptor_after_rebuild(Run&& run) {
  alignas(std::max(alignof(tx::OtbSkipListPQ), alignof(Next))) unsigned char
      storage[std::max(sizeof(tx::OtbSkipListPQ), sizeof(Next))];
  auto* pq = new (storage) tx::OtbSkipListPQ;
  fill(*pq);
  const tx::OtbDsDesc* old_desc = nullptr;
  run([&](tx::TxHost& host) {
    touch(host, *pq);
    old_desc = attached_desc(host, *pq);
  });
  expect_touched(*pq);
  pq->~OtbSkipListPQ();

  auto* next = new (storage) Next;
  ASSERT_EQ(static_cast<void*>(next), static_cast<void*>(pq));
  fill(*next);
  const tx::OtbDsDesc* new_desc = nullptr;
  run([&](tx::TxHost& host) {
    touch(host, *next);
    new_desc = attached_desc(host, *next);
  });
  EXPECT_NE(old_desc, nullptr);
  EXPECT_NE(new_desc, nullptr);
  EXPECT_NE(new_desc, old_desc);
  expect_touched(*next);
  next->~Next();
}

}  // namespace otb::test
