// Edge-case coverage across modules: empty structures, sentinel-adjacent
// keys, extreme values, descriptor reuse, oversubscribed epoch slots, and
// other boundaries the main suites do not hit.
#include <gtest/gtest.h>

#include <limits>
#include <thread>
#include <vector>

#include "boosted/boosted_pq.h"
#include "boosted/boosted_runtime.h"
#include "cds/binary_heap.h"
#include "cds/lazy_list_set.h"
#include "cds/skiplist_pq.h"
#include "otb/otb_heap_pq.h"
#include "otb/otb_list_map.h"
#include "otb/otb_list_set.h"
#include "otb/otb_skiplist_pq.h"
#include "otb/otb_skiplist_set.h"
#include "otb/runtime.h"
#include "stm/stm.h"
#include "stmds/stm_dll.h"
#include "stmds/stm_hashmap.h"
#include "stmds/stm_rbtree.h"

namespace otb {
namespace {

TEST(EdgeCases, EmptyStructuresBehave) {
  tx::OtbListSet set;
  tx::OtbSkipListPQ pq;
  tx::OtbListMap map;
  tx::atomically([&](tx::Transaction& t) {
    EXPECT_FALSE(set.contains(t, 0));
    EXPECT_FALSE(set.remove(t, 0));
    std::int64_t v;
    EXPECT_FALSE(pq.remove_min(t, &v));
    EXPECT_FALSE(pq.min(t, &v));
    EXPECT_FALSE(map.get(t, 0, &v));
    EXPECT_FALSE(map.erase(t, 0));
  });
  EXPECT_EQ(set.size_unsafe(), 0u);
}

TEST(EdgeCases, NearSentinelKeys) {
  // Keys adjacent to the sentinel min/max must work in every structure.
  const std::int64_t lo = std::numeric_limits<std::int64_t>::min() + 1;
  const std::int64_t hi = std::numeric_limits<std::int64_t>::max() - 1;
  tx::OtbListSet set;
  tx::atomically([&](tx::Transaction& t) {
    EXPECT_TRUE(set.add(t, lo));
    EXPECT_TRUE(set.add(t, hi));
    EXPECT_TRUE(set.add(t, 0));
  });
  tx::atomically([&](tx::Transaction& t) {
    EXPECT_TRUE(set.contains(t, lo));
    EXPECT_TRUE(set.contains(t, hi));
    EXPECT_TRUE(set.remove(t, lo));
    EXPECT_TRUE(set.remove(t, hi));
  });
  EXPECT_EQ(set.size_unsafe(), 1u);
}

TEST(EdgeCases, EmptyTransactionCommits) {
  tx::atomically([](tx::Transaction&) {});  // attaches nothing
  stm::Runtime rt(stm::AlgoKind::kNOrec);
  stm::TxThread th(rt);
  rt.atomically(th, [](stm::Tx&) {});
  EXPECT_EQ(th.tx().tally().commits, 1u);
}

TEST(EdgeCases, SingleElementPqDrainRefill) {
  for (int round = 0; round < 3; ++round) {
    tx::OtbHeapPQ pq;
    tx::atomically([&](tx::Transaction& t) { pq.add(t, 42); });
    std::int64_t v = 0;
    tx::atomically([&](tx::Transaction& t) {
      ASSERT_TRUE(pq.remove_min(t, &v));
      EXPECT_FALSE(pq.remove_min(t, &v));  // drained within the same tx
      pq.add(t, 43);                       // refill within the same tx
      ASSERT_TRUE(pq.remove_min(t, &v));
      EXPECT_EQ(v, 43);
    });
    EXPECT_EQ(pq.size_unsafe(), 0u);
  }
}

TEST(EdgeCases, SkipListPqLocalThenSharedInterleave) {
  tx::OtbSkipListPQ pq;
  pq.add_seq(10);
  pq.add_seq(30);
  std::vector<std::int64_t> order;
  tx::atomically([&](tx::Transaction& t) {
    order.clear();
    ASSERT_TRUE(pq.add(t, 20));  // local, between the two shared keys
    std::int64_t v;
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(pq.remove_min(t, &v));
      order.push_back(v);
    }
    EXPECT_FALSE(pq.remove_min(t, &v));
  });
  EXPECT_TRUE((order == std::vector<std::int64_t>{10, 20, 30}));
  EXPECT_EQ(pq.size_unsafe(), 0u);
}

TEST(EdgeCases, MapPutSameKeyManyTimesInOneTx) {
  tx::OtbListMap map;
  tx::atomically([&](tx::Transaction& t) {
    for (std::int64_t v = 0; v < 20; ++v) map.put(t, 1, v);
  });
  auto snap = map.snapshot_unsafe();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].second, 19);
}

TEST(EdgeCases, RbTreeDeleteRootRepeatedly) {
  stmds::StmRbTree tree;
  for (std::int64_t k = 0; k < 64; ++k) ASSERT_TRUE(tree.add_seq(k));
  // Removing ascending keys repeatedly exercises root transplants.
  for (std::int64_t k = 0; k < 64; ++k) {
    ASSERT_TRUE(tree.remove_seq(k));
    ASSERT_GT(tree.check_invariants(), 0) << "after removing " << k;
  }
  EXPECT_EQ(tree.size_unsafe(), 0u);
}

TEST(EdgeCases, HashMapCollidingBucketChains) {
  stm::Runtime rt(stm::AlgoKind::kNOrec);
  stm::TxThread th(rt);
  stmds::StmHashMap map(1);  // single bucket: worst-case chain
  for (std::int64_t k = 0; k < 100; ++k) {
    rt.atomically(th, [&](stm::Tx& tx) { EXPECT_TRUE(map.put(tx, k, k * 2)); });
  }
  EXPECT_EQ(map.size_unsafe(), 100u);
  for (std::int64_t k = 0; k < 100; ++k) {
    std::int64_t v = 0;
    rt.atomically(th, [&](stm::Tx& tx) { EXPECT_TRUE(map.get(tx, k, &v)); });
    EXPECT_EQ(v, k * 2);
  }
}

TEST(EdgeCases, DllRemoveHeadAndTailNeighbours) {
  stm::Runtime rt(stm::AlgoKind::kNOrec);
  stm::TxThread th(rt);
  stmds::StmDll dll;
  for (std::int64_t k : {1, 2, 3}) dll.add_seq(k);
  rt.atomically(th, [&](stm::Tx& tx) {
    EXPECT_TRUE(dll.remove(tx, 1));  // head-adjacent
    EXPECT_TRUE(dll.remove(tx, 3));  // tail-adjacent
  });
  EXPECT_EQ(dll.size_unsafe(), 1u);
  EXPECT_TRUE(dll.links_consistent_unsafe());
}

TEST(EdgeCases, BinaryHeapDuplicateKeys) {
  cds::BinaryHeap heap;
  for (int i = 0; i < 10; ++i) heap.add(7);
  heap.add(3);
  EXPECT_EQ(heap.remove_min(), 3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(heap.remove_min(), 7);
  EXPECT_TRUE(heap.empty());
}

TEST(EdgeCases, BoostedPqMinBlocksThenObservesAdds) {
  boosted::BoostedHeapPQ pq;
  boosted::atomically([&](boosted::BoostedTx& t) {
    pq.add(t, 5);
    std::int64_t v = 0;
    ASSERT_TRUE(pq.min(t, &v));  // upgrade read->write lock path
    EXPECT_EQ(v, 5);
    pq.add(t, 2);
    ASSERT_TRUE(pq.min(t, &v));
    EXPECT_EQ(v, 2);
  });
}

TEST(EdgeCases, ManyShortLivedThreadsRecycleEpochSlots) {
  // More thread lifetimes than EBR slots: slots must recycle cleanly.
  cds::LazyListSet set;
  for (int wave = 0; wave < 8; ++wave) {
    std::vector<std::thread> threads;
    for (int t = 0; t < 24; ++t) {
      threads.emplace_back([&, t] {
        set.add(t);
        set.remove(t);
      });
    }
    for (auto& th : threads) th.join();
  }
  EXPECT_EQ(set.size_unsafe(), 0u);
}

TEST(EdgeCases, StmRuntimeManySequentialThreadHandles) {
  stm::Runtime rt(stm::AlgoKind::kTL2);
  stm::TVar<std::int64_t> x{0};
  for (int i = 0; i < 100; ++i) {
    stm::TxThread th(rt);
    rt.atomically(th, [&](stm::Tx& tx) { tx.write(x, tx.read(x) + 1); });
  }
  EXPECT_EQ(x.load_direct(), 100);
}

TEST(EdgeCases, NegativeKeysEverywhere) {
  tx::OtbSkipListSet set;
  tx::atomically([&](tx::Transaction& t) {
    for (std::int64_t k = -10; k <= -1; ++k) EXPECT_TRUE(set.add(t, k));
  });
  EXPECT_EQ(set.size_unsafe(), 10u);
  auto snap = set.snapshot_unsafe();
  EXPECT_EQ(snap.front(), -10);
  EXPECT_EQ(snap.back(), -1);
}

}  // namespace
}  // namespace otb
