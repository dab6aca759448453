// Tests for the pessimistic-boosting baselines: eager execution with
// semantic undo, abstract-lock two-phase locking, rollback correctness, and
// the deleted-holder machinery of the boosted priority queue.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "boosted/boosted_pq.h"
#include "boosted/boosted_runtime.h"
#include "boosted/boosted_set.h"
#include "cds/lazy_list_set.h"
#include "cds/lazy_skiplist_set.h"
#include "common/rng.h"

namespace otb {
namespace {

template <typename UnderT>
class BoostedSetTest : public ::testing::Test {};

using UnderTypes = ::testing::Types<cds::LazyListSet, cds::LazySkipListSet>;
TYPED_TEST_SUITE(BoostedSetTest, UnderTypes);

TYPED_TEST(BoostedSetTest, BasicTransactionalOps) {
  boosted::BoostedSet<TypeParam> set;
  bool r = false;
  boosted::atomically([&](boosted::BoostedTx& t) { r = set.add(t, 3); });
  EXPECT_TRUE(r);
  boosted::atomically([&](boosted::BoostedTx& t) { r = set.contains(t, 3); });
  EXPECT_TRUE(r);
  boosted::atomically([&](boosted::BoostedTx& t) { r = set.remove(t, 3); });
  EXPECT_TRUE(r);
  EXPECT_EQ(set.size_unsafe(), 0u);
}

TYPED_TEST(BoostedSetTest, EagerWritesAreVisibleBeforeCommit) {
  // The defining difference from OTB (§2.3): pessimistic boosting publishes
  // at encounter time.
  boosted::BoostedSet<TypeParam> set;
  boosted::atomically([&](boosted::BoostedTx& t) {
    set.add(t, 9);
    EXPECT_EQ(set.size_unsafe(), 1u);  // already in shared state
  });
}

TYPED_TEST(BoostedSetTest, AbortReplaysInverseOperations) {
  boosted::BoostedSet<TypeParam> set;
  boosted::atomically([&](boosted::BoostedTx& t) { set.add(t, 1); });
  int attempts = 0;
  boosted::atomically([&](boosted::BoostedTx& t) {
    EXPECT_TRUE(set.add(t, 2));
    EXPECT_TRUE(set.remove(t, 1));
    if (++attempts == 1) throw TxAbort{};
  });
  EXPECT_EQ(attempts, 2);
  EXPECT_FALSE(set.underlying().contains(1));
  EXPECT_TRUE(set.underlying().contains(2));
  EXPECT_EQ(set.size_unsafe(), 1u);
}

TYPED_TEST(BoostedSetTest, ConcurrentNetCountConserved) {
  boosted::BoostedSet<TypeParam> set;
  constexpr int kThreads = 4, kIters = 1000, kRange = 64;
  std::atomic<long> net{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xorshift rng{std::uint64_t(t) * 131 + 3};
      long local = 0;
      for (int i = 0; i < kIters; ++i) {
        const std::int64_t key = std::int64_t(rng.next_bounded(kRange));
        bool ok = false;
        if (rng.chance_pct(50)) {
          boosted::atomically([&](boosted::BoostedTx& tr) { ok = set.add(tr, key); });
          if (ok) ++local;
        } else {
          boosted::atomically(
              [&](boosted::BoostedTx& tr) { ok = set.remove(tr, key); });
          if (ok) --local;
        }
      }
      net.fetch_add(local);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(set.size_unsafe(), std::size_t(net.load()));
}

TYPED_TEST(BoostedSetTest, AbstractLocksSerializeSameKey) {
  // Two transactions hammering the same key: the abstract lock must make
  // add/remove pairs atomic, so the key's presence flips cleanly.
  boosted::BoostedSet<TypeParam> set;
  constexpr int kIters = 400;
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        boosted::atomically([&](boosted::BoostedTx& tr) {
          if (set.add(tr, 42)) {
            EXPECT_TRUE(set.remove(tr, 42));
          }
        });
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(set.size_unsafe(), 0u);
}

TYPED_TEST(BoostedSetTest, UserExceptionUndoesAndReleases) {
  // The eager add is undone and its abstract lock released before the
  // exception leaves atomically, so another thread can take the key.
  boosted::BoostedSet<TypeParam> set;
  EXPECT_THROW(boosted::atomically([&](boosted::BoostedTx& tr) {
                 EXPECT_TRUE(set.add(tr, 5));
                 throw std::runtime_error("user");
               }),
               std::runtime_error);
  EXPECT_FALSE(set.underlying().contains(5));
  // A few hand-driven attempts, each a bounded lock try.
  int tries = 0;
  bool added = false;
  std::thread other([&] {
    for (; tries < 3 && !added; ++tries) {
      boosted::BoostedTx tr;
      try {
        added = set.add(tr, 5);
      } catch (const TxAbort&) {
        continue;
      }
      tr.commit();
    }
  });
  other.join();
  EXPECT_TRUE(added);
  EXPECT_EQ(tries, 1);
}

TEST(BoostedPQ, OrderedDrainAndUndo) {
  boosted::BoostedHeapPQ pq;
  boosted::atomically([&](boosted::BoostedTx& t) {
    for (std::int64_t k : {5, 1, 3}) pq.add(t, k);
  });
  int attempts = 0;
  boosted::atomically([&](boosted::BoostedTx& t) {
    std::int64_t v = -1;
    ASSERT_TRUE(pq.remove_min(t, &v));
    EXPECT_EQ(v, 1);
    pq.add(t, 0);
    if (++attempts == 1) throw TxAbort{};
  });
  EXPECT_EQ(attempts, 2);
  // After one rollback and one commit: {3, 5} plus the committed {0}.
  std::int64_t v = -1;
  boosted::atomically([&](boosted::BoostedTx& t) { ASSERT_TRUE(pq.remove_min(t, &v)); });
  EXPECT_EQ(v, 0);
  boosted::atomically([&](boosted::BoostedTx& t) { ASSERT_TRUE(pq.remove_min(t, &v)); });
  EXPECT_EQ(v, 3);
  boosted::atomically([&](boosted::BoostedTx& t) { ASSERT_TRUE(pq.remove_min(t, &v)); });
  EXPECT_EQ(v, 5);
  boosted::atomically([&](boosted::BoostedTx& t) { EXPECT_FALSE(pq.remove_min(t, &v)); });
}

TEST(BoostedPQ, RolledBackAddIsNeverPopped) {
  boosted::BoostedHeapPQ pq;
  pq.add_seq(10);
  int attempts = 0;
  boosted::atomically([&](boosted::BoostedTx& t) {
    pq.add(t, 1);
    if (++attempts == 1) throw TxAbort{};
  });
  std::int64_t v = -1;
  boosted::atomically([&](boosted::BoostedTx& t) { ASSERT_TRUE(pq.remove_min(t, &v)); });
  EXPECT_EQ(v, 1);  // the retried (committed) add
  boosted::atomically([&](boosted::BoostedTx& t) { ASSERT_TRUE(pq.remove_min(t, &v)); });
  EXPECT_EQ(v, 10);
  boosted::atomically([&](boosted::BoostedTx& t) { EXPECT_FALSE(pq.remove_min(t, &v)); });
}

TEST(BoostedPQ, ConcurrentProducersConsumersConserve) {
  boosted::BoostedHeapPQ pq;
  constexpr int kProducers = 2, kEach = 400;
  std::atomic<int> consumed{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kEach; ++i) {
        boosted::atomically(
            [&](boosted::BoostedTx& t) { pq.add(t, p * kEach + i); });
      }
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&] {
      while (consumed.load() < kProducers * kEach) {
        bool ok = false;
        std::int64_t v = -1;
        boosted::atomically(
            [&](boosted::BoostedTx& t) { ok = pq.remove_min(t, &v); });
        if (ok) consumed.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (auto& th : consumers) th.join();
  EXPECT_EQ(consumed.load(), kProducers * kEach);
  EXPECT_EQ(pq.size_unsafe(), 0u);
}

}  // namespace
}  // namespace otb
