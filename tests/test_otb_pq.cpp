// Tests for the OTB priority queues (semi-optimistic heap, optimistic
// skip-list): ordering semantics, read-after-write minima, deferred
// publication, rollback, and concurrent drain exactness.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "otb/otb_heap_pq.h"
#include "otb/otb_skiplist_pq.h"
#include "otb/runtime.h"

namespace otb {
namespace {

template <typename PqT>
class OtbPqTest : public ::testing::Test {};

using PqTypes = ::testing::Types<tx::OtbHeapPQ, tx::OtbSkipListPQ>;
TYPED_TEST_SUITE(OtbPqTest, PqTypes);

template <typename PqT>
void pq_add(PqT& pq, tx::Transaction& t, std::int64_t k) {
  if constexpr (std::is_same_v<PqT, tx::OtbHeapPQ>) {
    pq.add(t, k);
  } else {
    ASSERT_TRUE(pq.add(t, k));
  }
}

TYPED_TEST(OtbPqTest, OrderedDrain) {
  TypeParam pq;
  tx::atomically([&](tx::Transaction& t) {
    for (std::int64_t k : {5, 1, 9, 3, 7}) pq_add(pq, t, k);
  });
  for (std::int64_t expected : {1, 3, 5, 7, 9}) {
    std::int64_t got_min = -1, got_removed = -1;
    tx::atomically([&](tx::Transaction& t) {
      ASSERT_TRUE(pq.min(t, &got_min));
      ASSERT_TRUE(pq.remove_min(t, &got_removed));
    });
    EXPECT_EQ(got_min, expected);
    EXPECT_EQ(got_removed, expected);
  }
  bool empty_pop = true;
  tx::atomically([&](tx::Transaction& t) {
    std::int64_t v;
    empty_pop = !pq.remove_min(t, &v);
  });
  EXPECT_TRUE(empty_pop);
}

TYPED_TEST(OtbPqTest, LocalMinimumWinsBeforePublication) {
  // A transaction that adds a key smaller than the shared minimum must see
  // its own key from removeMin, and that key must never hit shared state.
  TypeParam pq;
  pq.add_seq(100);
  tx::atomically([&](tx::Transaction& t) {
    pq_add(pq, t, 10);
    std::int64_t v = -1;
    ASSERT_TRUE(pq.remove_min(t, &v));
    EXPECT_EQ(v, 10);
  });
  EXPECT_EQ(pq.size_unsafe(), 1u);  // only 100 remains
  std::int64_t v = -1;
  tx::atomically([&](tx::Transaction& t) { ASSERT_TRUE(pq.remove_min(t, &v)); });
  EXPECT_EQ(v, 100);
}

TYPED_TEST(OtbPqTest, SharedMinimumWinsOverLargerLocalAdd) {
  TypeParam pq;
  pq.add_seq(10);
  tx::atomically([&](tx::Transaction& t) {
    pq_add(pq, t, 100);
    std::int64_t v = -1;
    ASSERT_TRUE(pq.remove_min(t, &v));
    EXPECT_EQ(v, 10);
  });
  EXPECT_EQ(pq.size_unsafe(), 1u);
  std::int64_t v = -1;
  tx::atomically([&](tx::Transaction& t) { ASSERT_TRUE(pq.remove_min(t, &v)); });
  EXPECT_EQ(v, 100);
}

TYPED_TEST(OtbPqTest, RepeatedRemoveMinWalksSuccessiveMinima) {
  TypeParam pq;
  for (std::int64_t k : {2, 4, 6, 8}) pq.add_seq(k);
  std::vector<std::int64_t> got;
  tx::atomically([&](tx::Transaction& t) {
    got.clear();
    std::int64_t v;
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(pq.remove_min(t, &v));
      got.push_back(v);
    }
  });
  EXPECT_TRUE((got == std::vector<std::int64_t>{2, 4, 6}));
  EXPECT_EQ(pq.size_unsafe(), 1u);
}

TYPED_TEST(OtbPqTest, AbortLeavesQueueUntouched) {
  TypeParam pq;
  for (std::int64_t k : {1, 2, 3}) pq.add_seq(k);
  int attempts = 0;
  tx::atomically([&](tx::Transaction& t) {
    std::int64_t v;
    ASSERT_TRUE(pq.remove_min(t, &v));
    pq_add(pq, t, 50);
    if (++attempts == 1) throw TxAbort{};
  });
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(pq.size_unsafe(), 3u);  // -1 removed, +50 added
  std::int64_t v = -1;
  tx::atomically([&](tx::Transaction& t) { ASSERT_TRUE(pq.min(t, &v)); });
  EXPECT_EQ(v, 2);
}

TYPED_TEST(OtbPqTest, ConcurrentProducerConsumerConserves) {
  TypeParam pq;
  constexpr int kProducers = 2, kEach = 300;
  std::atomic<int> produced{0}, consumed{0};
  std::vector<std::thread> threads;
  std::vector<std::atomic<int>> seen(kProducers * kEach);
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kEach; ++i) {
        tx::atomically([&](tx::Transaction& t) { pq_add(pq, t, p * kEach + i); });
        produced.fetch_add(1);
      }
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&] {
      while (consumed.load() < kProducers * kEach) {
        std::int64_t v = -1;
        bool ok = false;
        tx::atomically([&](tx::Transaction& t) { ok = pq.remove_min(t, &v); });
        if (ok) {
          seen[static_cast<std::size_t>(v)].fetch_add(1);
          consumed.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (auto& th : consumers) th.join();
  EXPECT_EQ(consumed.load(), kProducers * kEach);
  for (auto& s : seen) EXPECT_EQ(s.load(), 1);
  EXPECT_EQ(pq.size_unsafe(), 0u);
}

TEST(OtbSkipListPQ, MinIsReadOnlyAndValidated) {
  tx::OtbSkipListPQ pq;
  pq.add_seq(5);
  // Read-only transaction observing the minimum leaves no footprint.
  std::int64_t v = -1;
  tx::atomically([&](tx::Transaction& t) { ASSERT_TRUE(pq.min(t, &v)); });
  EXPECT_EQ(v, 5);
  EXPECT_EQ(pq.size_unsafe(), 1u);
}

TEST(OtbSkipListPQ, PopWithNoSharedWriteAbortsWhenASmallerKeyCommitsInFront) {
  // A pop whose transaction ends with no shared write on the queue (it
  // popped a key it added, or pushed a popped key back) has read that no
  // shared key is smaller.  A smaller key committed in front of it before
  // this transaction commits must abort it: otherwise it commits after
  // that push, so commit order (the order the service WAL replays in)
  // would put the push first, and a replayed pop would return the smaller
  // key.  Two transactions on one thread, interleaved by hand.
  enum class Case { kOwnKey, kOwnKeyEmptyQueue, kPushedBack };
  for (const Case c :
       {Case::kOwnKey, Case::kOwnKeyEmptyQueue, Case::kPushedBack}) {
    SCOPED_TRACE(static_cast<int>(c));
    tx::OtbSkipListPQ pq;
    if (c != Case::kOwnKeyEmptyQueue) pq.add_seq(5);
    tx::Transaction popper;
    std::int64_t v = -1;
    if (c == Case::kPushedBack) {
      ASSERT_TRUE(pq.remove_min(popper, &v));
      EXPECT_EQ(v, 5);
      ASSERT_TRUE(pq.add(popper, 5));  // cancels the pending remove
    } else {
      ASSERT_TRUE(pq.add(popper, 3));
      ASSERT_TRUE(pq.remove_min(popper, &v));
      EXPECT_EQ(v, 3);  // the local minimum wins
    }
    {
      tx::Transaction pusher;
      ASSERT_TRUE(pq.add(pusher, 1));
      pusher.commit();
    }
    EXPECT_THROW(popper.commit(), TxAbort);
    popper.abandon();
    EXPECT_EQ(pq.snapshot_unsafe(),
              c == Case::kOwnKeyEmptyQueue
                  ? std::vector<std::int64_t>{1}
                  : (std::vector<std::int64_t>{1, 5}));
  }
}

TEST(OtbHeapPQ, AddOnlyTransactionsDeferUntilCommit) {
  tx::OtbHeapPQ pq;
  tx::atomically([&](tx::Transaction& t) {
    pq.add(t, 3);
    // The shared heap must not see the add before commit.
    EXPECT_EQ(pq.size_unsafe(), 0u);
  });
  EXPECT_EQ(pq.size_unsafe(), 1u);
}

}  // namespace
}  // namespace otb
