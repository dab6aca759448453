// Tests for the concurrent (non-transactional) substrate: lazy linked-list
// set, lazy skip-list set, and the skip-list priority queue.  Includes
// multi-threaded stress checks of the structural invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "cds/lazy_list_set.h"
#include "cds/lazy_skiplist_set.h"
#include "cds/skiplist_pq.h"
#include "common/rng.h"

namespace otb {
namespace {

// ---- sequential semantics, parameterized over both set types --------------

template <typename SetT>
class CdsSetTest : public ::testing::Test {};

using SetTypes = ::testing::Types<cds::LazyListSet, cds::LazySkipListSet>;
TYPED_TEST_SUITE(CdsSetTest, SetTypes);

TYPED_TEST(CdsSetTest, AddRemoveContainsBasics) {
  TypeParam set;
  EXPECT_FALSE(set.contains(10));
  EXPECT_TRUE(set.add(10));
  EXPECT_FALSE(set.add(10));  // no duplicates
  EXPECT_TRUE(set.contains(10));
  EXPECT_TRUE(set.remove(10));
  EXPECT_FALSE(set.remove(10));
  EXPECT_FALSE(set.contains(10));
}

TYPED_TEST(CdsSetTest, MatchesStdSetOracle) {
  TypeParam set;
  std::set<std::int64_t> oracle;
  Xorshift rng{42};
  for (int i = 0; i < 4000; ++i) {
    const auto key = static_cast<std::int64_t>(rng.next_bounded(200));
    switch (rng.next_bounded(3)) {
      case 0:
        EXPECT_EQ(set.add(key), oracle.insert(key).second);
        break;
      case 1:
        EXPECT_EQ(set.remove(key), oracle.erase(key) == 1);
        break;
      default:
        EXPECT_EQ(set.contains(key), oracle.count(key) == 1);
        break;
    }
  }
  EXPECT_EQ(set.size_unsafe(), oracle.size());
}

TYPED_TEST(CdsSetTest, ConcurrentDisjointInsertsAllLand) {
  TypeParam set;
  constexpr int kThreads = 4, kEach = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&set, t] {
      for (int i = 0; i < kEach; ++i) {
        EXPECT_TRUE(set.add(t * kEach + i));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(set.size_unsafe(), std::size_t(kThreads) * kEach);
  for (int k = 0; k < kThreads * kEach; ++k) EXPECT_TRUE(set.contains(k));
}

TYPED_TEST(CdsSetTest, ConcurrentMixedWorkloadPreservesCount) {
  // Each thread alternates add(k)/remove(k) on its own key block an even
  // number of times; the set must come back to its seeded state.
  TypeParam set;
  constexpr int kThreads = 4, kKeys = 64, kIters = 500;
  for (int k = 0; k < kThreads * kKeys; ++k) ASSERT_TRUE(set.add(k));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&set, t] {
      Xorshift rng{std::uint64_t(t) + 1};
      for (int i = 0; i < kIters; ++i) {
        const std::int64_t key = t * kKeys + std::int64_t(rng.next_bounded(kKeys));
        if (set.remove(key)) {
          EXPECT_TRUE(set.add(key));
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(set.size_unsafe(), std::size_t(kThreads) * kKeys);
}

TYPED_TEST(CdsSetTest, ContendedSameKeyAddRemoveStaysConsistent) {
  TypeParam set;
  constexpr int kThreads = 4, kIters = 2000;
  std::atomic<long> net{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&set, &net, t] {
      Xorshift rng{std::uint64_t(&set) ^ std::uint64_t(t * 977 + 1)};
      long local = 0;
      for (int i = 0; i < kIters; ++i) {
        const std::int64_t key = std::int64_t(rng.next_bounded(8));
        if (rng.chance_pct(50)) {
          if (set.add(key)) ++local;
        } else {
          if (set.remove(key)) --local;
        }
      }
      net.fetch_add(local);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(set.size_unsafe(), std::size_t(net.load()));
}

// ---- skip-list priority queue ---------------------------------------------

TEST(SkipListPQTest, PopsInOrder) {
  cds::SkipListPQ pq;
  for (std::int64_t k : {5, 1, 9, 3, 7}) EXPECT_TRUE(pq.add(k));
  std::int64_t v = 0;
  for (std::int64_t expected : {1, 3, 5, 7, 9}) {
    ASSERT_TRUE(pq.min(&v));
    EXPECT_EQ(v, expected);
    ASSERT_TRUE(pq.remove_min(&v));
    EXPECT_EQ(v, expected);
  }
  EXPECT_FALSE(pq.remove_min(&v));
  EXPECT_FALSE(pq.min(&v));
}

TEST(SkipListPQTest, ConcurrentProducersConsumersDrainExactly) {
  cds::SkipListPQ pq;
  constexpr int kProducers = 2, kConsumers = 2, kEach = 2000;
  std::atomic<int> consumed{0};
  std::atomic<bool> done_producing{false};
  std::vector<std::thread> threads;
  std::array<std::atomic<int>, kProducers * kEach> seen{};
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&pq, p] {
      for (int i = 0; i < kEach; ++i) ASSERT_TRUE(pq.add(p * kEach + i));
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      std::int64_t v = 0;
      for (;;) {
        if (pq.remove_min(&v)) {
          seen[static_cast<std::size_t>(v)].fetch_add(1);
          consumed.fetch_add(1);
        } else if (done_producing.load() && consumed.load() >= kProducers * kEach) {
          return;
        }
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[static_cast<std::size_t>(p)].join();
  done_producing = true;
  for (int c = 0; c < kConsumers; ++c) {
    threads[static_cast<std::size_t>(kProducers + c)].join();
  }
  EXPECT_EQ(consumed.load(), kProducers * kEach);
  for (auto& s : seen) EXPECT_EQ(s.load(), 1);  // each key popped exactly once
}

}  // namespace
}  // namespace otb
