// Unit tests for the platform substrate: hashing, RNG, locks, bloom
// filters, the binary heap, epoch-based reclamation, CRC-32 and WaitWord.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cds/binary_heap.h"
#include "common/bloom_filter.h"
#include "common/crc32.h"
#include "common/epoch.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/spinlock.h"
#include "common/wait_word.h"

namespace otb {
namespace {

TEST(Hash, Mix64IsDeterministicAndSpreads) {
  EXPECT_EQ(mix64(42), mix64(42));
  EXPECT_NE(mix64(1), mix64(2));
  // Consecutive inputs should differ in many bits (avalanche smoke check).
  const std::uint64_t d = mix64(100) ^ mix64(101);
  EXPECT_GE(std::popcount(d), 16);
}

TEST(Rng, DeterministicPerSeed) {
  Xorshift a{7}, b{7}, c{8};
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
}

TEST(Rng, BoundedStaysInRange) {
  Xorshift rng{123};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_bounded(17), 17u);
  }
}

TEST(Rng, ChancePctRoughlyCalibrated) {
  Xorshift rng{99};
  int hits = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) hits += rng.chance_pct(30) ? 1 : 0;
  EXPECT_NEAR(hits / double(kTrials), 0.30, 0.03);
}

TEST(SpinLockTest, MutualExclusionUnderContention) {
  SpinLock lock;
  long counter = 0;
  constexpr int kThreads = 4, kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        std::lock_guard<SpinLock> lk(lock);
        ++counter;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, long(kThreads) * kIters);
}

TEST(SeqLockTest, AcquireReleaseParity) {
  SeqLock sl;
  EXPECT_EQ(sl.load(), 0u);
  EXPECT_TRUE(sl.try_acquire(0));
  EXPECT_EQ(sl.load(), 1u);  // odd = writer inside
  EXPECT_FALSE(sl.try_acquire(0));
  sl.release();
  EXPECT_EQ(sl.load(), 2u);
  EXPECT_EQ(sl.wait_even(), 2u);
}

TEST(VersionedLockTest, LockCycleBumpsVersion) {
  VersionedLock vl;
  const std::uint64_t v0 = VersionedLock::version_of(vl.load());
  ASSERT_TRUE(vl.try_lock());
  EXPECT_TRUE(VersionedLock::is_locked(vl.load()));
  EXPECT_FALSE(vl.try_lock());
  vl.unlock_new_version();
  EXPECT_FALSE(VersionedLock::is_locked(vl.load()));
  EXPECT_EQ(VersionedLock::version_of(vl.load()), v0 + 1);
  ASSERT_TRUE(vl.try_lock());
  vl.unlock_same_version();
  EXPECT_EQ(VersionedLock::version_of(vl.load()), v0 + 1);
}

TEST(VersionedLockTest, TryLockFromStaleSnapshotFails) {
  VersionedLock vl;
  const std::uint64_t snap = vl.load();
  ASSERT_TRUE(vl.try_lock());
  vl.unlock_new_version();
  EXPECT_FALSE(vl.try_lock_from(snap));  // version moved on
}

TEST(Bloom, NoFalseNegatives) {
  TxFilter f;
  std::vector<int> cells(100);
  for (int i = 0; i < 100; i += 3) f.add(&cells[i]);
  for (int i = 0; i < 100; i += 3) EXPECT_TRUE(f.may_contain(&cells[i]));
}

TEST(Bloom, IntersectionDetectsSharedAddress) {
  TxFilter a, b, c;
  int x = 0, y = 0, z = 0;
  a.add(&x);
  a.add(&y);
  b.add(&y);
  c.add(&z);
  EXPECT_TRUE(a.intersects(b));
  EXPECT_FALSE(a.intersects(c) && b.intersects(c) && c.may_contain(&x));
}

TEST(Bloom, ClearEmpties) {
  TxFilter f;
  int x = 0;
  EXPECT_TRUE(f.empty());
  f.add(&x);
  EXPECT_FALSE(f.empty());
  f.clear();
  EXPECT_TRUE(f.empty());
}

TEST(Bloom, UnionContainsBoth) {
  TxFilter a, b;
  int x = 0, y = 0;
  a.add(&x);
  b.add(&y);
  a.union_with(b);
  EXPECT_TRUE(a.may_contain(&x));
  EXPECT_TRUE(a.may_contain(&y));
}

TEST(BinaryHeapTest, SortsArbitraryInput) {
  cds::BinaryHeap heap;
  Xorshift rng{5};
  std::multiset<std::int64_t> oracle;
  for (int i = 0; i < 500; ++i) {
    const auto k = static_cast<std::int64_t>(rng.next_bounded(100));
    heap.add(k);
    oracle.insert(k);
  }
  for (auto expected : oracle) {
    ASSERT_FALSE(heap.empty());
    EXPECT_EQ(heap.min(), expected);
    EXPECT_EQ(heap.remove_min(), expected);
  }
  EXPECT_TRUE(heap.empty());
}

TEST(CoarseHeapPQTest, ConcurrentAddsAllDrain) {
  cds::CoarseHeapPQ pq;
  constexpr int kThreads = 4, kEach = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pq, t] {
      for (int i = 0; i < kEach; ++i) pq.add(t * kEach + i);
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(pq.size(), std::size_t(kThreads) * kEach);
  std::int64_t prev = -1, v = 0;
  std::size_t popped = 0;
  while (pq.remove_min(&v)) {
    EXPECT_LE(prev, v);
    prev = v;
    ++popped;
  }
  EXPECT_EQ(popped, std::size_t(kThreads) * kEach);
}

TEST(Epoch, RetiredNodesAreEventuallyFreed) {
  static std::atomic<int> live{0};
  struct Tracked {
    Tracked() { live.fetch_add(1); }
    ~Tracked() { live.fetch_sub(1); }
  };
  live = 0;
  {
    for (int i = 0; i < 50; ++i) ebr::retire(new Tracked);
    EXPECT_EQ(live.load(), 50);
    ebr::collect();
    ebr::collect();
    ebr::collect();
  }
  EXPECT_EQ(live.load(), 0);
}

TEST(Epoch, GuardBlocksReclamation) {
  static std::atomic<int> live{0};
  struct Tracked {
    Tracked() { live.fetch_add(1); }
    ~Tracked() { live.fetch_sub(1); }
  };
  live = 0;
  std::atomic<bool> reader_in{false}, release{false};
  std::thread reader([&] {
    ebr::Guard g;
    reader_in = true;
    while (!release) std::this_thread::yield();
  });
  while (!reader_in) std::this_thread::yield();
  std::thread writer([&] {
    ebr::retire(new Tracked);
    for (int i = 0; i < 5; ++i) ebr::collect();
    // The reader's guard pins its entry epoch: the node must still be live.
    EXPECT_EQ(live.load(), 1);
  });
  writer.join();
  release = true;
  reader.join();
  std::thread cleaner([] {
    for (int i = 0; i < 5; ++i) ebr::collect();
  });
  cleaner.join();
  EXPECT_EQ(live.load(), 0);
}

TEST(Epoch, SlotChurnBeyondCapacityRecyclesCleanly) {
  // More sequential short-lived threads than announcement slots: each one
  // must claim a recycled slot, and its retirements must be freed (by later
  // threads' collections or the orphan drain) rather than leaked.
  static std::atomic<int> live{0};
  struct Tracked {
    Tracked() { live.fetch_add(1); }
    ~Tracked() { live.fetch_sub(1); }
  };
  live = 0;
  constexpr int kChurn = static_cast<int>(ebr::kMaxSlots) * 2 + 44;  // 300
  for (int i = 0; i < kChurn; ++i) {
    std::thread t([] {
      ebr::Guard g;
      ebr::retire(new Tracked);
    });
    t.join();
  }
  std::thread cleaner([] {
    for (int i = 0; i < 5; ++i) ebr::collect();
  });
  cleaner.join();
  EXPECT_EQ(live.load(), 0);
}

TEST(Epoch, SimultaneousOversubscriptionThrowsAndRecovers) {
  // Hold every slot with parked threads; the next claimant must get the
  // diagnosable SlotsExhausted, and once holders exit their recycled slots
  // must serve new threads again.
  std::atomic<unsigned> registered{0};
  std::atomic<bool> release{false};
  std::vector<std::thread> holders;
  holders.reserve(ebr::kMaxSlots);
  std::atomic<unsigned> holder_ok{0}, holder_exhausted{0};
  for (unsigned i = 0; i < ebr::kMaxSlots; ++i) {
    holders.emplace_back([&] {
      try {
        ebr::Guard g;
        holder_ok.fetch_add(1);
        registered.fetch_add(1);
        while (!release) std::this_thread::yield();
      } catch (const ebr::SlotsExhausted&) {
        // The gtest main thread (and helpers from earlier tests that are
        // still winding down) may pin a few slots; treat those as holders.
        holder_exhausted.fetch_add(1);
        registered.fetch_add(1);
      }
    });
  }
  while (registered.load() < ebr::kMaxSlots) std::this_thread::yield();

  std::atomic<bool> threw{false};
  std::thread extra([&] {
    try {
      ebr::Guard g;
      // Possible only if some pre-existing slot was free; fine either way —
      // the point is the *diagnosable* failure mode below.
    } catch (const ebr::SlotsExhausted& e) {
      threw = true;
      EXPECT_NE(std::string(e.what()).find("reclamation slots"),
                std::string::npos);
    }
  });
  extra.join();
  // With every slot pinned by holders the extra thread must have thrown,
  // unless the process had spare slots because some holders themselves hit
  // exhaustion (already-registered main/helper threads).
  EXPECT_TRUE(threw.load() || holder_exhausted.load() > 0);

  release = true;
  for (auto& t : holders) t.join();

  // Recovery: slots were recycled on exit, a fresh thread registers fine.
  std::atomic<bool> recovered{false};
  std::thread after([&] {
    ebr::Guard g;
    recovered = true;
  });
  after.join();
  EXPECT_TRUE(recovered.load());
}

/// The textbook one-byte-per-step CRC-32, kept here as the reference the
/// sliced implementation must match.
std::uint32_t crc32_bytewise(const unsigned char* p, std::size_t len,
                             std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, CheckValue) {
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

TEST(Crc32, SeedChainsIncrementalUpdates) {
  const char msg[] = "optimistic transactional boosting, one record at a time";
  const std::size_t n = sizeof(msg) - 1;
  const std::uint32_t whole = crc32(msg, n);
  for (std::size_t cut = 0; cut <= n; ++cut) {
    EXPECT_EQ(crc32(msg + cut, n - cut, crc32(msg, cut)), whole) << cut;
  }
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  unsigned char buf[256 + 8];
  Xorshift rng{2014};
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng.next());
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 256; ++len) {
      ASSERT_EQ(crc32(buf + off, len, 0x5EEDu),
                crc32_bytewise(buf + off, len, 0x5EEDu))
          << "offset " << off << " length " << len;
    }
  }
}

// A lost wake parks a thread forever, so each WaitWord test below hangs
// (until the test timeout) rather than fails when the protocol is wrong.

TEST(WaitWordTest, PingPongHandsOffEveryRound) {
  constexpr std::uint32_t kRounds = 100000;
  WaitWord ping, pong;
  std::thread other([&] {
    for (std::uint32_t i = 1; i <= kRounds; ++i) {
      EXPECT_EQ(ping.wait(i - 1), i);
      pong.store(i);
      pong.wake();
    }
  });
  for (std::uint32_t i = 1; i <= kRounds; ++i) {
    ping.store(i);
    ping.wake();
    EXPECT_EQ(pong.wait(i - 1), i);
  }
  other.join();
}

TEST(WaitWordTest, ParkedWaiterIsWokenByStoreAndWake) {
  WaitWord word;
  std::uint32_t seen = 0;
  std::thread waiter([&] { seen = word.wait(0); });
  // Long past the spin-and-yield prelude: the waiter is parked in the
  // kernel by the time the store lands.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  word.store(7);
  word.wake();
  waiter.join();
  EXPECT_EQ(seen, 7u);
}

}  // namespace
}  // namespace otb
