// Tests for the simulated-HTM substrate (§7.1.1): abort taxonomy
// (capacity / conflict / spurious), Hybrid NOrec fast-path + fallback
// equivalence, and the OTB HTM-commit runtime's semantics, statistics and
// per-thread host.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bounded_wait.h"
#include "common/rng.h"
#include "htm/hybrid_norec.h"
#include "htm/sim_htm.h"
#include "otb/htm_commit.h"
#include "otb/otb_list_set.h"
#include "otb/otb_skiplist_set.h"
#include "rebuild_in_place.h"

namespace otb {
namespace {

TEST(SimHtm, ReadWriteCommitRoundTrip) {
  SeqLock clock;
  stm::TVar<std::int64_t> x{5};
  htm::HtmTx tx(clock);
  ASSERT_TRUE(tx.begin());
  stm::Word v = 0;
  ASSERT_TRUE(tx.read(&x.word(), &v));
  EXPECT_EQ(stm::from_word<std::int64_t>(v), 5);
  ASSERT_TRUE(tx.write(&x.word(), stm::to_word<std::int64_t>(6)));
  ASSERT_TRUE(tx.read(&x.word(), &v));  // read-own-write
  EXPECT_EQ(stm::from_word<std::int64_t>(v), 6);
  EXPECT_EQ(x.load_direct(), 5);  // buffered until commit
  ASSERT_TRUE(tx.commit());
  EXPECT_EQ(x.load_direct(), 6);
}

TEST(SimHtm, CapacityAbortOnOversizedFootprint) {
  SeqLock clock;
  std::vector<stm::TVar<std::int64_t>> vars(htm::HtmTx::kWriteCapacity + 1);
  htm::HtmTx tx(clock);
  ASSERT_TRUE(tx.begin());
  bool ok = true;
  for (auto& v : vars) {
    ok = tx.write(&v.word(), 1);
    if (!ok) break;
  }
  EXPECT_FALSE(ok);
  EXPECT_EQ(tx.reason(), htm::AbortReason::kCapacity);
}

TEST(SimHtm, ConflictAbortWhenClockMoves) {
  SeqLock clock;
  stm::TVar<std::int64_t> x{0};
  htm::HtmTx tx(clock);
  ASSERT_TRUE(tx.begin());
  stm::Word v;
  ASSERT_TRUE(tx.read(&x.word(), &v));
  // A concurrent committer moves the clock.
  ASSERT_TRUE(clock.try_acquire(clock.load()));
  clock.release();
  EXPECT_FALSE(tx.read(&x.word(), &v));  // eager detection on next access
  EXPECT_EQ(tx.reason(), htm::AbortReason::kConflict);
}

TEST(SimHtm, CommitFailsIntoOddClock) {
  SeqLock clock;
  stm::TVar<std::int64_t> x{0};
  htm::HtmTx tx(clock);
  ASSERT_TRUE(tx.begin());
  ASSERT_TRUE(tx.write(&x.word(), 1));
  ASSERT_TRUE(clock.try_acquire(clock.load()));  // someone is committing
  EXPECT_FALSE(tx.commit());
  EXPECT_EQ(tx.reason(), htm::AbortReason::kConflict);
  clock.release();
  EXPECT_EQ(x.load_direct(), 0);  // nothing leaked
}

TEST(HybridNOrec, CountersConservedAcrossPaths) {
  htm::HybridNOrecRuntime rt;
  stm::TVar<std::int64_t> counter{0};
  constexpr int kThreads = 4, kIters = 400;
  std::atomic<std::uint64_t> hw_commits{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto th = rt.make_thread();
      for (int i = 0; i < kIters; ++i) {
        rt.atomically(*th, [&](stm::Tx& tx) {
          tx.write(counter, tx.read(counter) + 1);
        });
      }
      hw_commits.fetch_add(th->htm_stats.commits);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter.load_direct(), std::int64_t(kThreads) * kIters);
  // The fast path must actually be exercised.
  EXPECT_GT(hw_commits.load(), 0u);
}

TEST(HybridNOrec, OversizedTransactionsFallBackToSoftware) {
  htm::HybridNOrecRuntime rt;
  constexpr std::size_t kWords = htm::HtmTx::kWriteCapacity * 2;
  stm::TArray<std::int64_t> mem(kWords, 0);
  auto th = rt.make_thread();
  rt.atomically(*th, [&](stm::Tx& tx) {
    for (std::size_t w = 0; w < kWords; ++w) tx.write(mem[w], std::int64_t(w));
  });
  for (std::size_t w = 0; w < kWords; ++w) {
    EXPECT_EQ(mem[w].load_direct(), std::int64_t(w));
  }
  EXPECT_EQ(th->htm_stats.commits, 0u);  // could not fit in hardware
  EXPECT_GT(th->htm_stats.capacity_aborts, 0u);
  EXPECT_EQ(th->sw.tally().commits, 1u);
}

TEST(HybridNOrec, TornSnapshotsNeverObserved) {
  htm::HybridNOrecRuntime rt;
  constexpr std::size_t kWords = 8;
  stm::TArray<std::int64_t> mem(kWords, 0);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    auto th = rt.make_thread();
    for (std::int64_t g = 1; g <= 300; ++g) {
      rt.atomically(*th, [&](stm::Tx& tx) {
        for (std::size_t w = 0; w < kWords; ++w) tx.write(mem[w], g);
      });
    }
    stop = true;
  });
  std::thread reader([&] {
    auto th = rt.make_thread();
    while (!stop.load()) {
      bool uniform = true;
      rt.atomically(*th, [&](stm::Tx& tx) {
        const std::int64_t first = tx.read(mem[0]);
        uniform = true;
        for (std::size_t w = 1; w < kWords; ++w) {
          if (tx.read(mem[w]) != first) uniform = false;
        }
      });
      EXPECT_TRUE(uniform);
    }
  });
  writer.join();
  reader.join();
}

TEST(HybridNOrec, UserExceptionInFallbackRollsBack) {
  // No hardware attempts: the block runs straight on the NOrec fallback,
  // whose thrown attempt is rolled back and counted as an explicit abort.
  struct State {
    State() : rt(with_sink(&sink), /*htm_retries=*/0) {}
    static stm::Config with_sink(metrics::MetricsSink* s) {
      stm::Config cfg;
      cfg.metrics = s;
      return cfg;
    }
    metrics::MetricsSink sink;
    htm::HybridNOrecRuntime rt;
    stm::TVar<std::int64_t> x{1};
  };
  const auto st = std::make_shared<State>();
  auto th = st->rt.make_thread();
  EXPECT_THROW(st->rt.atomically(*th,
                                 [&](stm::Tx& tx) {
                                   tx.write(st->x, std::int64_t{2});
                                   throw std::runtime_error("user");
                                 }),
               std::runtime_error);
  EXPECT_EQ(st->x.load_direct(), 1);
  EXPECT_EQ(st->sink.counter(metrics::CounterId::kAttempts), 1u);
  EXPECT_EQ(st->sink.aborts(metrics::AbortReason::kExplicit), 1u);

  ASSERT_TRUE(test::finishes_within(test::kFollowUpLimit, st, [](State& s) {
    auto other = s.rt.make_thread();
    s.rt.atomically(*other,
                    [&](stm::Tx& tx) { tx.write(s.x, tx.read(s.x) + 10); });
  }));
  EXPECT_EQ(st->x.load_direct(), 11);
}

TEST(HybridNOrec, HardwarePathAccountsEveryAttempt) {
  // Every hardware attempt is flushed to the sink: one that a user
  // exception ends counts an attempt, an explicit abort, and its reads and
  // writes, like an attempt of the software fallback.
  metrics::MetricsSink sink;
  stm::Config cfg;
  cfg.metrics = &sink;
  htm::HybridNOrecRuntime rt(cfg);
  stm::TVar<std::int64_t> x{1};
  auto th = rt.make_thread();
  constexpr int kThrown = 1000;
  for (int i = 0; i < kThrown; ++i) {
    EXPECT_THROW(rt.atomically(*th,
                               [&](stm::Tx& tx) {
                                 tx.write(x, tx.read(x) + 1);
                                 throw std::runtime_error("user");
                               }),
                 std::runtime_error);
  }
  rt.atomically(*th, [&](stm::Tx& tx) { tx.write(x, tx.read(x) + 1); });
  EXPECT_EQ(x.load_direct(), 2);
  EXPECT_EQ(th->htm_stats.commits, 1u);

  using metrics::AbortReason;
  using metrics::CounterId;
  EXPECT_EQ(sink.counter(CounterId::kCommits), 1u);
  EXPECT_EQ(sink.aborts(AbortReason::kExplicit), std::uint64_t{kThrown});
  // The simulator's rare spurious aborts fail begin() before any read.
  const std::uint64_t spurious = sink.aborts(AbortReason::kHtmSpurious);
  EXPECT_EQ(sink.counter(CounterId::kAttempts), kThrown + 1 + spurious);
  EXPECT_EQ(sink.counter(CounterId::kReads), std::uint64_t{kThrown + 1});
  EXPECT_EQ(sink.counter(CounterId::kWrites), std::uint64_t{kThrown + 1});
}

TEST(OtbHtmCommit, SetSemanticsUnchanged) {
  tx::HtmCommitRuntime rt;
  tx::OtbListSet set;
  bool r = false;
  rt.atomically([&](tx::HtmCommitRuntime::Transaction& t) { r = set.add(t, 5); });
  EXPECT_TRUE(r);
  rt.atomically([&](tx::HtmCommitRuntime::Transaction& t) { r = set.add(t, 5); });
  EXPECT_FALSE(r);
  rt.atomically([&](tx::HtmCommitRuntime::Transaction& t) {
    EXPECT_TRUE(set.remove(t, 5));
    EXPECT_TRUE(set.add(t, 6));
  });
  EXPECT_TRUE((set.snapshot_unsafe() == std::vector<std::int64_t>{6}));
  EXPECT_GT(rt.stats().htm_commits.load(), 0u);
}

TEST(OtbHtmCommit, LargeCommitsTakeTheFallback) {
  tx::HtmCommitRuntime rt;
  tx::OtbSkipListSet set;
  rt.atomically([&](tx::HtmCommitRuntime::Transaction& t) {
    for (std::int64_t k = 0; k < 40; ++k) {  // > kWriteCapacity deferred adds
      ASSERT_TRUE(set.add(t, k));
    }
  });
  EXPECT_EQ(set.size_unsafe(), 40u);
  EXPECT_EQ(rt.stats().htm_commits.load(), 0u);
  EXPECT_EQ(rt.stats().fallback_commits.load(), 1u);
}

TEST(OtbHtmCommit, ConcurrentNetCountConserved) {
  tx::HtmCommitRuntime rt;
  tx::OtbSkipListSet set;
  constexpr int kThreads = 4, kIters = 500, kRange = 64;
  std::atomic<long> net{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xorshift rng{std::uint64_t(t) * 3 + 11};
      long local = 0;
      for (int i = 0; i < kIters; ++i) {
        const std::int64_t key = std::int64_t(rng.next_bounded(kRange));
        bool ok = false;
        if (rng.chance_pct(50)) {
          rt.atomically(
              [&](tx::HtmCommitRuntime::Transaction& tr) { ok = set.add(tr, key); });
          if (ok) ++local;
        } else {
          rt.atomically([&](tx::HtmCommitRuntime::Transaction& tr) {
            ok = set.remove(tr, key);
          });
          if (ok) --local;
        }
      }
      net.fetch_add(local);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(set.size_unsafe(), std::size_t(net.load()));
  EXPECT_GT(rt.stats().htm_commits.load(), 0u);
}

TEST(OtbHtmCommit, ThreadHostGetsAFreshDescriptorForARebuiltStructure) {
  tx::HtmCommitRuntime rt;
  const auto run = [&](auto&& body) {
    rt.atomically([&](tx::HtmCommitRuntime::Transaction& t) { body(t); });
  };
  test::expect_fresh_descriptor_after_rebuild<tx::OtbSkipListPQ>(run);
  test::expect_fresh_descriptor_after_rebuild<tx::OtbListMap>(run);
}

}  // namespace
}  // namespace otb
