// Tests for the Chapter-4 integration layer: transactions that mix OTB
// data-structure operations with raw STM memory reads/writes must stay
// atomic and consistent, under both host algorithms (OTB-NOrec, OTB-TL2).
// Includes the Algorithm 7 test case the paper uses to justify correctness:
// transactionally maintained success counters must match the set's state.
// A context parks its descriptors across blocks, and a structure rebuilt
// at a destroyed one's address gets a fresh one.  A user exception rolls a
// block back, and timed blocks leave one sample per phase and attempt.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bounded_wait.h"
#include "common/rng.h"
#include "integration/otb_stm.h"
#include "otb/otb_heap_pq.h"
#include "otb/otb_list_map.h"
#include "otb/otb_list_set.h"
#include "otb/otb_skiplist_pq.h"
#include "otb/otb_skiplist_set.h"
#include "rebuild_in_place.h"

namespace otb::integration {
namespace {

class IntegrationTest : public ::testing::TestWithParam<HostAlgo> {};

INSTANTIATE_TEST_SUITE_P(Hosts, IntegrationTest,
                         ::testing::Values(HostAlgo::kOtbNOrec, HostAlgo::kOtbTl2),
                         [](const auto& info) {
                           return info.param == HostAlgo::kOtbNOrec ? "OtbNOrec"
                                                                    : "OtbTl2";
                         });

TEST_P(IntegrationTest, MixedSetOpAndMemoryWrite) {
  Runtime rt(GetParam());
  tx::OtbListSet set;
  stm::TVar<std::int64_t> added{0};
  auto ctx = rt.make_tx();
  rt.atomically(*ctx, [&](OtbTx& tx) {
    if (set.add(tx, 7)) {
      tx.write(added, tx.read(added) + 1);
    }
  });
  EXPECT_EQ(set.size_unsafe(), 1u);
  EXPECT_EQ(added.load_direct(), 1);
  // Second insertion fails, counter untouched.
  rt.atomically(*ctx, [&](OtbTx& tx) {
    if (set.add(tx, 7)) {
      tx.write(added, tx.read(added) + 1);
    }
  });
  EXPECT_EQ(added.load_direct(), 1);
}

TEST_P(IntegrationTest, Algorithm7CountersMatchSetState) {
  // The paper's integration test case (§4.3.3): per-outcome counters updated
  // in the same transaction as the set operation; at quiescence the counters
  // must exactly reconcile with the set contents.
  Runtime rt(GetParam());
  tx::OtbSkipListSet set;
  stm::TVar<std::int64_t> ok_add{0}, fail_add{0}, ok_rem{0}, fail_rem{0};
  constexpr int kThreads = 4, kIters = 250, kRange = 48;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto ctx = rt.make_tx();
      Xorshift rng{std::uint64_t(t) * 7919 + 13};
      for (int i = 0; i < kIters; ++i) {
        const std::int64_t key = std::int64_t(rng.next_bounded(kRange));
        if (rng.chance_pct(50)) {
          rt.atomically(*ctx, [&](OtbTx& tx) {
            if (set.add(tx, key)) {
              tx.write(ok_add, tx.read(ok_add) + 1);
            } else {
              tx.write(fail_add, tx.read(fail_add) + 1);
            }
          });
        } else {
          rt.atomically(*ctx, [&](OtbTx& tx) {
            if (set.remove(tx, key)) {
              tx.write(ok_rem, tx.read(ok_rem) + 1);
            } else {
              tx.write(fail_rem, tx.read(fail_rem) + 1);
            }
          });
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ok_add.load_direct() + fail_add.load_direct() +
                ok_rem.load_direct() + fail_rem.load_direct(),
            std::int64_t(kThreads) * kIters);
  EXPECT_EQ(std::size_t(ok_add.load_direct() - ok_rem.load_direct()),
            set.size_unsafe());
}

TEST_P(IntegrationTest, SetAndMemoryAbortTogether) {
  Runtime rt(GetParam());
  tx::OtbListSet set;
  stm::TVar<std::int64_t> x{0};
  auto ctx = rt.make_tx();
  int attempts = 0;
  rt.atomically(*ctx, [&](OtbTx& tx) {
    set.add(tx, 1);
    tx.write(x, std::int64_t{99});
    if (++attempts == 1) throw TxAbort{};
  });
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(set.size_unsafe(), 1u);
  EXPECT_EQ(x.load_direct(), 99);
}

TEST_P(IntegrationTest, UserExceptionRollsBackAndReleases) {
  // The heap PQ takes its lock eagerly on remove_min; the rollback must
  // release it along with the set's deferred add and the memory write.
  struct State {
    explicit State(HostAlgo algo) : rt(algo, with_sink(&sink)) {}
    static stm::Config with_sink(metrics::MetricsSink* s) {
      stm::Config cfg;
      cfg.metrics = s;
      return cfg;
    }
    metrics::MetricsSink sink;
    Runtime rt;
    tx::OtbListSet set;
    tx::OtbHeapPQ pq;
    stm::TVar<std::int64_t> x{1};
  };
  const auto st = std::make_shared<State>(GetParam());
  st->pq.add_seq(3);
  auto ctx = st->rt.make_tx();
  EXPECT_THROW(st->rt.atomically(*ctx,
                                 [&](OtbTx& tx) {
                                   EXPECT_TRUE(st->set.add(tx, 4));
                                   std::int64_t min = 0;
                                   EXPECT_TRUE(st->pq.remove_min(tx, &min));
                                   tx.write(st->x, std::int64_t{2});
                                   throw std::runtime_error("user");
                                 }),
               std::runtime_error);
  EXPECT_EQ(st->set.size_unsafe(), 0u);
  EXPECT_EQ(st->pq.size_unsafe(), 1u);
  EXPECT_EQ(st->x.load_direct(), 1);
  EXPECT_TRUE(ctx->attached().empty());
  EXPECT_EQ(st->sink.counter(metrics::CounterId::kAttempts), 1u);
  EXPECT_EQ(st->sink.aborts(metrics::AbortReason::kExplicit), 1u);

  ASSERT_TRUE(test::finishes_within(test::kFollowUpLimit, st, [](State& s) {
    auto other = s.rt.make_tx();
    s.rt.atomically(*other, [&](OtbTx& tx) {
      std::int64_t min = 0;
      EXPECT_TRUE(s.pq.remove_min(tx, &min));
      EXPECT_EQ(min, 3);
      EXPECT_TRUE(s.set.add(tx, 4));
      tx.write(s.x, tx.read(s.x) + 10);
    });
  }));
  EXPECT_EQ(st->set.size_unsafe(), 1u);
  EXPECT_EQ(st->pq.size_unsafe(), 0u);
  EXPECT_EQ(st->x.load_direct(), 11);
}

TEST_P(IntegrationTest, TimedBlocksLeaveOneSamplePerPhaseAndAttempt) {
  // With timing on, every writing block leaves one attempt-phase and one
  // commit-phase sample, under either host.
  metrics::MetricsSink sink;
  stm::Config cfg;
  cfg.metrics = &sink;
  cfg.collect_timing = true;
  Runtime rt(GetParam(), cfg);
  tx::OtbListSet set;
  stm::TVar<std::int64_t> added{0};
  auto ctx = rt.make_tx();
  constexpr std::uint64_t kBlocks = 200;
  for (std::uint64_t i = 0; i < kBlocks; ++i) {
    rt.atomically(*ctx, [&](OtbTx& tx) {
      EXPECT_TRUE(set.add(tx, std::int64_t(i)));
      tx.write(added, tx.read(added) + 1);
    });
  }
  const metrics::SinkSnapshot s = sink.snapshot();
  EXPECT_EQ(s.counter(metrics::CounterId::kAttempts), kBlocks);
  EXPECT_EQ(s.phase(metrics::Phase::kAttempt).count, kBlocks);
  EXPECT_EQ(s.phase(metrics::Phase::kCommit).count, kBlocks);
}

TEST_P(IntegrationTest, TwoStructuresAndMemoryCompose) {
  // Producer/consumer over an OTB priority queue plus an OTB set plus a
  // memory counter: the whole triple must move atomically.
  Runtime rt(GetParam());
  tx::OtbSkipListPQ queue;
  tx::OtbSkipListSet done;
  stm::TVar<std::int64_t> processed{0};
  for (std::int64_t k = 1; k <= 40; ++k) queue.add_seq(k);
  constexpr int kThreads = 2;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto ctx = rt.make_tx();
      for (;;) {
        bool empty = false;
        rt.atomically(*ctx, [&](OtbTx& tx) {
          std::int64_t v;
          if (!queue.remove_min(tx, &v)) {
            empty = true;
            return;
          }
          ASSERT_TRUE(done.add(tx, v));
          tx.write(processed, tx.read(processed) + 1);
        });
        if (empty) break;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(processed.load_direct(), 40);
  EXPECT_EQ(done.size_unsafe(), 40u);
  EXPECT_EQ(queue.size_unsafe(), 0u);
}

TEST_P(IntegrationTest, ReadOnlyMixedTransactionsAreConsistent) {
  Runtime rt(GetParam());
  tx::OtbListSet set;
  stm::TVar<std::int64_t> count{0};  // invariant: count == |set|
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    auto ctx = rt.make_tx();
    Xorshift rng{77};
    for (int i = 0; i < 300; ++i) {
      const std::int64_t key = std::int64_t(rng.next_bounded(32));
      rt.atomically(*ctx, [&](OtbTx& tx) {
        if (set.add(tx, key)) {
          tx.write(count, tx.read(count) + 1);
        } else if (set.remove(tx, key)) {
          tx.write(count, tx.read(count) - 1);
        }
      });
    }
    stop = true;
  });
  std::thread reader([&] {
    auto ctx = rt.make_tx();
    Xorshift rng{78};
    while (!stop.load()) {
      std::int64_t observed = -1;
      std::int64_t probe_hits = 0;
      rt.atomically(*ctx, [&](OtbTx& tx) {
        observed = tx.read(count);
        probe_hits = 0;
        for (std::int64_t k = 0; k < 32; ++k) {
          if (set.contains(tx, k)) ++probe_hits;
        }
      });
      EXPECT_EQ(observed, probe_hits) << "count/set snapshot diverged";
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(std::size_t(count.load_direct()), set.size_unsafe());
}

TEST_P(IntegrationTest, CommittedBlockParksItsDescriptorsForTheNext) {
  Runtime rt(GetParam());
  tx::OtbListMap map;
  map.put_seq(1, 10);
  stm::TVar<std::int64_t> reads{0};
  auto ctx = rt.make_tx();
  const tx::OtbDsDesc* desc[2] = {nullptr, nullptr};
  for (const tx::OtbDsDesc*& d : desc) {
    rt.atomically(*ctx, [&](OtbTx& tx) {
      std::int64_t v = 0;
      EXPECT_TRUE(map.get(tx, 1, &v));
      tx.write(reads, tx.read(reads) + 1);
      d = tx.attached().front().second.get();
    });
    EXPECT_TRUE(ctx->attached().empty());
    EXPECT_EQ(ctx->parked(), 1u);
  }
  EXPECT_EQ(desc[0], desc[1]);
  EXPECT_EQ(reads.load_direct(), 2);
}

TEST_P(IntegrationTest, ContextGetsAFreshDescriptorForARebuiltStructure) {
  Runtime rt(GetParam());
  auto ctx = rt.make_tx();
  const auto run = [&](auto&& body) {
    rt.atomically(*ctx, [&](OtbTx& tx) { body(tx); });
  };
  test::expect_fresh_descriptor_after_rebuild<tx::OtbSkipListPQ>(run);
  test::expect_fresh_descriptor_after_rebuild<tx::OtbListMap>(run);
}

}  // namespace
}  // namespace otb::integration
