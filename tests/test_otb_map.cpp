// Tests for the OTB map extension: insert-or-assign and insert-if-absent
// semantics, node replacement on overwrite, the local write-set state
// machine, oracle equivalence, and composition with memory transactions.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "integration/otb_stm.h"
#include "otb/otb_list_map.h"
#include "otb/runtime.h"

namespace otb {
namespace {

TEST(OtbMap, PutGetEraseBasics) {
  tx::OtbListMap map;
  bool fresh = false;
  tx::atomically([&](tx::Transaction& t) { fresh = map.put(t, 1, 10); });
  EXPECT_TRUE(fresh);
  tx::atomically([&](tx::Transaction& t) { fresh = map.put(t, 1, 20); });
  EXPECT_FALSE(fresh);  // overwrite
  std::int64_t v = 0;
  bool found = false;
  tx::atomically([&](tx::Transaction& t) { found = map.get(t, 1, &v); });
  EXPECT_TRUE(found);
  EXPECT_EQ(v, 20);
  bool erased = false;
  tx::atomically([&](tx::Transaction& t) { erased = map.erase(t, 1); });
  EXPECT_TRUE(erased);
  tx::atomically([&](tx::Transaction& t) { erased = map.erase(t, 1); });
  EXPECT_FALSE(erased);
  EXPECT_EQ(map.size_unsafe(), 0u);
}

TEST(OtbMap, LocalStateMachineWithinOneTransaction) {
  tx::OtbListMap map;
  map.put_seq(5, 50);
  tx::atomically([&](tx::Transaction& t) {
    std::int64_t v = 0;
    // put on shared key -> pending replace, visible locally.
    EXPECT_FALSE(map.put(t, 5, 55));
    ASSERT_TRUE(map.get(t, 5, &v));
    EXPECT_EQ(v, 55);
    // erase on Replace -> Erase.
    EXPECT_TRUE(map.erase(t, 5));
    EXPECT_FALSE(map.get(t, 5, &v));
    // put on Erase -> Replace again.
    EXPECT_TRUE(map.put(t, 5, 56));
    ASSERT_TRUE(map.get(t, 5, &v));
    EXPECT_EQ(v, 56);
    // fresh key: insert then eliminate.
    EXPECT_TRUE(map.put(t, 9, 90));
    EXPECT_TRUE(map.erase(t, 9));
    EXPECT_FALSE(map.contains(t, 9));
  });
  auto snap = map.snapshot_unsafe();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0], (std::pair<std::int64_t, std::int64_t>{5, 56}));
}

TEST(OtbMap, MatchesStdMapOracle) {
  tx::OtbListMap map;
  std::map<std::int64_t, std::int64_t> oracle;
  Xorshift rng{77};
  for (int round = 0; round < 400; ++round) {
    const unsigned ops = 1 + rng.next_bounded(4);
    std::vector<std::tuple<unsigned, std::int64_t, std::int64_t>> program;
    for (unsigned i = 0; i < ops; ++i) {
      program.emplace_back(rng.next_bounded(3),
                           std::int64_t(rng.next_bounded(40)),
                           std::int64_t(rng.next_bounded(1000)));
    }
    std::vector<std::int64_t> tx_results;
    tx::atomically([&](tx::Transaction& t) {
      tx_results.clear();
      for (auto [op, k, v] : program) {
        switch (op) {
          case 0:
            tx_results.push_back(map.put(t, k, v));
            break;
          case 1:
            tx_results.push_back(map.erase(t, k));
            break;
          default: {
            std::int64_t out = -1;
            tx_results.push_back(map.get(t, k, &out) ? out : -1);
            break;
          }
        }
      }
    });
    std::vector<std::int64_t> oracle_results;
    for (auto [op, k, v] : program) {
      switch (op) {
        case 0:
          oracle_results.push_back(oracle.insert_or_assign(k, v).second);
          break;
        case 1:
          oracle_results.push_back(oracle.erase(k) == 1);
          break;
        default: {
          const auto it = oracle.find(k);
          oracle_results.push_back(it != oracle.end() ? it->second : -1);
          break;
        }
      }
    }
    ASSERT_EQ(tx_results, oracle_results) << "round " << round;
  }
  const auto snap = map.snapshot_unsafe();
  ASSERT_EQ(snap.size(), oracle.size());
  std::size_t i = 0;
  for (const auto& [k, v] : oracle) {
    EXPECT_EQ(snap[i].first, k);
    EXPECT_EQ(snap[i].second, v);
    ++i;
  }
}

TEST(OtbMap, InsertOnPresentKeyIsReadOnly) {
  tx::OtbListMap map;
  map.put_seq(5, 50);
  const std::uint64_t published = map.commit_seq().begin_count();
  int attempts = 0;
  tx::atomically([&](tx::Transaction& t) {
    ++attempts;
    std::int64_t v = 0;
    EXPECT_FALSE(map.insert(t, 5, 99));
    ASSERT_TRUE(map.get(t, 5, &v));
    EXPECT_EQ(v, 50);
    // No write entry, so commit locks nothing.
    EXPECT_FALSE(map.has_writes(t.descriptor(map)));
    if (attempts == 1) {
      // A concurrent insert right before the key rewrites its predecessor's
      // link.  The insert pinned only "node 5 stays unmarked", so this
      // transaction still commits on its first attempt.
      std::thread([&map] {
        tx::atomically([&](tx::Transaction& u) { EXPECT_TRUE(map.put(u, 4, 40)); });
      }).join();
    }
  });
  EXPECT_EQ(attempts, 1);
  EXPECT_EQ(map.commit_seq().begin_count(), published + 1);  // the put only
  using Pairs = std::vector<std::pair<std::int64_t, std::int64_t>>;
  EXPECT_EQ(map.snapshot_unsafe(), (Pairs{{4, 40}, {5, 50}}));
}

TEST(OtbMap, InsertOverPendingEraseOfSameValueCancelsIt) {
  tx::OtbListMap map;
  map.put_seq(5, 50);
  const std::uint64_t published = map.commit_seq().begin_count();
  tx::atomically([&](tx::Transaction& t) {
    std::int64_t v = 0;
    EXPECT_TRUE(map.erase(t, 5));
    EXPECT_TRUE(map.insert(t, 5, 50));
    ASSERT_TRUE(map.get(t, 5, &v));
    EXPECT_EQ(v, 50);
    EXPECT_FALSE(map.has_writes(t.descriptor(map)));  // erase eliminated
  });
  // Nothing was published: the original node is still the live one.
  EXPECT_EQ(map.commit_seq().begin_count(), published);
  using Pairs = std::vector<std::pair<std::int64_t, std::int64_t>>;
  EXPECT_EQ(map.snapshot_unsafe(), (Pairs{{5, 50}}));
}

TEST(OtbMap, InsertOverPendingEraseOfOtherValueReplaces) {
  tx::OtbListMap map;
  map.put_seq(5, 50);
  tx::atomically([&](tx::Transaction& t) {
    std::int64_t v = 0;
    EXPECT_TRUE(map.erase(t, 5));
    EXPECT_TRUE(map.insert(t, 5, 70));
    ASSERT_TRUE(map.get(t, 5, &v));
    EXPECT_EQ(v, 70);
    EXPECT_EQ(map.write_count(t.descriptor(map)), 1u);
  });
  using Pairs = std::vector<std::pair<std::int64_t, std::int64_t>>;
  EXPECT_EQ(map.snapshot_unsafe(), (Pairs{{5, 70}}));
}

TEST(OtbMap, InsertOverPendingInsertOrReplaceReturnsFalse) {
  tx::OtbListMap map;
  map.put_seq(5, 50);
  tx::atomically([&](tx::Transaction& t) {
    std::int64_t v = 0;
    EXPECT_TRUE(map.put(t, 9, 90));    // pending insert
    EXPECT_FALSE(map.insert(t, 9, 91));
    ASSERT_TRUE(map.get(t, 9, &v));
    EXPECT_EQ(v, 90);
    EXPECT_FALSE(map.put(t, 5, 55));   // pending replace
    EXPECT_FALSE(map.insert(t, 5, 56));
    ASSERT_TRUE(map.get(t, 5, &v));
    EXPECT_EQ(v, 55);
  });
  using Pairs = std::vector<std::pair<std::int64_t, std::int64_t>>;
  EXPECT_EQ(map.snapshot_unsafe(), (Pairs{{5, 55}, {9, 90}}));
}

TEST(OtbMap, RepeatedRangeReusesItsSegmentUnderTheOwnWriteOverlay) {
  tx::OtbListMap map;
  for (std::int64_t k = 1; k <= 9; k += 2) map.put_seq(k, 10 * k);
  using Pairs = std::vector<std::pair<std::int64_t, std::int64_t>>;
  tx::atomically([&](tx::Transaction& t) {
    Pairs first;
    EXPECT_EQ(map.range(t, 2, 8, &first), 3u);
    EXPECT_EQ(first, (Pairs{{3, 30}, {5, 50}, {7, 70}}));
    // Own writes in between: a new key, an erase and a replace inside the
    // segment, and one outside it.
    map.put(t, 4, 40);
    map.erase(t, 5);
    map.put(t, 7, 71);
    map.put(t, 11, 110);
    const std::uint64_t walks = t.tally().traversals;
    Pairs again{{0, 0}};  // appends after what the caller already holds
    EXPECT_EQ(map.range(t, 2, 8, &again), 3u);
    EXPECT_EQ(again, (Pairs{{0, 0}, {3, 30}, {4, 40}, {7, 71}}));
    EXPECT_EQ(t.tally().traversals, walks);  // re-emitted, not re-walked
    // Other bounds are another segment: walked.
    Pairs wider;
    map.range(t, 2, 11, &wider);
    EXPECT_EQ(wider, (Pairs{{3, 30}, {4, 40}, {7, 71}, {9, 90}, {11, 110}}));
    EXPECT_EQ(t.tally().traversals, walks + 1);
  });
}

TEST(OtbMap, CommitIntoAWalkedSegmentAbortsTheRepeatedRange) {
  // Two transactions on one thread, interleaved by hand: the second one
  // commits an insert into, or an erase from, the segment the first one
  // walked, so the first one's remembered nodes are stale and its repeated
  // range must abort.  After the erase the re-emission reads a retired
  // node, which the reader's epoch guard keeps alive.
  for (const bool insert : {true, false}) {
    SCOPED_TRACE(insert ? "insert" : "erase");
    tx::OtbListMap map;
    for (std::int64_t k = 1; k <= 9; k += 2) map.put_seq(k, 10 * k);
    std::vector<std::pair<std::int64_t, std::int64_t>> out;
    tx::Transaction reader;
    map.range(reader, 2, 8, &out);
    ASSERT_EQ(out.size(), 3u);
    {
      tx::Transaction writer;
      if (insert) {
        map.put(writer, 4, 40);
      } else {
        map.erase(writer, 5);
      }
      writer.commit();
    }
    EXPECT_THROW(map.range(reader, 2, 8, &out), TxAbort);
    reader.abandon();
    // A fresh attempt walks again and sees the commit.
    out.clear();
    tx::atomically([&](tx::Transaction& t) { map.range(t, 2, 8, &out); });
    EXPECT_EQ(out.size(), insert ? 4u : 2u);
  }
}

TEST(OtbMap, ConcurrentTransfersConserveSum) {
  // Balances in the map; transfers move amounts between keys atomically.
  tx::OtbListMap map;
  constexpr std::int64_t kAccounts = 16, kInitial = 100;
  for (std::int64_t a = 0; a < kAccounts; ++a) map.put_seq(a, kInitial);
  constexpr int kThreads = 4, kIters = 400;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xorshift rng{std::uint64_t(t) * 101 + 7};
      for (int i = 0; i < kIters; ++i) {
        const std::int64_t from = std::int64_t(rng.next_bounded(kAccounts));
        const std::int64_t to = std::int64_t(rng.next_bounded(kAccounts));
        tx::atomically([&](tx::Transaction& tr) {
          std::int64_t fv = 0, tv = 0;
          ASSERT_TRUE(map.get(tr, from, &fv));
          ASSERT_TRUE(map.get(tr, to, &tv));
          if (from != to) {
            map.put(tr, from, fv - 1);
            map.put(tr, to, tv + 1);
          }
        });
      }
    });
  }
  for (auto& th : threads) th.join();
  std::int64_t total = 0;
  for (const auto& [k, v] : map.snapshot_unsafe()) total += v;
  EXPECT_EQ(total, kAccounts * kInitial);
  EXPECT_EQ(map.size_unsafe(), std::size_t(kAccounts));
}

TEST(OtbMap, WorksInsideIntegratedStmTransactions) {
  integration::Runtime rt(integration::HostAlgo::kOtbNOrec);
  tx::OtbListMap map;
  stm::TVar<std::int64_t> writes{0};
  auto ctx = rt.make_tx();
  for (int i = 0; i < 50; ++i) {
    rt.atomically(*ctx, [&](integration::OtbTx& tx) {
      map.put(tx, i % 10, i);
      tx.write(writes, tx.read(writes) + 1);
    });
  }
  EXPECT_EQ(writes.load_direct(), 50);
  EXPECT_EQ(map.size_unsafe(), 10u);
}

}  // namespace
}  // namespace otb
