// Tests for the OTB map extension: insert-or-assign and insert-if-absent
// semantics, node replacement on overwrite, the local write-set state
// machine, oracle equivalence, composition with memory transactions,
// commit-time validation of the structures a writing transaction only read,
// and of a writer's own reads against another committer's held locks.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "common/epoch.h"
#include "common/rng.h"
#include "integration/otb_stm.h"
#include "otb/otb_list_map.h"
#include "otb/otb_list_set.h"
#include "otb/otb_skiplist_set.h"
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

TEST(OtbMap, WriterCommitRevalidatesTheStructureItOnlyRead) {
  // Interleaved by hand on one thread: T1 reads map key 1 and adds set key
  // 7; T2 overwrites key 1 and commits; a read-only T3 reads the new value
  // and no key 7 and commits.  T1 read what T2 overwrote (T1 before T2)
  // and T3 missed T1's add (T3 before T1), so T1 committing too would close
  // the cycle T1 -> T2 -> T3 -> T1.  Its commit must re-validate the map.
  tx::OtbListMap map;
  tx::OtbListSet set;
  map.put_seq(1, 10);
  tx::Transaction t1;
  std::int64_t v = 0;
  ASSERT_TRUE(map.get(t1, 1, &v));
  EXPECT_EQ(v, 10);
  ASSERT_TRUE(set.add(t1, 7));
  {
    tx::Transaction t2;
    EXPECT_FALSE(map.put(t2, 1, 20));
    t2.commit();
  }
  {
    tx::Transaction t3;
    ASSERT_TRUE(map.get(t3, 1, &v));
    EXPECT_EQ(v, 20);
    EXPECT_FALSE(set.contains(t3, 7));
    t3.commit();
  }
  EXPECT_THROW(t1.commit(), TxAbort);
  t1.abandon();
  EXPECT_EQ(set.size_unsafe(), 0u);
}

TEST(OtbMap, WriterCommitRevalidatesASkipListSetItOnlyRead) {
  // The same cycle with the roles swapped: T1 finds key 5 absent from a
  // skip-list set and puts map key 1; T2 adds 5; a read-only T3 sees 5 and
  // no map key 1.
  tx::OtbSkipListSet set;
  tx::OtbListMap map;
  tx::Transaction t1;
  EXPECT_FALSE(set.contains(t1, 5));
  EXPECT_TRUE(map.put(t1, 1, 10));
  {
    tx::Transaction t2;
    EXPECT_TRUE(set.add(t2, 5));
    t2.commit();
  }
  {
    tx::Transaction t3;
    EXPECT_TRUE(set.contains(t3, 5));
    std::int64_t v = 0;
    EXPECT_FALSE(map.get(t3, 1, &v));
    t3.commit();
  }
  EXPECT_THROW(t1.commit(), TxAbort);
  t1.abandon();
  EXPECT_EQ(map.size_unsafe(), 0u);
}

/// A host whose commit stops after its lock phase, so two transactions on
/// one thread can both hold their semantic locks before either publishes.
class SteppedTx final : public tx::TxHost {
 public:
  ~SteppedTx() override { on_abort_attached(); }
  void on_operation_validate() override {
    if (!validate_attached(/*check_locks=*/true)) {
      throw TxAbort{metrics::AbortReason::kSemanticConflict};
    }
  }
  bool lock_and_validate() { return pre_commit_attached(/*use_locks=*/true); }
  void publish() {
    on_commit_attached();
    post_commit_attached();
    end();
  }

 private:
  ebr::Guard guard_;
};

TEST(OtbMap, CommittersThatEachReadTheOtherWriteCannotBothCommit) {
  // Write skew: T1 = {get 1, put 5 := v + 1}, T2 = {get 5, put 1 := v + 1}
  // on {1=10, 3=30, 5=50}.  Both lock their writes before either
  // publishes; the later one must fail on the node the earlier one holds,
  // or the map ends {1=51, 5=11}, which neither serial order gives.
  tx::OtbListMap map;
  for (std::int64_t k : {1, 3, 5}) map.put_seq(k, 10 * k);
  SteppedTx t1;
  SteppedTx t2;
  std::int64_t v = 0;
  ASSERT_TRUE(map.get(t1, 1, &v));
  map.put(t1, 5, v + 1);
  ASSERT_TRUE(map.get(t2, 5, &v));
  map.put(t2, 1, v + 1);
  ASSERT_TRUE(t1.lock_and_validate());
  EXPECT_FALSE(t2.lock_and_validate());
  t1.publish();
  EXPECT_EQ(map.snapshot_unsafe(),
            (std::vector<std::pair<std::int64_t, std::int64_t>>{
                {1, 10}, {3, 30}, {5, 11}}));
  // Locks on nodes its reads do not depend on let a committer through.
  SteppedTx t3;
  SteppedTx t4;
  ASSERT_TRUE(map.get(t3, 1, &v));
  map.put(t3, 3, v);
  ASSERT_TRUE(map.get(t4, 5, &v));
  map.put(t4, 7, v);
  ASSERT_TRUE(t3.lock_and_validate());
  EXPECT_TRUE(t4.lock_and_validate());
  t3.publish();
  t4.publish();
  EXPECT_EQ(map.snapshot_unsafe(),
            (std::vector<std::pair<std::int64_t, std::int64_t>>{
                {1, 10}, {3, 10}, {5, 11}, {7, 11}}));
}

TEST(OtbMap, SkipListSetCommittersThatEachReadTheOtherWriteCannotBothCommit) {
  // The same skew on the skip-list set of 0..63: T1 = {if 8 present:
  // remove 56}, T2 = {if 56 present: remove 8}.  Serially one key stays;
  // both committing would remove both.  Node levels are random, so T1's
  // upper-level pred locks may reach a node T2's remove depends on, and T2
  // would then fail for that instead.  A control with T2's remove alone,
  // run while T1 holds its locks, tells the two cases apart; a set where it
  // fails is rebuilt.
  for (int attempt = 0;; ++attempt) {
    ASSERT_LT(attempt, 50) << "no set with disjoint lock sets";
    tx::OtbSkipListSet set;
    for (std::int64_t k = 0; k < 64; ++k) set.add_seq(k);
    SteppedTx t1;
    SteppedTx t2;
    ASSERT_TRUE(set.contains(t1, 8));
    ASSERT_TRUE(set.remove(t1, 56));
    ASSERT_TRUE(set.contains(t2, 56));
    ASSERT_TRUE(set.remove(t2, 8));
    ASSERT_TRUE(t1.lock_and_validate());
    bool disjoint = false;
    try {
      SteppedTx control;
      set.remove(control, 8);
      disjoint = control.lock_and_validate();
    } catch (const TxAbort&) {
    }
    if (!disjoint) continue;
    EXPECT_FALSE(t2.lock_and_validate());
    t1.publish();
    const std::vector<std::int64_t> keys = set.snapshot_unsafe();
    EXPECT_EQ(keys.size(), 63u);
    EXPECT_EQ(std::count(keys.begin(), keys.end(), 56), 0);
    break;
  }
}

TEST(OtbMap, WriterCommitsWhenTheStructureItOnlyReadIsUnchanged) {
  // No interference: the read-only part validates and the write commits,
  // and a commit into another key of the read structure does not abort it.
  tx::OtbListMap map;
  tx::OtbListSet set;
  map.put_seq(1, 10);
  map.put_seq(5, 50);
  tx::Transaction t1;
  std::int64_t v = 0;
  ASSERT_TRUE(map.get(t1, 1, &v));
  ASSERT_TRUE(set.add(t1, 7));
  {
    tx::Transaction t2;
    EXPECT_FALSE(map.put(t2, 5, 55));
    t2.commit();
  }
  t1.commit();
  EXPECT_EQ(set.size_unsafe(), 1u);
}

TEST(OtbMap, Tl2MemoryWriterRevalidatesTheMapItOnlyRead) {
  // OTB-TL2 keeps memory writes outside the attached structures: a context
  // that reads the map and writes only a TVar still re-validates the map.
  integration::Runtime rt(integration::HostAlgo::kOtbTl2);
  tx::OtbListMap map;
  map.put_seq(1, 10);
  stm::TVar<std::int64_t> copy{0};
  auto t1 = rt.make_tx();
  auto t2 = rt.make_tx();
  t1->begin();
  std::int64_t v = 0;
  ASSERT_TRUE(map.get(*t1, 1, &v));
  t1->write(copy, v);
  rt.atomically(*t2, [&](integration::OtbTx& tx) { map.put(tx, 1, 20); });
  EXPECT_THROW(t1->commit(), TxAbort);
  t1->rollback();
  EXPECT_EQ(copy.load_direct(), 0);
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
