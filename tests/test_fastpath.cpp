// Tests for the commit-sequence gated validation fast path and the
// zero-allocation retry machinery: the O(1) path must fire on quiescent
// reads, full validation must resume (and the snapshot re-extend) after a
// concurrent commit, the OTB_VALIDATION_FAST_PATH knob must force the full
// path when disabled, and non-TxAbort exceptions escaping an atomic block
// must release all held state (the catch-all regression).  Hosts that run
// many transactions give a structure rebuilt at a destroyed one's address a
// fresh descriptor and park a bounded number of them.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "metrics/sink.h"
#include "otb/otb_heap_pq.h"
#include "otb/otb_list_set.h"
#include "otb/otb_skiplist_set.h"
#include "otb/runtime.h"
#include "rebuild_in_place.h"

namespace otb {
namespace {

using metrics::CounterId;

struct Counts {
  std::uint64_t fast = 0;
  std::uint64_t full = 0;
};

Counts counts(const metrics::MetricsSink& sink) {
  const metrics::SinkSnapshot s = sink.snapshot();
  return {s.counters[static_cast<std::size_t>(CounterId::kValidationsFast)],
          s.counters[static_cast<std::size_t>(CounterId::kValidationsFull)]};
}

/// RAII sink injection + knob restore so a failing assertion cannot leak
/// test-local metrics state into later tests.
class FastPathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tx::set_validation_fast_path(true);
    tx::set_metrics_sink(&sink_);
  }
  void TearDown() override {
    tx::set_metrics_sink(nullptr);
    tx::set_validation_fast_path(true);
  }

  Counts delta() {
    const Counts now = counts(sink_);
    const Counts d{now.fast - last_.fast, now.full - last_.full};
    last_ = now;
    return d;
  }

  metrics::MetricsSink sink_;
  Counts last_;
};

TEST_F(FastPathTest, QuiescentReadsHitFastPathAfterFirstValidation) {
  tx::OtbListSet set;
  for (std::int64_t k = 1; k <= 8; ++k) set.add_seq(k);
  delta();

  tx::atomically([&](tx::Transaction& t) {
    for (std::int64_t k = 1; k <= 8; ++k) EXPECT_TRUE(set.contains(t, k));
  });

  // First post-validation is full (no snapshot yet) and extends the
  // snapshot; with no concurrent publication the remaining 7 are O(1).
  const Counts d = delta();
  EXPECT_EQ(d.full, 1u);
  EXPECT_EQ(d.fast, 7u);
}

TEST_F(FastPathTest, FullValidationResumesAfterConcurrentCommit) {
  tx::OtbListSet set;
  for (std::int64_t k = 1; k <= 8; ++k) set.add_seq(k);
  delta();

  // Long-running reader held open across another transaction's commit.  A
  // manual Transaction flushes its tally only through atomically(), so we
  // read the counters off the tally directly.
  tx::Transaction reader;
  EXPECT_TRUE(set.contains(reader, 1));  // full (no snapshot yet)
  EXPECT_TRUE(set.contains(reader, 2));  // fast
  EXPECT_EQ(reader.tally().validations_full, 1u);
  EXPECT_EQ(reader.tally().validations_fast, 1u);

  // A committed writer moves the structure's commit sequence.  Key 100 is
  // past every key the reader has read, so the reader's snapshot survives
  // the full re-validation and can be extended again.
  tx::atomically([&](tx::Transaction& t) { EXPECT_TRUE(set.add(t, 100)); });
  const Counts d = delta();  // the writer's own post-validation (fresh desc)
  EXPECT_EQ(d.full, 1u);
  EXPECT_EQ(d.fast, 0u);

  EXPECT_TRUE(set.contains(reader, 3));  // sequence moved: full again
  EXPECT_TRUE(set.contains(reader, 4));  // re-extended snapshot: fast again
  EXPECT_EQ(reader.tally().validations_full, 2u);
  EXPECT_EQ(reader.tally().validations_fast, 2u);

  reader.commit();  // read-only; releases nothing but closes cleanly
}

TEST_F(FastPathTest, KnobOffForcesFullValidation) {
  tx::set_validation_fast_path(false);
  tx::OtbListSet set;
  for (std::int64_t k = 1; k <= 8; ++k) set.add_seq(k);
  delta();

  tx::atomically([&](tx::Transaction& t) {
    for (std::int64_t k = 1; k <= 8; ++k) EXPECT_TRUE(set.contains(t, k));
  });

  const Counts d = delta();
  EXPECT_EQ(d.fast, 0u);
  EXPECT_EQ(d.full, 8u);
}

TEST_F(FastPathTest, SkipListSetGatesValidationToo) {
  tx::OtbSkipListSet set;
  for (std::int64_t k = 1; k <= 8; ++k) set.add_seq(k);
  delta();

  tx::atomically([&](tx::Transaction& t) {
    for (std::int64_t k = 1; k <= 8; ++k) EXPECT_TRUE(set.contains(t, k));
  });

  const Counts d = delta();
  EXPECT_EQ(d.full, 1u);
  EXPECT_EQ(d.fast, 7u);
}

TEST_F(FastPathTest, WriterCommitInvalidatesOtherThreadSnapshotObservably) {
  // The gate must never let a stale snapshot satisfy validation: a reader
  // whose read-set is actually broken by a concurrent commit still aborts.
  tx::OtbListSet set;
  for (std::int64_t k = 1; k <= 4; ++k) set.add_seq(k);

  tx::Transaction reader;
  EXPECT_TRUE(set.contains(reader, 2));
  // Remove the node the reader's snapshot depends on.
  tx::atomically([&](tx::Transaction& t) { EXPECT_TRUE(set.remove(t, 2)); });
  // Next operation's post-validation must take the full path (sequence
  // moved) and fail.
  EXPECT_THROW(set.contains(reader, 3), TxAbort);
  reader.abandon();
}

// ---- catch-all abandon regression (non-TxAbort exceptions) ------------------

TEST_F(FastPathTest, UserExceptionReleasesHeapPqLock) {
  // The heap PQ takes its global lock eagerly on remove_min; before the
  // catch-all, a user exception escaped tx::atomically without on_abort,
  // leaving the lock held and the eager effects applied forever.
  tx::OtbHeapPQ pq;
  pq.add_seq(5);
  pq.add_seq(9);

  EXPECT_THROW(tx::atomically([&](tx::Transaction& t) {
                 pq.add(t, 1);
                 std::int64_t out = 0;
                 EXPECT_TRUE(pq.remove_min(t, &out));  // forces the lock
                 EXPECT_EQ(out, 1);
                 throw std::runtime_error("user bug");
               }),
               std::runtime_error);

  // Lock released and eager effects rolled back: the queue still works and
  // holds exactly the seeded keys.
  std::int64_t out = 0;
  tx::atomically([&](tx::Transaction& t) {
    EXPECT_TRUE(pq.remove_min(t, &out));
  });
  EXPECT_EQ(out, 5);
  EXPECT_EQ(pq.size_unsafe(), 1u);

  const metrics::SinkSnapshot s = sink_.snapshot();
  EXPECT_GT(
      s.aborts[static_cast<std::size_t>(metrics::AbortReason::kExplicit)], 0u);
}

TEST_F(FastPathTest, UserExceptionLeavesSetUnpublished) {
  tx::OtbListSet set;
  set.add_seq(1);
  EXPECT_THROW(tx::atomically([&](tx::Transaction& t) {
                 EXPECT_TRUE(set.add(t, 2));
                 throw std::runtime_error("user bug");
               }),
               std::runtime_error);
  EXPECT_EQ(set.size_unsafe(), 1u);
  bool present = true;
  tx::atomically([&](tx::Transaction& t) { present = set.contains(t, 2); });
  EXPECT_FALSE(present);
}

TEST_F(FastPathTest, RetriesReuseDescriptorsAndCommitCorrectly) {
  // An attempt that aborts recycles its descriptors; the retry must start
  // from genuinely reset state (no stale write-set or snapshot) and the
  // final commit must publish exactly once.
  tx::OtbListSet set;
  set.add_seq(1);
  int attempts = 0;
  tx::atomically([&](tx::Transaction& t) {
    ++attempts;
    EXPECT_TRUE(set.add(t, 42));
    EXPECT_TRUE(set.contains(t, 42));
    if (attempts < 3) throw TxAbort{metrics::AbortReason::kExplicit};
  });
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(set.size_unsafe(), 2u);
  bool present = false;
  tx::atomically([&](tx::Transaction& t) { present = set.contains(t, 42); });
  EXPECT_TRUE(present);
}

TEST_F(FastPathTest, EndedTransactionRereadsTheTimingFlag) {
  // A host that runs many transactions picks up a timing toggle made
  // between two of them: each transaction reads the flag as it begins
  // (perfbench's traced run toggles it per window under a service's
  // worker).
  tx::OtbListSet set;
  for (std::int64_t k = 0; k < 8; ++k) set.add_seq(k);
  tx::set_collect_timing(false);
  tx::Transaction t;
  tx::atomically(t, 1, [&](tx::Transaction& tr) { EXPECT_TRUE(set.contains(tr, 1)); });
  const std::uint64_t untimed = t.tally().ns_validation;
  tx::set_collect_timing(true);
  tx::atomically(t, 1, [&](tx::Transaction& tr) {
    for (std::int64_t k = 0; k < 8; ++k) EXPECT_TRUE(set.contains(tr, k));
  });
  const std::uint64_t timed = t.tally().ns_validation;
  tx::set_collect_timing(false);
  EXPECT_EQ(untimed, 0u);
  EXPECT_GT(timed, 0u);
}

// ---- one host lifetime (DESIGN.md "One host lifetime") ----------------------

TEST_F(FastPathTest, ReusedTransactionGetsAFreshDescriptorForARebuiltStructure) {
  tx::Transaction host;
  const auto run = [&](auto&& body) {
    tx::atomically(host, 0, [&](tx::Transaction& t) { body(t); });
  };
  test::expect_fresh_descriptor_after_rebuild<tx::OtbSkipListPQ>(run);
  test::expect_fresh_descriptor_after_rebuild<tx::OtbListMap>(run);
}

TEST_F(FastPathTest, ThreadHostGetsAFreshDescriptorForARebuiltStructure) {
  const tx::Transaction* first = nullptr;
  const auto run = [&](auto&& body) {
    tx::atomically([&](tx::Transaction& t) {
      if (first == nullptr) first = &t;
      EXPECT_EQ(&t, first);  // every block runs on the thread's one host
      body(t);
    });
  };
  test::expect_fresh_descriptor_after_rebuild<tx::OtbSkipListPQ>(run);
  test::expect_fresh_descriptor_after_rebuild<tx::OtbListMap>(run);
}

TEST_F(FastPathTest, NestedAtomicallyCommitsBoth) {
  tx::OtbListSet outer;
  tx::OtbListSet inner;
  const tx::Transaction* thread_host = nullptr;
  tx::atomically([&](tx::Transaction& t) {
    thread_host = &t;
    EXPECT_TRUE(outer.add(t, 1));
    tx::atomically([&](tx::Transaction& u) {
      EXPECT_NE(&u, &t);  // the outer block holds the thread's host
      EXPECT_TRUE(inner.add(u, 2));
    });
  });
  EXPECT_EQ(outer.snapshot_unsafe(), std::vector<std::int64_t>{1});
  EXPECT_EQ(inner.snapshot_unsafe(), std::vector<std::int64_t>{2});
  // The thread's host is free again, also after a block an exception left.
  EXPECT_THROW(
      tx::atomically([](tx::Transaction&) { throw std::runtime_error("user"); }),
      std::runtime_error);
  tx::atomically([&](tx::Transaction& t) { EXPECT_EQ(&t, thread_host); });
}

TEST_F(FastPathTest, HostParksAtMostTheBoundOverManyShortLivedMaps) {
  tx::Transaction host;
  for (std::int64_t i = 0; i < 10000; ++i) {
    tx::OtbListMap map;
    map.put_seq(1, i);
    std::int64_t v = -1;
    tx::atomically(host, 0,
                   [&](tx::Transaction& t) { EXPECT_TRUE(map.get(t, 1, &v)); });
    ASSERT_EQ(v, i);
    ASSERT_LE(host.parked(), tx::TxHost::kMaxParked);
  }
  EXPECT_EQ(host.parked(), tx::TxHost::kMaxParked);
}

}  // namespace
}  // namespace otb
