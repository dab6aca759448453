// Tests for the traversal-hint layer (DESIGN.md, "Traversal hints and
// opacity"): transaction-local hints must hit on key-local operation
// sequences, the cross-transaction predecessor cache must seed the first
// traversal of a new transaction, stale hints (marked or epoch-aged
// entries) must fall back to a full head traversal while still answering
// correctly, retries must inherit pooled-descriptor hints, and the
// OTB_TRAVERSAL_HINTS=off path must match the pre-hint behaviour with zero
// hint counters.  Snapshot walks (get_at/range_at) that go long read and
// refresh the same cache: a marked cached node must be skipped, one map
// must never take another's entry, and results must match hints-off.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "common/epoch.h"
#include "common/rng.h"
#include "metrics/sink.h"
#include "otb/otb_list_map.h"
#include "otb/otb_list_set.h"
#include "otb/otb_skiplist_set.h"
#include "otb/runtime.h"
#include "otb/traversal_hints.h"

namespace otb {
namespace {

using metrics::CounterId;

struct HintCounts {
  std::uint64_t local = 0;
  std::uint64_t cached = 0;
  std::uint64_t miss = 0;
};

/// RAII sink injection + knob and thread-cache reset so hint provenance is
/// deterministic per test and failures cannot leak state forward.
class TraversalHintsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tx::set_traversal_hints(true);
    tx::set_metrics_sink(&sink_);
    tx::PredCache::clear_this_thread();
  }
  void TearDown() override {
    tx::set_metrics_sink(nullptr);
    tx::set_traversal_hints(true);
  }

  HintCounts delta() {
    const metrics::SinkSnapshot s = sink_.snapshot();
    const HintCounts now{
        s.counters[static_cast<std::size_t>(CounterId::kHintHitLocal)],
        s.counters[static_cast<std::size_t>(CounterId::kHintHitCached)],
        s.counters[static_cast<std::size_t>(CounterId::kHintMiss)]};
    const HintCounts d{now.local - last_.local, now.cached - last_.cached,
                       now.miss - last_.miss};
    last_ = now;
    return d;
  }

  metrics::MetricsSink sink_;
  HintCounts last_;
};

TEST_F(TraversalHintsTest, LocalHintsHitWithinTransaction) {
  tx::OtbListSet set;
  for (std::int64_t k = 1; k <= 8; ++k) set.add_seq(k);
  delta();

  tx::atomically([&](tx::Transaction& t) {
    for (std::int64_t k = 1; k <= 8; ++k) EXPECT_TRUE(set.contains(t, k));
  });

  // First traversal has nothing to start from; the remaining seven resume
  // from this transaction's own validated positions.
  const HintCounts d = delta();
  EXPECT_EQ(d.miss, 1u);
  EXPECT_EQ(d.local, 7u);
  EXPECT_EQ(d.cached, 0u);
}

TEST_F(TraversalHintsTest, CrossTransactionCacheSeedsFirstTraversal) {
  tx::OtbListSet set;
  for (std::int64_t k = 0; k < 32; ++k) set.add_seq(k);
  delta();

  tx::atomically([&](tx::Transaction& t) { EXPECT_TRUE(set.contains(t, 20)); });
  const HintCounts first = delta();
  EXPECT_EQ(first.miss, 1u);

  // A new transaction has no local hints (ending the last one dropped
  // them), so this hit can only come from the thread cache.
  tx::atomically([&](tx::Transaction& t) { EXPECT_TRUE(set.contains(t, 20)); });
  const HintCounts second = delta();
  EXPECT_EQ(second.cached, 1u);
  EXPECT_EQ(second.miss, 0u);
}

TEST_F(TraversalHintsTest, EndedTransactionReattachesItsDescriptorWithoutHints) {
  tx::OtbListMap map;
  for (std::int64_t k = 0; k < 32; ++k) map.put_seq(k, k);
  tx::Transaction t;
  const tx::OtbDsDesc* first = nullptr;
  tx::atomically(t, 1, [&](tx::Transaction& tr) {
    std::int64_t v = 0;
    EXPECT_TRUE(map.get(tr, 3, &v));
    EXPECT_FALSE(map.put(tr, 5, 50));
    EXPECT_TRUE(map.get(tr, 10, &v));  // leaves a live hint below key 20
    ASSERT_EQ(tr.attached().size(), 1u);
    first = tr.attached()[0].second.get();
  });

  // atomically ended the transaction: the descriptor is parked and the
  // reclamation epoch is unpinned.
  EXPECT_EQ(ebr::announced_epoch(), 0u);
  EXPECT_TRUE(t.attached().empty());
  EXPECT_EQ(t.parked(), 1u);

  // Mark a node the ended transaction read: a read entry that survived
  // the end would fail the next transaction's first validation.
  tx::atomically([&](tx::Transaction& tr) { EXPECT_TRUE(map.erase(tr, 3)); });
  tx::PredCache::clear_this_thread();  // leave only level 1 to hit
  delta();

  const metrics::AttemptReport r = tx::atomically(t, 1, [&](tx::Transaction& tr) {
    std::int64_t v = 0;
    EXPECT_TRUE(map.get(tr, 20, &v));
    ASSERT_EQ(tr.attached().size(), 1u);
    const tx::OtbDsDesc& desc = *tr.attached()[0].second;
    EXPECT_EQ(&desc, first);  // reattached from the pool, not re-made
    EXPECT_EQ(map.write_count(desc), 0u);
  });
  EXPECT_EQ(r.commits, 1u);
  // The first operation of a new transaction has no level-1 hint to hit.
  const HintCounts d = delta();
  EXPECT_EQ(d.local, 0u);
  EXPECT_EQ(d.miss, 1u);
  EXPECT_EQ(ebr::announced_epoch(), 0u);
}

TEST_F(TraversalHintsTest, RemovedPredecessorFallsBackAndStaysCorrect) {
  tx::OtbListSet set;
  for (std::int64_t k = 0; k < 32; ++k) set.add_seq(k);
  delta();

  // Warm the thread cache with node 19 (the predecessor of key 20), then
  // have ANOTHER thread remove it — its own traversal refreshes only its
  // own thread-local cache, so this thread's entry is now a marked node.
  tx::atomically([&](tx::Transaction& t) { EXPECT_TRUE(set.contains(t, 20)); });
  std::thread remover([&] {
    tx::atomically([&](tx::Transaction& t) { EXPECT_TRUE(set.remove(t, 19)); });
  });
  remover.join();
  delta();

  // The marked pre-filter rejects the stale entry; the traversal restarts
  // from the head and still answers correctly.
  tx::atomically([&](tx::Transaction& t) {
    EXPECT_TRUE(set.contains(t, 20));
    EXPECT_FALSE(set.contains(t, 19));
  });
  const HintCounts d = delta();
  EXPECT_EQ(d.cached, 0u);
  EXPECT_GE(d.miss, 1u);
}

TEST_F(TraversalHintsTest, EpochAgedCacheEntriesAreMisses) {
  tx::OtbListSet set;
  for (std::int64_t k = 0; k < 32; ++k) set.add_seq(k);
  delta();

  tx::atomically([&](tx::Transaction& t) { EXPECT_TRUE(set.contains(t, 20)); });
  delta();

  // Advance the global epoch past the age gate (each collect() bumps it).
  // The cached entry's pointer may no longer be dereferenced and must read
  // as a miss before any dereference happens.
  for (int i = 0; i < 3; ++i) ebr::collect();

  tx::atomically([&](tx::Transaction& t) { EXPECT_TRUE(set.contains(t, 20)); });
  const HintCounts d = delta();
  EXPECT_EQ(d.cached, 0u);
  EXPECT_EQ(d.miss, 1u);
}

TEST_F(TraversalHintsTest, RetryInheritsLocalHints) {
  tx::OtbListSet set;
  for (std::int64_t k = 0; k < 32; ++k) set.add_seq(k);
  delta();

  // First attempt traverses (a miss) and aborts; the pooled descriptor's
  // hints survive recycle, so the retry starts from the validated position.
  int attempt = 0;
  tx::atomically([&](tx::Transaction& t) {
    EXPECT_TRUE(set.contains(t, 20));
    if (attempt++ == 0) throw TxAbort{metrics::AbortReason::kExplicit};
  });
  EXPECT_EQ(attempt, 2);
  const HintCounts d = delta();
  EXPECT_EQ(d.local, 1u);
  EXPECT_EQ(d.miss, 1u);
}

TEST_F(TraversalHintsTest, KnobOffMatchesNoHintPathWithZeroCounters) {
  tx::set_traversal_hints(false);
  tx::OtbListSet on_ref;  // hints-on twin for result comparison
  tx::OtbListSet set;
  for (std::int64_t k = 0; k < 64; k += 2) {
    set.add_seq(k);
    on_ref.add_seq(k);
  }
  delta();

  for (std::int64_t k = 0; k < 64; ++k) {
    bool off_result = false;
    tx::atomically([&](tx::Transaction& t) { off_result = set.contains(t, k); });
    tx::set_traversal_hints(true);
    bool on_result = false;
    tx::atomically([&](tx::Transaction& t) { on_result = on_ref.contains(t, k); });
    tx::set_traversal_hints(false);
    EXPECT_EQ(off_result, on_result) << "key " << k;
  }

  // The knob-off structure ticked no hint counters...
  const metrics::SinkSnapshot s = sink_.snapshot();
  // (the interleaved hints-on twin contributes hits/misses, so count only
  // what the off-path could have produced: re-run a clean off-only block)
  sink_.reset();
  last_ = HintCounts{};
  for (std::int64_t k = 0; k < 64; ++k) {
    tx::atomically([&](tx::Transaction& t) { set.contains(t, k); });
  }
  const metrics::SinkSnapshot off_only = sink_.snapshot();
  EXPECT_EQ(off_only.counters[static_cast<std::size_t>(CounterId::kHintHitLocal)], 0u);
  EXPECT_EQ(off_only.counters[static_cast<std::size_t>(CounterId::kHintHitCached)], 0u);
  EXPECT_EQ(off_only.counters[static_cast<std::size_t>(CounterId::kHintMiss)], 0u);
  // ...but the traversal-length instrument still records (it is the A/B
  // measurement, not part of the optimisation).
  EXPECT_EQ(off_only.traversals.count, 64u);
  (void)s;
}

TEST_F(TraversalHintsTest, TraversalHistogramCountMatchesBucketSum) {
  tx::OtbListSet set;
  for (std::int64_t k = 0; k < 32; ++k) set.add_seq(k);
  delta();

  tx::atomically([&](tx::Transaction& t) {
    for (std::int64_t k = 0; k < 32; k += 4) set.contains(t, k);
  });

  const metrics::SinkSnapshot s = sink_.snapshot();
  const std::uint64_t bucket_sum =
      std::accumulate(s.traversals.log2_buckets.begin(),
                      s.traversals.log2_buckets.end(), std::uint64_t{0});
  EXPECT_EQ(s.traversals.count, bucket_sum);
  EXPECT_EQ(s.traversals.count, 8u);
  EXPECT_GT(s.traversals.total_steps, 0u);
}

TEST_F(TraversalHintsTest, ListMapHintsHitOnKeyLocalGets) {
  tx::OtbListMap map;
  for (std::int64_t k = 1; k <= 8; ++k) map.put_seq(k, k * 10);
  delta();

  tx::atomically([&](tx::Transaction& t) {
    for (std::int64_t k = 1; k <= 8; ++k) {
      std::int64_t v = 0;
      EXPECT_TRUE(map.get(t, k, &v));
      EXPECT_EQ(v, k * 10);
    }
  });

  const HintCounts d = delta();
  EXPECT_EQ(d.miss, 1u);
  EXPECT_EQ(d.local, 7u);
}

TEST_F(TraversalHintsTest, SkipListWalksFromHeadWithZeroHintCounters) {
  tx::OtbSkipListSet set;
  for (std::int64_t k = 0; k < 64; ++k) set.add_seq(k);
  delta();

  // The skip list's O(log n) find() takes no hints: key-local lookups tick
  // no hint counter, yet every lookup still lands in the traversal histogram.
  tx::atomically([&](tx::Transaction& t) {
    for (std::int64_t k = 10; k < 18; ++k) EXPECT_TRUE(set.contains(t, k));
  });

  const HintCounts d = delta();
  EXPECT_EQ(d.miss, 0u);
  EXPECT_EQ(d.local, 0u);
  EXPECT_EQ(d.cached, 0u);
  EXPECT_EQ(sink_.snapshot().traversals.count, 8u);
}

TEST_F(TraversalHintsTest, SkipListSuccessfulAddFallsBackToFullFind) {
  tx::OtbSkipListSet set;
  for (std::int64_t k = 0; k < 64; ++k) set.add_seq(k);
  delta();

  // A successful add links through the full pred/succ arrays of find(), even
  // right after a lookup of a nearby key, and must produce a correct
  // structure. No hint counter moves on the skip list.
  tx::atomically([&](tx::Transaction& t) {
    EXPECT_TRUE(set.contains(t, 10));
    EXPECT_TRUE(set.add(t, 1000));
  });
  const HintCounts d = delta();
  EXPECT_EQ(d.miss, 0u);
  EXPECT_EQ(d.local, 0u);
  EXPECT_EQ(d.cached, 0u);

  tx::atomically([&](tx::Transaction& t) { EXPECT_TRUE(set.contains(t, 1000)); });
  EXPECT_EQ(set.size_unsafe(), 65u);
  const std::vector<std::int64_t> keys = set.snapshot_unsafe();
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(keys.back(), 1000);
}

// ---- hinted snapshot walks ---------------------------------------------------

using Pairs = std::vector<std::pair<std::int64_t, std::int64_t>>;

/// Snapshot walks need version chains: holds OTB_MV_VERSIONS at 4 while a
/// test builds and reads its maps, since tier-1 also runs with chains off.
struct ChainsOn {
  ChainsOn() { tx::set_mv_versions(4); }
  ~ChainsOn() { tx::set_mv_versions(previous); }
  const unsigned previous = tx::mv_versions();
};

/// Even keys 0..198 -> value + offset: key 100 sits 50 nodes from the head,
/// well past OtbListMap::kSnapshotHintHops.
void fill_even(tx::OtbListMap& map, std::int64_t offset) {
  for (std::int64_t k = 0; k < 200; k += 2) map.put_seq(k, k + offset);
}

/// The level-2 entry a snapshot walk toward `key` would probe (nullptr when
/// none), read under a guard as the walk would.
std::int64_t cached_pred_key(const tx::OtbListMap& map, std::int64_t key) {
  ebr::Guard guard;
  const tx::PredCache::Entry* e = tx::PredCache::lookup(map.hint_owner_id(), key);
  return e != nullptr ? e->key : -1;
}

TEST_F(TraversalHintsTest, LongSnapshotWalkRefreshesTheCacheShortOneDoesNot) {
  const ChainsOn chains;
  tx::OtbListMap map;
  fill_even(map, 0);
  std::int64_t v = 0;
  ASSERT_TRUE(tx::snapshot_read(
      [&](tx::SnapshotTx& s) { EXPECT_TRUE(map.get_at(s, 20, &v)); }));
  EXPECT_EQ(cached_pred_key(map, 20), -1);  // 10 hops: no probe, no store
  ASSERT_TRUE(tx::snapshot_read(
      [&](tx::SnapshotTx& s) { EXPECT_TRUE(map.get_at(s, 102, &v)); }));
  EXPECT_EQ(cached_pred_key(map, 102), 100);
  EXPECT_EQ(v, 102);
}

TEST_F(TraversalHintsTest, SnapshotWalkSkipsAMarkedCachedPredecessor) {
  const ChainsOn chains;
  // Cache node 100 (the predecessor of 102), then have ANOTHER thread erase
  // it and put 101 between it and its old successor: the cached node is
  // marked, and its next still skips 101.  A walk that jumped to it would
  // miss the new key.
  for (const bool range : {false, true}) {
    SCOPED_TRACE(range ? "range_at" : "get_at");
    tx::PredCache::clear_this_thread();
    tx::OtbListMap map;
    fill_even(map, 0);
    std::int64_t v = 0;
    ASSERT_TRUE(tx::snapshot_read(
        [&](tx::SnapshotTx& s) { EXPECT_TRUE(map.get_at(s, 102, &v)); }));
    ASSERT_EQ(cached_pred_key(map, 101), 100);
    std::thread writer([&] {
      tx::atomically([&](tx::Transaction& t) { EXPECT_TRUE(map.erase(t, 100)); });
      tx::atomically([&](tx::Transaction& t) { EXPECT_TRUE(map.put(t, 101, 1010)); });
    });
    writer.join();
    ASSERT_EQ(cached_pred_key(map, 101), 100);  // still cached, now marked
    if (range) {
      Pairs out;
      ASSERT_TRUE(tx::snapshot_read(
          [&](tx::SnapshotTx& s) { map.range_at(s, 101, 103, &out); }));
      EXPECT_EQ(out, (Pairs{{101, 1010}, {102, 102}}));
    } else {
      bool found = false;
      ASSERT_TRUE(tx::snapshot_read(
          [&](tx::SnapshotTx& s) { found = map.get_at(s, 101, &v); }));
      EXPECT_TRUE(found);
      EXPECT_EQ(v, 1010);
    }
  }
}

TEST_F(TraversalHintsTest, SnapshotWalksNeverTakeAnotherMapsCacheEntry) {
  const ChainsOn chains;
  // Same keys, different values: a walk that jumped into the other map's
  // nodes would return that map's values.
  tx::OtbListMap a;
  tx::OtbListMap b;
  fill_even(a, 0);
  fill_even(b, 1000);
  for (int round = 0; round < 3; ++round) {
    for (std::int64_t k = 60; k < 200; k += 7) {
      for (tx::OtbListMap* m : {&a, &b}) {
        const std::int64_t offset = m == &a ? 0 : 1000;
        std::int64_t v = -1;
        bool found = false;
        Pairs out;
        ASSERT_TRUE(tx::snapshot_read([&](tx::SnapshotTx& s) {
          found = m->get_at(s, k, &v);
          m->range_at(s, k, k + 3, &out);
        }));
        EXPECT_EQ(found, k % 2 == 0) << "key " << k;
        if (found) {
          EXPECT_EQ(v, k + offset) << "key " << k;
        }
        for (const auto& [key, value] : out) EXPECT_EQ(value, key + offset);
      }
    }
  }
}

TEST_F(TraversalHintsTest, SnapshotReadsMatchWithHintsOff) {
  const ChainsOn chains;
  tx::OtbListMap map;
  Xorshift rng{41};
  for (std::int64_t k = 0; k < 256; ++k) {
    if (rng.next_bounded(4) != 0) map.put_seq(k, 3 * k + 1);
  }
  for (int i = 0; i < 400; ++i) {
    const auto k = static_cast<std::int64_t>(rng.next_bounded(256));
    std::int64_t on_v = -1;
    std::int64_t off_v = -1;
    bool on_found = false;
    bool off_found = false;
    Pairs on_out;
    Pairs off_out;
    for (const bool hints : {true, false}) {
      tx::set_traversal_hints(hints);
      ASSERT_TRUE(tx::snapshot_read([&](tx::SnapshotTx& s) {
        (hints ? on_found : off_found) = map.get_at(s, k, hints ? &on_v : &off_v);
        map.range_at(s, k, k + 20, hints ? &on_out : &off_out);
      }));
    }
    tx::set_traversal_hints(true);
    EXPECT_EQ(on_found, off_found) << "key " << k;
    EXPECT_EQ(on_v, off_v) << "key " << k;
    EXPECT_EQ(on_out, off_out) << "key " << k;
    if (i % 8 == 0) {  // churn between reads, so cached nodes go stale
      const auto w = static_cast<std::int64_t>(rng.next_bounded(256));
      tx::atomically([&](tx::Transaction& t) {
        if (!map.erase(t, w)) map.put(t, w, 3 * w + 1);
      });
    }
  }
}

}  // namespace
}  // namespace otb
