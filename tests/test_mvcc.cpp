// Tests for the multi-version read layer (src/otb/mv.h): bounded version
// chains, snapshot-stamp draws, the abort-free snapshot_read entry point
// with its miss fallback contract, OTB_MV_VERSIONS=0 equivalence, EBR
// protection of superseded versions, and the service plane's inline
// read-only routing with its svc_read_only ledger identity.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "metrics/sink.h"
#include "otb/mv.h"
#include "otb/otb_heap_pq.h"
#include "otb/otb_list_map.h"
#include "otb/otb_list_set.h"
#include "otb/otb_skiplist_pq.h"
#include "otb/otb_skiplist_set.h"
#include "otb/runtime.h"
#include "service/service.h"

namespace otb {
namespace {

using metrics::CounterId;
using service::Request;
using service::ResponseFuture;
using service::Service;
using service::ServiceConfig;
using service::SvcStatus;
using service::Targets;

std::uint64_t counter(const metrics::MetricsSink& sink, CounterId id) {
  return sink.snapshot().counters[static_cast<std::size_t>(id)];
}

/// Fixture pinning the knob and injecting a test-local otb.tx sink, so a
/// failing assertion cannot leak either into later tests.  The knob is
/// pinned in the constructor, not SetUp(): a derived fixture's structures
/// are members built before SetUp() runs, and a node's chain is sized when
/// the node is built.
class MvccTest : public ::testing::Test {
 protected:
  MvccTest() { tx::set_mv_versions(4); }
  ~MvccTest() override { tx::set_mv_versions(previous_k_); }
  void SetUp() override { tx::set_metrics_sink(&sink_); }
  void TearDown() override { tx::set_metrics_sink(nullptr); }

  unsigned previous_k_ = tx::mv_versions();
  metrics::MetricsSink sink_;
};

// ---- MvChain unit behaviour ------------------------------------------------

TEST(MvChain, ResolvesNewestEntryAtOrBelowStamp) {
  tx::MvChain chain(4);
  int a = 0, b = 0, c = 0;
  chain.push(&a, 10);
  chain.push(&b, 20);
  chain.push(&c, 30);

  EXPECT_FALSE(chain.resolve_at(9).found);  // predates every version
  EXPECT_EQ(chain.resolve_at(10).ptr, &a);
  EXPECT_EQ(chain.resolve_at(19).ptr, &a);
  EXPECT_EQ(chain.resolve_at(20).ptr, &b);
  EXPECT_EQ(chain.resolve_at(29).ptr, &b);
  EXPECT_EQ(chain.resolve_at(1000).ptr, &c);
}

TEST(MvChain, BoundedRingEvictsOldestAndReportsIt) {
  tx::MvChain chain(2);
  int a = 0, b = 0, c = 0;
  EXPECT_FALSE(chain.push(&a, 10));  // fills
  EXPECT_FALSE(chain.push(&b, 20));  // fills
  EXPECT_TRUE(chain.push(&c, 30));   // evicts (a, 10)

  EXPECT_FALSE(chain.resolve_at(15).found);  // (a, 10) is gone
  EXPECT_EQ(chain.resolve_at(20).ptr, &b);
  EXPECT_EQ(chain.resolve_at(30).ptr, &c);
}

TEST(MvChain, DepthCountsEntriesInspected) {
  tx::MvChain chain(4);
  int a = 0, b = 0, c = 0;
  chain.push(&a, 10);
  chain.push(&b, 20);
  chain.push(&c, 30);
  EXPECT_EQ(chain.resolve_at(1000).depth, 1u);  // newest matched first
  EXPECT_EQ(chain.resolve_at(10).depth, 3u);    // walked past two newer
}

// ---- snapshot isolation over the structures --------------------------------

TEST_F(MvccTest, MapSnapshotIgnoresLaterCommits) {
  tx::OtbListMap map;
  map.put_seq(1, 10);
  map.put_seq(2, 20);

  tx::SnapshotTx snap;
  std::int64_t v = 0;
  ASSERT_TRUE(map.get_at(snap, 1, &v));  // draws the stamp
  EXPECT_EQ(v, 10);

  tx::atomically([&](tx::Transaction& t) {
    map.put(t, 1, 99);   // replace
    map.put(t, 3, 30);   // insert
    map.erase(t, 2);     // erase
  });

  // The open snapshot still reads the pre-commit state...
  ASSERT_TRUE(map.get_at(snap, 1, &v));
  EXPECT_EQ(v, 10);
  ASSERT_TRUE(map.get_at(snap, 2, &v));
  EXPECT_EQ(v, 20);
  EXPECT_FALSE(map.contains_at(snap, 3));
  // ...a range too: the walk over the current links appends the post-commit
  // pairs, and the chain walk that replaces it must drop exactly those.
  std::vector<std::pair<std::int64_t, std::int64_t>> pairs{{-1, -1}};
  ASSERT_EQ(map.range_at(snap, 0, 10, &pairs), 2u);
  EXPECT_EQ(pairs, (std::vector<std::pair<std::int64_t, std::int64_t>>{
                       {-1, -1}, {1, 10}, {2, 20}}));

  // ...and a fresh snapshot reads the post-commit state.
  tx::SnapshotTx snap2;
  ASSERT_TRUE(map.get_at(snap2, 1, &v));
  EXPECT_EQ(v, 99);
  EXPECT_FALSE(map.contains_at(snap2, 2));
  ASSERT_TRUE(map.get_at(snap2, 3, &v));
  EXPECT_EQ(v, 30);
}

TEST_F(MvccTest, RangeScanIsStableUnderConcurrentMutation) {
  tx::OtbListMap map;
  for (std::int64_t k = 0; k < 10; k += 2) map.put_seq(k, k * 100);

  tx::SnapshotTx snap;
  std::vector<std::pair<std::int64_t, std::int64_t>> out;
  ASSERT_EQ(map.range_at(snap, 0, 9, &out), 5u);  // draws the stamp

  tx::atomically([&](tx::Transaction& t) {
    map.put(t, 3, 300);  // insert inside the scanned range
    map.erase(t, 4);     // erase inside it
  });

  // Re-scan through the SAME snapshot: identical result, no invalidation.
  out.clear();
  ASSERT_EQ(map.range_at(snap, 0, 9, &out), 5u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].first, static_cast<std::int64_t>(i * 2));
    EXPECT_EQ(out[i].second, out[i].first * 100);
  }

  tx::SnapshotTx snap2;
  out.clear();
  ASSERT_EQ(map.range_at(snap2, 0, 9, &out), 5u);  // +3, -4
  EXPECT_EQ(out[1].first, 2);
  EXPECT_EQ(out[2].first, 3);
  EXPECT_EQ(out[3].first, 6);
}

TEST_F(MvccTest, ListSetAndSkipListSetSnapshotsAgree) {
  tx::OtbListSet ls;
  tx::OtbSkipListSet ss;
  for (std::int64_t k = 1; k <= 5; ++k) {
    ls.add_seq(k);
    ss.add_seq(k);
  }

  tx::SnapshotTx snap;
  EXPECT_TRUE(ls.contains_at(snap, 3));
  EXPECT_TRUE(ss.contains_at(snap, 3));

  tx::atomically([&](tx::Transaction& t) {
    ls.remove(t, 3);
    ss.remove(t, 3);
    ls.add(t, 9);
    ss.add(t, 9);
  });

  EXPECT_TRUE(ls.contains_at(snap, 3));
  EXPECT_TRUE(ss.contains_at(snap, 3));
  EXPECT_FALSE(ls.contains_at(snap, 9));
  EXPECT_FALSE(ss.contains_at(snap, 9));

  tx::SnapshotTx snap2;
  EXPECT_FALSE(ls.contains_at(snap2, 3));
  EXPECT_FALSE(ss.contains_at(snap2, 3));
  EXPECT_TRUE(ls.contains_at(snap2, 9));
  EXPECT_TRUE(ss.contains_at(snap2, 9));
}

TEST_F(MvccTest, SkipListPqMinAtReadsAsOfSnapshot) {
  tx::OtbSkipListPQ pq;
  pq.add_seq(5);
  pq.add_seq(8);

  tx::SnapshotTx snap;
  std::int64_t min = 0;
  ASSERT_TRUE(pq.min_at(snap, &min));
  EXPECT_EQ(min, 5);

  tx::atomically([&](tx::Transaction& t) {
    std::int64_t popped = 0;
    ASSERT_TRUE(pq.remove_min(t, &popped));  // pops 5
    ASSERT_TRUE(pq.add(t, 2));               // new minimum
  });

  ASSERT_TRUE(pq.min_at(snap, &min));  // the open snapshot is unmoved
  EXPECT_EQ(min, 5);
  tx::SnapshotTx snap2;
  ASSERT_TRUE(pq.min_at(snap2, &min));
  EXPECT_EQ(min, 2);

  tx::OtbSkipListPQ empty;
  tx::SnapshotTx snap3;
  EXPECT_FALSE(empty.min_at(snap3, &min));
}

// ---- bounded chains: overflow and the miss contract -------------------------

TEST_F(MvccTest, ChainOverflowRaisesSnapshotMissForOldStamps) {
  tx::set_mv_versions(2);  // tiny rings so three commits lap a chain
  tx::OtbListSet set;      // nodes created with capacity-2 chains
  set.add_seq(100);

  tx::SnapshotTx snap;
  EXPECT_TRUE(set.contains_at(snap, 100));  // stamp drawn at T0

  // Descending inserts keep head as the predecessor, so each commit pushes
  // a new HEAD-chain version; after three the ring no longer holds an entry
  // <= T0.
  for (std::int64_t k = 3; k >= 1; --k) {
    tx::atomically([&](tx::Transaction& t) { set.add(t, k); });
  }
  EXPECT_THROW(set.contains_at(snap, 100), tx::SnapshotMiss);

  // A fresh snapshot (current stamp) is served fine.
  tx::SnapshotTx snap2;
  EXPECT_TRUE(set.contains_at(snap2, 100));
  EXPECT_TRUE(set.contains_at(snap2, 3));
}

TEST_F(MvccTest, EvictionsAreAccountedAsVersionsReclaimed) {
  tx::set_mv_versions(2);
  tx::OtbListSet set;
  // Churn one key: every add/remove pair pushes head-chain versions, and
  // with capacity-2 rings most pushes evict.
  for (int i = 0; i < 8; ++i) {
    tx::atomically([&](tx::Transaction& t) { set.add(t, 42); });
    tx::atomically([&](tx::Transaction& t) { set.remove(t, 42); });
  }
  EXPECT_GT(counter(sink_, CounterId::kMvVersionsReclaimed), 0u);
}

TEST_F(MvccTest, SnapshotReadFallsBackAndCountsMissWhenKnobOff) {
  tx::set_mv_versions(0);
  tx::OtbListSet set;  // chainless nodes
  set.add_seq(1);

  bool saw = false;
  const bool snapped = tx::snapshot_read(sink_, [&](tx::SnapshotTx& snap) {
    saw = set.contains_at(snap, 1);
  });
  EXPECT_FALSE(snapped);
  EXPECT_FALSE(saw);  // fn never completed
  EXPECT_EQ(counter(sink_, CounterId::kMvSnapshotReads), 0u);
  EXPECT_EQ(counter(sink_, CounterId::kMvVersionMisses), 1u);

  // The validated path serves the same read (the caller's fallback).
  tx::atomically([&](tx::Transaction& t) { saw = set.contains(t, 1); });
  EXPECT_TRUE(saw);
}

TEST_F(MvccTest, SnapshotReadCountsSuccessAndSamplesChainDepth) {
  tx::OtbListMap map;
  for (std::int64_t k = 0; k < 8; ++k) map.put_seq(k, k);

  // Quiescent map: the read walks the current links and resolves no chain.
  std::int64_t v = 0;
  EXPECT_TRUE(tx::snapshot_read(sink_, [&](tx::SnapshotTx& snap) {
    ASSERT_TRUE(map.get_at(snap, 5, &v));
  }));
  EXPECT_EQ(v, 5);
  metrics::SinkSnapshot s = sink_.snapshot();
  EXPECT_EQ(s.counter(CounterId::kMvSnapshotReads), 1u);
  EXPECT_EQ(s.counter(CounterId::kMvVersionMisses), 0u);
  EXPECT_EQ(s.mv_chain_len.count, 0u);

  // A read whose stamp predates a commit walks the chains: one sample per
  // hop, and every sample lands in the series.
  EXPECT_TRUE(tx::snapshot_read(sink_, [&](tx::SnapshotTx& snap) {
    ASSERT_TRUE(map.get_at(snap, 5, &v));  // draws the stamp
    tx::atomically([&](tx::Transaction& t) { map.put(t, 5, 55); });
    ASSERT_TRUE(map.get_at(snap, 5, &v));
  }));
  EXPECT_EQ(v, 5);
  s = sink_.snapshot();
  EXPECT_EQ(s.counter(CounterId::kMvSnapshotReads), 2u);
  EXPECT_EQ(s.counter(CounterId::kMvVersionMisses), 0u);
  EXPECT_GT(s.mv_chain_len.count, 0u);
  std::uint64_t bucket_sum = 0;
  for (const auto b : s.mv_chain_len.log2_buckets) bucket_sum += b;
  EXPECT_EQ(bucket_sum, s.mv_chain_len.count);
}

// ---- EBR keeps superseded versions dereferenceable ---------------------------

TEST_F(MvccTest, OpenSnapshotSurvivesHeavyRetirementChurn) {
  tx::OtbListMap map;
  for (std::int64_t k = 0; k < 32; ++k) map.put_seq(k, k + 1000);

  tx::SnapshotTx snap;
  std::int64_t v = 0;
  ASSERT_TRUE(map.get_at(snap, 0, &v));  // stamp drawn

  // Erase everything, largest key first so each erase pushes a DIFFERENT
  // predecessor's chain (no ring ever overflows past the snapshot's stamp);
  // every node the snapshot can reach is now retired.
  for (std::int64_t k = 31; k >= 0; --k) {
    tx::atomically([&](tx::Transaction& t) { map.erase(t, k); });
  }
  // The snapshot's epoch guard pins the retired nodes: every key is still
  // readable, with its value, through the old stamp (ASan would flag any
  // use-after-free here).
  for (std::int64_t k = 0; k < 32; ++k) {
    ASSERT_TRUE(map.get_at(snap, k, &v)) << "key " << k;
    EXPECT_EQ(v, k + 1000);
  }
  tx::SnapshotTx snap2;
  EXPECT_FALSE(map.contains_at(snap2, 0));
}

TEST_F(MvccTest, HintedSnapshotReadsSeeOnlyReachableStatesUnderChurn) {
  // A reader thread's snapshot gets and ranges (long walks seed and read
  // the level-2 cache) against a writer churning a 256-key map whose keys
  // only ever hold k or 3k + 1: every value read is one of the two, and a
  // range is ascending and within its bounds.
  tx::OtbListMap map;
  for (std::int64_t k = 0; k < 256; k += 2) map.put_seq(k, k);
  const auto valid = [](std::int64_t k, std::int64_t v) {
    return v == k || v == 3 * k + 1;
  };
  std::atomic<bool> done{false};
  std::thread writer([&] {
    Xorshift rng{53};
    for (int i = 0; i < 4000; ++i) {
      const auto k = static_cast<std::int64_t>(rng.next_bounded(256));
      tx::atomically([&](tx::Transaction& t) {
        if (rng.next_bounded(4) == 0) {
          map.erase(t, k);
        } else {
          map.put(t, k, 3 * k + 1);
        }
      });
    }
    done.store(true, std::memory_order_release);
  });
  std::uint64_t reads = 0;
  std::uint64_t bad = 0;
  std::thread reader([&] {
    Xorshift rng{59};
    std::vector<std::pair<std::int64_t, std::int64_t>> out;
    while (!done.load(std::memory_order_acquire) || reads < 2000) {
      const auto k = static_cast<std::int64_t>(rng.next_bounded(256));
      std::int64_t v = 0;
      bool found = false;
      out.clear();
      if (!tx::snapshot_read([&](tx::SnapshotTx& s) {
            out.clear();
            found = map.get_at(s, k, &v);
            map.range_at(s, k, k + 31, &out);
          })) {
        continue;  // a version miss: the validated path would serve it
      }
      ++reads;
      if (found && !valid(k, v)) ++bad;
      std::int64_t last = k - 1;
      for (const auto& [key, value] : out) {
        if (key <= last || key > k + 31 || !valid(key, value)) ++bad;
        last = key;
      }
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(bad, 0u);
  EXPECT_GE(reads, 2000u);
}

// ---- service-plane read-only routing ----------------------------------------

class MvccServiceTest : public MvccTest {
 protected:
  Targets targets() { return Targets::standard(&map_, &set_, &heap_, &slpq_); }

  ServiceConfig config() {
    ServiceConfig cfg;
    cfg.workers = 2;
    cfg.batch_max = 4;
    cfg.queue_capacity = 64;
    cfg.metrics = &svc_sink_;
    return cfg;
  }

  tx::OtbListMap map_;
  tx::OtbListSet set_;
  tx::OtbHeapPQ heap_;
  tx::OtbSkipListPQ slpq_;
  metrics::MetricsSink svc_sink_;
};

TEST_F(MvccServiceTest, ReadOnlyScriptsBypassTheQueue) {
  Service svc(targets(), config());
  svc.start();
  ASSERT_EQ(svc.submit(service::map_put(1, 10)).wait(), SvcStatus::kOk);
  ASSERT_EQ(svc.submit(service::sl_push(7)).wait(), SvcStatus::kOk);
  const std::uint64_t enqueued_before =
      counter(svc_sink_, CounterId::kSvcEnqueued);

  // A pure-read script spanning three snapshot-capable structures.
  ResponseFuture ro = svc.submit(Request{service::map_get(1),
                                         service::set_contains(1),
                                         service::pq_min(3)});
  ASSERT_EQ(ro.wait(), SvcStatus::kOk);
  ASSERT_EQ(ro.step_count(), 3u);
  EXPECT_TRUE(ro.step(0).ok);
  EXPECT_EQ(ro.step(0).value, 10);
  EXPECT_FALSE(ro.step(1).ok);
  EXPECT_TRUE(ro.step(2).ok);
  EXPECT_EQ(ro.step(2).value, 7);

  ResponseFuture rg = svc.submit(service::map_range(0, 100));
  ASSERT_EQ(rg.wait(), SvcStatus::kOk);
  ASSERT_EQ(rg.range().size(), 1u);
  EXPECT_EQ(rg.range()[0].first, 1);
  svc.stop();

  const metrics::SinkSnapshot s = svc_sink_.snapshot();
  // Neither read consumed a queue slot or a batch...
  EXPECT_EQ(s.counter(CounterId::kSvcEnqueued), enqueued_before);
  // ...both took the snapshot route, and the ledger identity holds.
  EXPECT_EQ(s.counter(CounterId::kSvcReadOnly), 2u);
  EXPECT_EQ(s.counter(CounterId::kSvcReadOnly),
            s.counter(CounterId::kMvSnapshotReads) +
                s.counter(CounterId::kMvVersionMisses));
  EXPECT_GT(s.mv_chain_len.count, 0u);
}

TEST_F(MvccServiceTest, HeapPqAndWriteScriptsStayOnTheBatchPath) {
  Service svc(targets(), config());
  svc.start();
  ASSERT_EQ(svc.submit(service::heap_push(3)).wait(), SvcStatus::kOk);
  // kMin is a read verb, but the eager heap PQ grows no version chains, so
  // the script must run as an ordinary batch transaction.
  ResponseFuture hm = svc.submit(service::pq_min(2));
  ASSERT_EQ(hm.wait(), SvcStatus::kOk);
  EXPECT_TRUE(hm.ok());
  EXPECT_EQ(hm.value(), 3);
  // A read+write mix is not read-only either.
  ResponseFuture rw =
      svc.submit(Request{service::map_get(1), service::map_put(1, 2)});
  ASSERT_EQ(rw.wait(), SvcStatus::kOk);
  svc.stop();
  EXPECT_EQ(counter(svc_sink_, CounterId::kSvcReadOnly), 0u);
  EXPECT_EQ(counter(svc_sink_, CounterId::kSvcEnqueued), 3u);
}

TEST_F(MvccServiceTest, ReadOnlyGuardFailureIsACleanOkNoOp) {
  Service svc(targets(), config());
  svc.start();
  ResponseFuture fut = svc.submit(Request{service::map_get(5).require(),
                                          service::set_contains(5)});
  ASSERT_EQ(fut.wait(), SvcStatus::kOk);
  EXPECT_FALSE(fut.ok());
  ASSERT_EQ(fut.step_count(), 2u);
  EXPECT_TRUE(fut.step(0).ran);
  EXPECT_FALSE(fut.step(0).ok);   // the guard failed here...
  EXPECT_FALSE(fut.step(1).ran);  // ...and nothing after it executed
  svc.stop();
  EXPECT_EQ(counter(svc_sink_, CounterId::kSvcGuardAborts), 1u);
  EXPECT_EQ(counter(svc_sink_, CounterId::kSvcReadOnly), 1u);
}

TEST_F(MvccServiceTest, KnobOffRoutesReadsThroughTheQueueUnchanged) {
  tx::set_mv_versions(0);
  Service svc(targets(), config());
  svc.start();
  ASSERT_EQ(svc.submit(service::map_put(1, 10)).wait(), SvcStatus::kOk);
  ResponseFuture get = svc.submit(service::map_get(1));
  ASSERT_EQ(get.wait(), SvcStatus::kOk);
  EXPECT_TRUE(get.ok());
  EXPECT_EQ(get.value(), 10);
  svc.stop();
  const metrics::SinkSnapshot s = svc_sink_.snapshot();
  EXPECT_EQ(s.counter(CounterId::kSvcReadOnly), 0u);
  EXPECT_EQ(s.counter(CounterId::kSvcEnqueued), 2u);  // the get queued too
  EXPECT_EQ(s.batch_size.total + s.counter(CounterId::kSvcExpired),
            s.counter(CounterId::kSvcEnqueued));
}

TEST_F(MvccServiceTest, LapsedDeadlineReadOnlyExpiresOnTheQueuePath) {
  Service svc(targets(), config());
  svc.start();
  ASSERT_EQ(svc.submit(service::map_put(1, 10)).wait(), SvcStatus::kOk);
  // A read-only script whose deadline already passed at submit must NOT be
  // served by the inline snapshot route (which would complete it kOk) — it
  // diverts to the queue path, whose worker expires it under the normal
  // ledger.  deadline_ns = 1 is in the distant past of the now_ns clock.
  ResponseFuture late = svc.submit(Request{service::map_get(1)}.with_deadline(1));
  EXPECT_EQ(late.wait(), SvcStatus::kExpired);
  svc.stop();
  const metrics::SinkSnapshot s = svc_sink_.snapshot();
  EXPECT_EQ(s.counter(CounterId::kSvcReadOnly), 0u);
  EXPECT_EQ(s.counter(CounterId::kSvcExpired), 1u);
  EXPECT_EQ(s.counter(CounterId::kSvcEnqueued), 2u);  // the put + the late get
  EXPECT_EQ(s.batch_size.total + s.counter(CounterId::kSvcExpired),
            s.counter(CounterId::kSvcEnqueued));
}

/// What a client sees of one completed script.
struct ScriptOutcome {
  std::vector<service::StepResult> steps;
  bool ok = false;
  std::int64_t value = 0;
  std::vector<std::pair<std::int64_t, std::int64_t>> range;
};

TEST_F(MvccServiceTest, SnapshotRouteMatchesTheBatchPath) {
  // The same read-only scripts against identically seeded services: one
  // serves them inline on the snapshot route, the other (knob off) queues
  // every one as a batch transaction.  Clients must not tell them apart.
  const std::vector<Request> scripts = {
      // pq_min's result binds into map_get's key.
      Request{service::pq_min(3), service::map_get(0).key_from_step(0)},
      // A require that fails mid-script: the last step never runs.
      Request{service::map_get(1), service::map_get(999).require(),
              service::set_contains(2)},
      // An expecting guard that fails after a step that succeeded.
      Request{service::map_get(2), service::map_get(3).expecting(31),
              service::map_get(4)},
      // Two range steps share range_out, each reporting its own count.
      Request{service::map_range(0, 3), service::map_range(6, 8)},
      Request{service::set_contains(2), service::set_contains(3)},
  };
  auto run = [&](Targets targets, metrics::MetricsSink* sink) {
    ServiceConfig cfg = config();
    cfg.metrics = sink;
    Service svc(targets, cfg);
    svc.start();
    for (std::int64_t k = 0; k < 10; ++k) {
      EXPECT_EQ(svc.submit(service::map_put(k, k * 10)).wait(), SvcStatus::kOk);
    }
    EXPECT_EQ(svc.submit(service::set_add(2)).wait(), SvcStatus::kOk);
    EXPECT_EQ(svc.submit(service::sl_push(8)).wait(), SvcStatus::kOk);
    EXPECT_EQ(svc.submit(service::sl_push(5)).wait(), SvcStatus::kOk);
    std::vector<ScriptOutcome> out;
    for (const Request& r : scripts) {
      ResponseFuture fut = svc.submit(r);
      EXPECT_EQ(fut.wait(), SvcStatus::kOk);
      ScriptOutcome o;
      for (std::size_t i = 0; i < fut.step_count(); ++i) {
        o.steps.push_back(fut.step(i));
      }
      o.ok = fut.ok();
      o.value = fut.value();
      o.range = fut.range();
      out.push_back(std::move(o));
    }
    svc.stop();
    return out;
  };

  const std::vector<ScriptOutcome> snapped = run(targets(), &svc_sink_);
  EXPECT_EQ(counter(svc_sink_, CounterId::kSvcReadOnly), scripts.size());

  tx::set_mv_versions(0);
  tx::OtbListMap map;
  tx::OtbListSet set;
  tx::OtbHeapPQ heap;
  tx::OtbSkipListPQ slpq;
  metrics::MetricsSink queued_sink;
  const std::vector<ScriptOutcome> queued =
      run(Targets::standard(&map, &set, &heap, &slpq), &queued_sink);
  EXPECT_EQ(counter(queued_sink, CounterId::kSvcReadOnly), 0u);
  EXPECT_EQ(counter(queued_sink, CounterId::kSvcEnqueued), 13u + scripts.size());

  ASSERT_EQ(snapped.size(), queued.size());
  for (std::size_t i = 0; i < snapped.size(); ++i) {
    SCOPED_TRACE("script " + std::to_string(i));
    ASSERT_EQ(snapped[i].steps.size(), scripts[i].steps.size());
    ASSERT_EQ(queued[i].steps.size(), scripts[i].steps.size());
    for (std::size_t j = 0; j < snapped[i].steps.size(); ++j) {
      EXPECT_EQ(snapped[i].steps[j].ran, queued[i].steps[j].ran) << j;
      EXPECT_EQ(snapped[i].steps[j].ok, queued[i].steps[j].ok) << j;
      EXPECT_EQ(snapped[i].steps[j].value, queued[i].steps[j].value) << j;
    }
    EXPECT_EQ(snapped[i].ok, queued[i].ok);
    EXPECT_EQ(snapped[i].value, queued[i].value);
    EXPECT_EQ(snapped[i].range, queued[i].range);
  }
  // Spot-check the shared answers against the seeded state.
  EXPECT_EQ(snapped[0].steps[1].value, 50);  // min 5 -> map[5]
  EXPECT_FALSE(snapped[1].steps[2].ran);
  EXPECT_FALSE(snapped[2].ok);
  EXPECT_EQ(snapped[2].steps[1].value, 30);
  EXPECT_EQ(snapped[3].steps[0].value, 4);
  EXPECT_EQ(snapped[3].steps[1].value, 3);
  EXPECT_EQ(snapped[3].range.size(), 7u);
  EXPECT_TRUE(snapped[4].steps[0].ok);
  EXPECT_FALSE(snapped[4].steps[1].ok);
}

TEST_F(MvccServiceTest, StoppedServiceRejectsReadOnlySubmits) {
  Service svc(targets(), config());
  svc.start();
  svc.stop();
  ResponseFuture probe = svc.submit(service::map_get(1));
  EXPECT_EQ(probe.status(), SvcStatus::kOverloaded);
  EXPECT_EQ(counter(svc_sink_, CounterId::kSvcReadOnly), 0u);
}

}  // namespace
}  // namespace otb
