// Tier-1 tests of the transactional service plane: script round-trips over
// every registered structure (including transactional range), multi-op
// atomic scripts with result bindings and guards, admission-time script
// validation, the failure edges of the subsystem — queue-full rejection,
// deadline expiry while queued, a spent attempt budget under injected
// aborts, and stop()-while-loaded drain with no lost completions
// — plus service metrics accounting, enum vocabulary exhaustiveness, and a
// loopback smoke of the binary TCP adapter in both wire versions.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/tx_abort.h"
#include "metrics/sink.h"
#include "otb/otb_heap_pq.h"
#include "otb/otb_list_map.h"
#include "otb/mv.h"
#include "otb/otb_list_set.h"
#include "otb/otb_skiplist_pq.h"
#include "service/net.h"
#include "service/service.h"

namespace otb {
namespace {

using metrics::CounterId;
using service::Request;
using service::ResponseFuture;
using service::Service;
using service::ServiceConfig;
using service::Step;
using service::StructureKind;
using service::SvcStatus;
using service::Targets;
using service::Verb;

using service::heap_pop_min;
using service::heap_push;
using service::map_contains;
using service::map_erase;
using service::map_get;
using service::map_put;
using service::map_range;
using service::set_add;
using service::set_contains;
using service::set_remove;
using service::sl_pop_min;
using service::sl_push;

std::uint64_t counter(const metrics::MetricsSink& sink, CounterId id) {
  return sink.snapshot().counters[static_cast<std::size_t>(id)];
}

/// Everything-registered fixture with a test-local metrics sink.
class ServiceTest : public ::testing::Test {
 protected:
  Targets targets() {
    return Targets::standard(&map_, &set_, &heap_, &slpq_);
  }

  ServiceConfig config() {
    ServiceConfig cfg;
    cfg.workers = 2;
    cfg.batch_max = 4;
    cfg.queue_capacity = 64;
    cfg.metrics = &sink_;
    return cfg;
  }

  tx::OtbListMap map_;
  tx::OtbListSet set_;
  tx::OtbHeapPQ heap_;
  tx::OtbSkipListPQ slpq_;
  metrics::MetricsSink sink_;
};

TEST_F(ServiceTest, RoundTripsEveryOp) {
  Service svc(targets(), config());
  svc.start();

  EXPECT_TRUE(svc.submit(map_put(10, 100)).wait() == SvcStatus::kOk);
  EXPECT_TRUE(svc.submit(map_put(20, 200)).wait() == SvcStatus::kOk);
  ResponseFuture get = svc.submit(map_get(10));
  EXPECT_EQ(get.wait(), SvcStatus::kOk);
  EXPECT_TRUE(get.ok());
  EXPECT_EQ(get.value(), 100);

  ResponseFuture erase = svc.submit(map_erase(10));
  EXPECT_EQ(erase.wait(), SvcStatus::kOk);
  EXPECT_TRUE(erase.ok());
  ResponseFuture miss = svc.submit(map_get(10));
  EXPECT_EQ(miss.wait(), SvcStatus::kOk);
  EXPECT_FALSE(miss.ok());

  ResponseFuture add = svc.submit(set_add(7));
  EXPECT_EQ(add.wait(), SvcStatus::kOk);
  EXPECT_TRUE(add.ok());
  ResponseFuture has = svc.submit(set_contains(7));
  EXPECT_EQ(has.wait(), SvcStatus::kOk);
  EXPECT_TRUE(has.ok());
  ResponseFuture rm = svc.submit(set_remove(7));
  EXPECT_EQ(rm.wait(), SvcStatus::kOk);
  EXPECT_TRUE(rm.ok());

  EXPECT_EQ(svc.submit(heap_push(5)).wait(), SvcStatus::kOk);
  EXPECT_EQ(svc.submit(heap_push(3)).wait(), SvcStatus::kOk);
  ResponseFuture pop = svc.submit(heap_pop_min());
  EXPECT_EQ(pop.wait(), SvcStatus::kOk);
  EXPECT_TRUE(pop.ok());
  EXPECT_EQ(pop.value(), 3);

  EXPECT_EQ(svc.submit(sl_push(9)).wait(), SvcStatus::kOk);
  ResponseFuture spop = svc.submit(sl_pop_min());
  EXPECT_EQ(spop.wait(), SvcStatus::kOk);
  EXPECT_TRUE(spop.ok());
  EXPECT_EQ(spop.value(), 9);

  svc.stop();
  EXPECT_GT(counter(sink_, CounterId::kSvcEnqueued), 0u);
  EXPECT_GT(counter(sink_, CounterId::kSvcBatches), 0u);
}

// ---- multi-op scripts ------------------------------------------------------

TEST_F(ServiceTest, ScriptSpansHeterogeneousStructuresAtomically) {
  Service svc(targets(), config());
  svc.start();
  // Seed the skip-list PQ, then atomically pop its minimum and record it in
  // the map under the popped key (result binding) while tagging the set.
  ASSERT_EQ(svc.submit(sl_push(42)).wait(), SvcStatus::kOk);
  ASSERT_EQ(svc.submit(sl_push(17)).wait(), SvcStatus::kOk);
  ResponseFuture fut = svc.submit(
      Request{sl_pop_min().require(),
              map_put(0, 999).key_from_step(0),
              set_add(7)});
  ASSERT_EQ(fut.wait(), SvcStatus::kOk);
  EXPECT_TRUE(fut.ok());
  ASSERT_EQ(fut.step_count(), 3u);
  EXPECT_EQ(fut.step(0).value, 17);  // popped the minimum
  EXPECT_TRUE(fut.step(1).ok);
  EXPECT_TRUE(fut.step(2).ok);
  // The put landed under the POPPED key, not the literal 0.
  ResponseFuture probe = svc.submit(map_get(17));
  ASSERT_EQ(probe.wait(), SvcStatus::kOk);
  EXPECT_TRUE(probe.ok());
  EXPECT_EQ(probe.value(), 999);
  ResponseFuture probe0 = svc.submit(map_get(0));
  ASSERT_EQ(probe0.wait(), SvcStatus::kOk);
  EXPECT_FALSE(probe0.ok());
  svc.stop();
}

TEST_F(ServiceTest, GuardAbortRollsBackWholeScript) {
  Service svc(targets(), config());
  svc.start();
  // The PQ is empty: the required pop fails, so the puts after it must not
  // reach the map — atomically nothing happened.
  ResponseFuture fut = svc.submit(
      Request{map_put(1, 11), sl_pop_min().require(), map_put(2, 22)});
  ASSERT_EQ(fut.wait(), SvcStatus::kOk);
  EXPECT_FALSE(fut.ok());
  ASSERT_EQ(fut.step_count(), 3u);
  EXPECT_TRUE(fut.step(0).ran);
  EXPECT_TRUE(fut.step(0).ok);     // the attempt's put "succeeded"...
  EXPECT_TRUE(fut.step(1).ran);
  EXPECT_FALSE(fut.step(1).ok);    // ...but the guard failed here
  EXPECT_FALSE(fut.step(2).ran);   // and nothing after it executed
  // ...and none of it committed.
  ResponseFuture p1 = svc.submit(map_get(1));
  ASSERT_EQ(p1.wait(), SvcStatus::kOk);
  EXPECT_FALSE(p1.ok());
  svc.stop();
  EXPECT_EQ(counter(sink_, CounterId::kSvcGuardAborts), 1u);
}

TEST_F(ServiceTest, ExpectGuardIsCompareAndPop) {
  Service svc(targets(), config());
  svc.start();
  ASSERT_EQ(svc.submit(sl_push(5)).wait(), SvcStatus::kOk);
  // Wrong expectation: pops would return 5, caller insists on 4 — abort.
  ResponseFuture miss =
      svc.submit(Request{sl_pop_min().expecting(4), map_erase(5)});
  ASSERT_EQ(miss.wait(), SvcStatus::kOk);
  EXPECT_FALSE(miss.ok());
  // The 5 must still be there (the pop rolled back)...
  ResponseFuture hit =
      svc.submit(Request{sl_pop_min().expecting(5)});
  ASSERT_EQ(hit.wait(), SvcStatus::kOk);
  EXPECT_TRUE(hit.ok());
  EXPECT_EQ(hit.value(), 5);
  // ...and now it is gone.
  ResponseFuture empty = svc.submit(sl_pop_min());
  ASSERT_EQ(empty.wait(), SvcStatus::kOk);
  EXPECT_FALSE(empty.ok());
  svc.stop();
}

TEST_F(ServiceTest, GuardAbortInsideCoalescedBatchGetsSoloVerdict) {
  ServiceConfig cfg = config();
  cfg.workers = 1;
  cfg.batch_max = 8;
  Service svc(targets(), cfg);
  // Pre-load one batch before start(): one PQ element, then two scripts
  // competing for it, plus filler.  Coalesced into one transaction, one
  // script's required pop fails against the other's — the victim must be
  // deferred and re-run solo, where exactly one wins and one gets a clean
  // guard failure (never a completion from inside an aborted batch).
  std::vector<ResponseFuture> futs;
  futs.push_back(svc.submit(sl_push(1)));
  futs.push_back(svc.submit(Request{sl_pop_min().require(), set_add(100)}));
  futs.push_back(svc.submit(Request{sl_pop_min().require(), set_add(200)}));
  for (int i = 0; i < 4; ++i) futs.push_back(svc.submit(map_put(i, i)));
  svc.start();
  for (auto& f : futs) {
    ASSERT_EQ(f.wait(), SvcStatus::kOk);
  }
  const int winners = (futs[1].ok() ? 1 : 0) + (futs[2].ok() ? 1 : 0);
  EXPECT_EQ(winners, 1);
  EXPECT_TRUE(futs[0].ok());
  for (std::size_t i = 3; i < futs.size(); ++i) EXPECT_TRUE(futs[i].ok());
  svc.stop();
  // Ledger: every admitted request is accounted to exactly one batch.
  const metrics::SinkSnapshot s = sink_.snapshot();
  EXPECT_EQ(s.batch_size.total + s.counter(CounterId::kSvcExpired),
            s.counter(CounterId::kSvcEnqueued));
}

// ---- admission-time validation ---------------------------------------------

TEST_F(ServiceTest, MalformedScriptsFailAtSubmit) {
  Service svc(targets(), config());
  svc.start();
  // Empty script.
  EXPECT_EQ(svc.submit(Request{}).wait(), SvcStatus::kFailed);
  // Verb incompatible with the slot's kind (map slot, PQ verb).
  Step bad = map_get(1);
  bad.verb = Verb::kPopMin;
  EXPECT_EQ(svc.submit(Request{bad}).wait(), SvcStatus::kFailed);
  // Unknown slot.
  Step out_of_range = map_get(1, /*sid=*/9);
  EXPECT_EQ(svc.submit(Request{out_of_range}).wait(), SvcStatus::kFailed);
  // Forward binding (step 0 cannot bind to itself or later).
  EXPECT_EQ(svc.submit(Request{map_get(1).key_from_step(0)}).wait(),
            SvcStatus::kFailed);
  EXPECT_EQ(
      svc.submit(Request{map_put(1, 1), map_get(2).key_from_step(5)}).wait(),
      SvcStatus::kFailed);
  // Over the script-length cap.
  ServiceConfig tight = config();
  tight.max_steps = 2;
  Service svc2(targets(), tight);
  svc2.start();
  EXPECT_EQ(
      svc2.submit(Request{map_get(1), map_get(2), map_get(3)}).wait(),
      SvcStatus::kFailed);
  EXPECT_EQ(svc2.submit(Request{map_get(1), map_get(2)}).wait(),
            SvcStatus::kOk);
  svc2.stop();
  svc.stop();
  EXPECT_EQ(counter(sink_, CounterId::kSvcFailed), 6u);
  // Failed-at-submit requests never enter the enqueue ledger.
  const metrics::SinkSnapshot s = sink_.snapshot();
  EXPECT_EQ(s.batch_size.total + s.counter(CounterId::kSvcExpired),
            s.counter(CounterId::kSvcEnqueued));
}

TEST_F(ServiceTest, UnregisteredTargetFails) {
  Targets only_map = Targets::standard(&map_);
  ServiceConfig cfg = config();
  Service svc(only_map, cfg);
  svc.start();
  ResponseFuture f = svc.submit(heap_push(1));
  EXPECT_EQ(f.wait(), SvcStatus::kFailed);
  svc.stop();
  EXPECT_EQ(counter(sink_, CounterId::kSvcFailed), 1u);
}

// ---- range overlay edge cases through the service API ----------------------

TEST_F(ServiceTest, RangeReturnsSortedWindowWithOverlay) {
  Service svc(targets(), config());
  svc.start();
  for (std::int64_t k = 0; k < 20; k += 2) {
    ASSERT_EQ(svc.submit(map_put(k, k * 10)).wait(), SvcStatus::kOk);
  }
  ResponseFuture r = svc.submit(map_range(4, 11));
  ASSERT_EQ(r.wait(), SvcStatus::kOk);
  const auto& pairs = r.range();
  ASSERT_EQ(pairs.size(), 4u);  // 4, 6, 8, 10
  EXPECT_EQ(r.value(), 4);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(pairs[i].first, static_cast<std::int64_t>(4 + 2 * i));
    EXPECT_EQ(pairs[i].second, pairs[i].first * 10);
  }
  svc.stop();
}

TEST_F(ServiceTest, RangeSeesSameScriptEraseAndPut) {
  Service svc(targets(), config());
  svc.start();
  for (std::int64_t k = 0; k < 10; ++k) {
    ASSERT_EQ(svc.submit(map_put(k, k * 10)).wait(), SvcStatus::kOk);
  }
  // One script: erase 4, overwrite 6, insert 15, then range over [3, 16].
  // The range must observe THIS script's own write-set overlay: no 4, new
  // value at 6, and the fresh 15.
  ResponseFuture fut = svc.submit(Request{map_erase(4).require(),
                                          map_put(6, 606),
                                          map_put(15, 150),
                                          map_range(3, 16)});
  ASSERT_EQ(fut.wait(), SvcStatus::kOk);
  // Top-level ok() is the AND of step oks and the overwrite-put reports
  // ok == false (key 6 was present), so check the steps individually.
  ASSERT_EQ(fut.step_count(), 4u);
  EXPECT_TRUE(fut.step(0).ok);   // erase found 4
  EXPECT_FALSE(fut.step(1).ok);  // put 6 overwrote
  EXPECT_TRUE(fut.step(2).ok);   // put 15 inserted
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(fut.step(i).ran);
  const auto& pairs = fut.range();
  EXPECT_EQ(fut.step(3).value, static_cast<std::int64_t>(pairs.size()));
  std::set<std::int64_t> keys;
  for (const auto& [k, v] : pairs) keys.insert(k);
  EXPECT_EQ(keys.count(4), 0u);   // erased-in-same-tx key is invisible
  EXPECT_EQ(keys.count(15), 1u);  // put-then-range sees the new key
  for (const auto& [k, v] : pairs) {
    if (k == 6) {
      EXPECT_EQ(v, 606);  // overwritten value, not the old one
    }
  }
  // keys 3..16 present: 3,5,6,7,8,9,15 (0..9 seeded minus 4, plus 15).
  EXPECT_EQ(pairs.size(), 7u);
  svc.stop();
}

TEST_F(ServiceTest, EmptyRangeBoundsReturnNothing) {
  Service svc(targets(), config());
  svc.start();
  ASSERT_EQ(svc.submit(map_put(5, 50)).wait(), SvcStatus::kOk);
  // lo > hi is a valid, empty window — not an error.
  ResponseFuture fut = svc.submit(map_range(9, 3));
  ASSERT_EQ(fut.wait(), SvcStatus::kOk);
  EXPECT_TRUE(fut.ok());
  EXPECT_EQ(fut.value(), 0);
  EXPECT_TRUE(fut.range().empty());
  // Two ranges in one script segment range_out by each step's pair count.
  ResponseFuture two =
      svc.submit(Request{map_range(9, 3), map_range(0, 10)});
  ASSERT_EQ(two.wait(), SvcStatus::kOk);
  EXPECT_EQ(two.step(0).value, 0);
  EXPECT_EQ(two.step(1).value, 1);
  ASSERT_EQ(two.range().size(), 1u);
  EXPECT_EQ(two.range()[0].first, 5);
  svc.stop();
}

// ---- robustness edges (unchanged semantics from PR 5) ----------------------

TEST_F(ServiceTest, QueueFullRejectsWithOverloaded) {
  ServiceConfig cfg = config();
  cfg.workers = 1;
  cfg.queue_capacity = 8;
  cfg.high_water = 4;
  Service svc(targets(), cfg);
  // No start(): the queue only fills.  Beyond high_water the service must
  // reject instantly instead of blocking the producer.
  std::vector<ResponseFuture> admitted;
  for (int i = 0; i < 4; ++i) {
    admitted.push_back(svc.submit(map_put(i, i)));
    EXPECT_EQ(admitted.back().status(), SvcStatus::kPending);
  }
  ResponseFuture rejected = svc.submit(map_put(99, 99));
  EXPECT_EQ(rejected.status(), SvcStatus::kOverloaded);
  EXPECT_EQ(counter(sink_, CounterId::kSvcRejected), 1u);
  EXPECT_EQ(counter(sink_, CounterId::kSvcEnqueued), 4u);
  // Starting late must still complete the queued work.
  svc.start();
  for (auto& f : admitted) EXPECT_EQ(f.wait(), SvcStatus::kOk);
  svc.stop();
}

TEST_F(ServiceTest, DeadlineExpiresWhileQueued) {
  ServiceConfig cfg = config();
  cfg.workers = 1;
  Service svc(targets(), cfg);
  // Queue with no worker running, let the deadline lapse, then start: the
  // worker must expire the stale request without running its transaction.
  Request doomed = map_put(1, 1);
  doomed.deadline_ns = now_ns() + 1'000'000;  // 1ms
  ResponseFuture f = svc.submit(doomed);
  ResponseFuture healthy = svc.submit(map_put(2, 2));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  svc.start();
  EXPECT_EQ(f.wait(), SvcStatus::kExpired);
  EXPECT_EQ(healthy.wait(), SvcStatus::kOk);
  svc.stop();
  EXPECT_EQ(counter(sink_, CounterId::kSvcExpired), 1u);
  // The expired request must not have reached the map.
  ResponseFuture probe = svc.submit(map_get(1));
  EXPECT_EQ(probe.status(), SvcStatus::kOverloaded);  // stopped service
}

TEST_F(ServiceTest, EveryCompletionPathStampsItsLatency) {
  // complete() stamps the caller's clock reading instead of reading the
  // clock itself.  On every path the latency it leaves must be set and no
  // longer than the wall time the client saw from submit to wait.
  const unsigned previous_k = tx::mv_versions();
  tx::set_mv_versions(4);  // read-only scripts take the snapshot route
  Service svc(targets(), config());
  svc.start();
  auto timed = [&](Request r, SvcStatus want, const char* path) {
    SCOPED_TRACE(path);
    const std::uint64_t t0 = now_ns();
    ResponseFuture f = svc.submit(std::move(r));
    EXPECT_EQ(f.wait(), want);
    const std::uint64_t wall = now_ns() - t0;
    EXPECT_LE(f.latency_ns(), wall);
  };
  timed(map_put(1, 10), SvcStatus::kOk, "batch ack");
  timed(map_get(1), SvcStatus::kOk, "snapshot route");
  Request lapsed = map_put(2, 20);
  lapsed.deadline_ns = 1;  // long past: the worker expires it
  timed(lapsed, SvcStatus::kExpired, "expired");
  timed(Request(Step{9, Verb::kGet, -1, -1, false, false, 1, 0, 0}),
        SvcStatus::kFailed, "failed at submit");
  svc.stop();
  timed(map_put(3, 30), SvcStatus::kOverloaded, "overloaded, queue path");
  timed(map_get(3), SvcStatus::kOverloaded, "overloaded, snapshot route");
  tx::set_mv_versions(previous_k);
}

TEST_F(ServiceTest, InjectedAbortsEscalateUnderTheGateAndStillComplete) {
  ServiceConfig cfg = config();
  cfg.workers = 1;
  cfg.batch_max = 8;
  // The first four attempts abort: the batch spends its budget, and a
  // one-worker plane has no peer, so it runs under the exclusive gate,
  // whose first attempt commits the whole batch.
  std::atomic<unsigned> hook_calls{0};
  cfg.batch_fault_hook = [&hook_calls](std::size_t batch_size) {
    EXPECT_EQ(batch_size, 8u);
    if (hook_calls.fetch_add(1) < 4) throw TxAbort{};
  };
  Service svc(targets(), cfg);
  // Queue before start so the worker wakes to one full batch.
  std::vector<ResponseFuture> futs;
  for (int i = 0; i < 8; ++i) futs.push_back(svc.submit(map_put(i, i)));
  svc.start();
  for (auto& f : futs) EXPECT_EQ(f.wait(), SvcStatus::kOk);
  svc.stop();
  EXPECT_EQ(hook_calls.load(), 5u);
  EXPECT_EQ(counter(sink_, CounterId::kSvcBatchSplits), 1u);
  EXPECT_EQ(counter(sink_, CounterId::kSvcBatches), 1u);
  // All eight landed despite the turbulence.
  metrics::MetricsSink probe;
  ServiceConfig cfg2 = config();
  cfg2.metrics = &probe;
  Service svc2(targets(), cfg2);
  svc2.start();
  for (int i = 0; i < 8; ++i) {
    ResponseFuture g = svc2.submit(map_get(i));
    ASSERT_EQ(g.wait(), SvcStatus::kOk);
    EXPECT_TRUE(g.ok());
    EXPECT_EQ(g.value(), i);
  }
  svc2.stop();
}

TEST_F(ServiceTest, StopWhileLoadedDrainsEveryRequest) {
  ServiceConfig cfg = config();
  cfg.workers = 2;
  cfg.queue_capacity = 4096;
  Service svc(targets(), cfg);
  svc.start();
  // Producers race stop(): every future must still reach a terminal
  // status — admitted requests complete (kOk), late ones reject.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 200;
  std::vector<std::vector<ResponseFuture>> futs(kProducers);
  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      for (int i = 0; i < kPerProducer; ++i) {
        futs[t].push_back(svc.submit(map_put(t * kPerProducer + i, i)));
      }
    });
  }
  svc.stop();
  for (auto& p : producers) p.join();
  std::uint64_t ok = 0, overloaded = 0;
  for (auto& lane : futs) {
    for (auto& f : lane) {
      const SvcStatus s = f.wait();  // must not hang
      ASSERT_TRUE(s == SvcStatus::kOk || s == SvcStatus::kOverloaded)
          << to_string(s);
      (s == SvcStatus::kOk ? ok : overloaded) += 1;
    }
  }
  EXPECT_EQ(ok + overloaded,
            static_cast<std::uint64_t>(kProducers * kPerProducer));
  // Metrics must agree: every admitted request completed.
  EXPECT_EQ(counter(sink_, CounterId::kSvcEnqueued), ok);
  EXPECT_EQ(counter(sink_, CounterId::kSvcRejected), overloaded);
}

TEST_F(ServiceTest, ServiceMetricsSeriesArePopulated) {
  Service svc(targets(), config());
  svc.start();
  std::vector<ResponseFuture> futs;
  for (int i = 0; i < 32; ++i) futs.push_back(svc.submit(map_put(i, i)));
  // Two multi-step scripts feed the script counters.
  futs.push_back(svc.submit(Request{map_put(100, 1), set_add(100)}));
  futs.push_back(svc.submit(Request{map_put(101, 1), set_add(101), sl_push(101)}));
  for (auto& f : futs) ASSERT_EQ(f.wait(), SvcStatus::kOk);
  svc.stop();
  const metrics::SinkSnapshot s = sink_.snapshot();
  EXPECT_GT(s.batch_size.count, 0u);
  EXPECT_EQ(s.batch_size.total, 34u);  // every admitted request in a batch
  EXPECT_GT(s.queue_depth.count, 0u);
  const metrics::PhaseSnapshot& ph = s.phase(metrics::Phase::kService);
  EXPECT_EQ(ph.count, 34u);
  EXPECT_GT(ph.total_ns, 0u);
  EXPECT_EQ(s.counter(CounterId::kSvcScripts), 2u);
  EXPECT_EQ(s.counter(CounterId::kSvcScriptSteps), 32u + 2u + 3u);
}

TEST_F(ServiceTest, BatchPublishesEveryStatusBeforeAnyHookRuns) {
  constexpr std::size_t kBatch = 8;
  // Each hook records how many of the batch's futures are already done when
  // it runs.  A worker wakes nothing until the whole batch is published, so
  // every hook must see all of them.  Declared before the service, which
  // must stop before the probe its hooks write goes away.
  struct Probe {
    std::vector<ResponseFuture> futs;
    std::vector<std::size_t> seen;
  } probe;
  ServiceConfig cfg = config();
  cfg.workers = 1;
  cfg.batch_max = kBatch;
  Service svc(targets(), cfg);
  const auto hook = [](void* arg) {
    auto* p = static_cast<Probe*>(arg);
    std::size_t done = 0;
    for (const ResponseFuture& f : p->futs) done += f.done() ? 1 : 0;
    p->seen.push_back(done);
  };
  // Queue before start so the worker wakes to one full batch.
  for (std::size_t i = 0; i < kBatch; ++i) {
    Request req = map_put(static_cast<std::int64_t>(i), 1);
    req.on_complete = hook;
    req.on_complete_arg = &probe;
    probe.futs.push_back(svc.submit(std::move(req)));
  }
  svc.start();
  for (const ResponseFuture& f : probe.futs) {
    ASSERT_EQ(f.wait(), SvcStatus::kOk);
  }
  svc.stop();  // joins the worker: every hook has run
  ASSERT_EQ(probe.seen.size(), kBatch);
  for (const std::size_t s : probe.seen) EXPECT_EQ(s, kBatch);
  EXPECT_EQ(counter(sink_, CounterId::kSvcBatches), 1u);
}

TEST_F(ServiceTest, SameKeyRequestsOfOneBatchApplyInArrivalOrder) {
  // A batch runs key-sorted, and requests on one key keep their arrival
  // order, so the last put to a key wins.  Queued before start, so the one
  // worker takes them as one batch; 48 requests, so a sort that did not
  // keep arrival order among equal keys would show it.
  ServiceConfig cfg = config();
  cfg.workers = 1;
  cfg.batch_max = 64;
  Service svc(targets(), cfg);
  std::vector<ResponseFuture> futs;
  futs.push_back(svc.submit(map_put(7, 1)));
  futs.push_back(svc.submit(map_put(3, 3)));
  futs.push_back(svc.submit(map_put(7, 2)));
  std::int64_t last[3] = {0, 0, 0};  // keys 20, 30, 40
  for (std::int64_t i = 0; i < 45; ++i) {
    const std::int64_t slot = (i * 7) % 3;
    futs.push_back(svc.submit(map_put(20 + 10 * slot, 100 + i)));
    last[slot] = 100 + i;
  }
  svc.start();
  for (const ResponseFuture& f : futs) ASSERT_EQ(f.wait(), SvcStatus::kOk);
  EXPECT_EQ(counter(sink_, CounterId::kSvcBatches), 1u);
  const auto value_of = [&](std::int64_t key) {
    ResponseFuture get = svc.submit(map_get(key));
    EXPECT_EQ(get.wait(), SvcStatus::kOk);
    return get.value();
  };
  EXPECT_EQ(value_of(7), 2);
  EXPECT_EQ(value_of(3), 3);
  for (std::int64_t slot = 0; slot < 3; ++slot) {
    EXPECT_EQ(value_of(20 + 10 * slot), last[slot]) << "key " << 20 + 10 * slot;
  }
  svc.stop();
}

// The next two tests park a thread for real (far past WaitWord's spin and
// yield prelude) before the event that must wake it: a lost wake hangs them.

TEST_F(ServiceTest, ParkedWorkersServeASubmitAndStopPromptly) {
  Service svc(targets(), config());
  svc.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // workers park
  ResponseFuture put = svc.submit(map_put(1, 10));
  EXPECT_EQ(put.wait(), SvcStatus::kOk);
  EXPECT_TRUE(put.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // park again
  const auto t0 = std::chrono::steady_clock::now();
  svc.stop();  // must wake and join both parked workers
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
}

TEST_F(ServiceTest, FutureParkedBehindASlowBatchWakes) {
  ServiceConfig cfg = config();
  cfg.workers = 1;
  cfg.batch_fault_hook = [](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  };
  Service svc(targets(), cfg);
  svc.start();
  ResponseFuture put = svc.submit(map_put(2, 20));
  EXPECT_EQ(put.wait(), SvcStatus::kOk);  // parks while the batch sleeps
  EXPECT_TRUE(put.ok());
  svc.stop();
}

TEST_F(ServiceTest, FireAndForgetFuturesDoNotLeakOrCrash) {
  Service svc(targets(), config());
  svc.start();
  for (int i = 0; i < 64; ++i) {
    svc.submit(map_put(i, i));  // future dropped immediately
  }
  svc.stop();  // drain touches every Pending exactly once
  ResponseFuture probe = svc.submit(map_get(0));
  EXPECT_EQ(probe.status(), SvcStatus::kOverloaded);
}

// ---- recycled request cells ------------------------------------------------

TEST(PendingCellTest, ReleasedCellComesBackFreshWithItsBuffers) {
  // On a thread of its own, so the cell pool starts empty.
  std::thread([] {
    using service::Pending;
    Pending* p = Pending::make();
    for (int i = 0; i < 8; ++i) p->req.steps.push_back(map_range(0, 100));
    p->req.deadline_ns = 7;
    p->req.on_complete = [](void*) {};
    p->req.on_complete_arg = p;
    p->enqueue_ns = 1;
    p->complete_ns = 2;
    p->ok = true;
    p->value = 9;
    for (int i = 0; i < 8; ++i) p->results.push_back(service::StepResult{true, true, i});
    for (int i = 0; i < 100; ++i) p->range_out.emplace_back(i, i);
    p->status.store(static_cast<std::uint32_t>(SvcStatus::kOk));
    p->release();
    p->release();

    Pending* q = Pending::make();
    EXPECT_EQ(q, p);  // the pool is a LIFO stack
    EXPECT_TRUE(q->req.steps.empty());
    EXPECT_EQ(q->req.deadline_ns, 0u);
    EXPECT_EQ(q->req.on_complete, nullptr);
    EXPECT_EQ(q->req.on_complete_arg, nullptr);
    EXPECT_EQ(q->enqueue_ns, 0u);
    EXPECT_EQ(q->complete_ns, 0u);
    EXPECT_FALSE(q->ok);
    EXPECT_EQ(q->value, 0);
    EXPECT_TRUE(q->results.empty());
    EXPECT_TRUE(q->range_out.empty());
    EXPECT_GE(q->range_out.capacity(), 100u);  // the buffer is kept
    EXPECT_EQ(q->status.load(), static_cast<std::uint32_t>(SvcStatus::kPending));
    EXPECT_EQ(q->refs.load(), 2);

    // A range buffer grown past the pooling bound is freed with its cell.
    for (int i = 0; i < 100000; ++i) q->range_out.emplace_back(i, i);
    q->release();
    q->release();
    Pending* r = Pending::make();  // the pool is empty again: a new cell
    EXPECT_EQ(r->range_out.capacity(), 0u);
    r->release();
    r->release();
  }).join();
}

TEST_F(ServiceTest, RecycledCellsLookFreshToTheNextRequest) {
  // MV off, so every script queues and its status can be seen pending.  A
  // service stopped before start() drains on this thread, so each cell's
  // last reference drops here and this thread's next submit reuses it; the
  // address of range() identifies the cell.
  const unsigned previous_k = tx::mv_versions();
  tx::set_mv_versions(0);
  for (std::int64_t k = 0; k < 10; ++k) map_.put_seq(k, 10 * k);
  int hook_calls = 0;
  const void* cell = nullptr;
  {
    Service svc(targets(), config());
    Request range{map_range(0, 9)};
    range.on_complete = [](void* arg) { ++*static_cast<int*>(arg); };
    range.on_complete_arg = &hook_calls;
    cell = &svc.submit(std::move(range)).range();  // future dropped at once
    svc.stop();
  }
  EXPECT_EQ(hook_calls, 1);
  {
    Service svc(targets(), config());
    ResponseFuture get = svc.submit(map_get(3));
    EXPECT_EQ(&get.range(), cell);
    EXPECT_EQ(get.status(), SvcStatus::kPending);
    svc.stop();
    EXPECT_EQ(get.status(), SvcStatus::kOk);
    EXPECT_EQ(get.step_count(), 1u);
    EXPECT_TRUE(get.range().empty());
    EXPECT_TRUE(get.ok());
    EXPECT_EQ(get.value(), 30);
  }
  {
    Service svc(targets(), config());
    ResponseFuture guarded =
        svc.submit(Request{map_get(99).require(), map_put(99, 1)});
    EXPECT_EQ(&guarded.range(), cell);
    svc.stop();
    EXPECT_EQ(guarded.status(), SvcStatus::kOk);
    EXPECT_FALSE(guarded.ok());
    EXPECT_EQ(guarded.step_count(), 2u);
    EXPECT_FALSE(guarded.step(1).ran);
  }
  {
    Service svc(targets(), config());
    ResponseFuture plain = svc.submit(map_put(99, 7));
    EXPECT_EQ(&plain.range(), cell);
    EXPECT_EQ(plain.status(), SvcStatus::kPending);
    svc.stop();
    EXPECT_EQ(plain.status(), SvcStatus::kOk);
    EXPECT_TRUE(plain.ok());
    EXPECT_EQ(plain.step_count(), 1u);
    EXPECT_TRUE(plain.step(0).ran);
    EXPECT_EQ(plain.value(), 7);
  }
  EXPECT_EQ(hook_calls, 1);  // the first request's hook stayed with it
  tx::set_mv_versions(previous_k);
}

// ---- vocabulary exhaustiveness ---------------------------------------------

// The switches in to_string(Verb) / to_string(StructureKind) /
// to_string(SvcStatus) have no default case, so -Werror=switch (OTB_WERROR)
// already fails the BUILD when an enumerator is added without a name.
// These tests close the runtime half: every enumerator in [0, kCount) must
// produce a distinct, non-"?" name — a reordered or duplicated case shows
// up here.
TEST(ServiceVocabulary, VerbNamesAreExhaustiveAndDistinct) {
  std::set<std::string> seen;
  for (std::size_t i = 0; i < service::kVerbCount; ++i) {
    const char* name = to_string(static_cast<Verb>(i));
    EXPECT_STRNE(name, "?") << "Verb " << i << " has no name";
    EXPECT_TRUE(seen.insert(name).second) << "duplicate Verb name " << name;
  }
  EXPECT_STREQ(to_string(static_cast<Verb>(service::kVerbCount)), "?");
}

TEST(ServiceVocabulary, StructureKindNamesAreExhaustiveAndDistinct) {
  std::set<std::string> seen;
  for (std::size_t i = 0; i < service::kStructureKindCount; ++i) {
    const char* name = to_string(static_cast<StructureKind>(i));
    EXPECT_STRNE(name, "?") << "StructureKind " << i << " has no name";
    EXPECT_TRUE(seen.insert(name).second)
        << "duplicate StructureKind name " << name;
  }
  EXPECT_STREQ(
      to_string(static_cast<StructureKind>(service::kStructureKindCount)),
      "?");
}

TEST(ServiceVocabulary, SvcStatusNamesAreExhaustiveAndDistinct) {
  std::set<std::string> seen;
  for (std::size_t i = 0; i < service::kSvcStatusCount; ++i) {
    const char* name = to_string(static_cast<SvcStatus>(i));
    EXPECT_STRNE(name, "?") << "SvcStatus " << i << " has no name";
    EXPECT_TRUE(seen.insert(name).second)
        << "duplicate SvcStatus name " << name;
  }
  EXPECT_STREQ(to_string(static_cast<SvcStatus>(service::kSvcStatusCount)),
               "?");
}

#if defined(__linux__)

// Minimal blocking client for the loopback smoke test; speaks both frame
// versions.
class NetClient {
 public:
  explicit NetClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~NetClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return fd_ >= 0; }

  void send_request(std::uint64_t id, const Request& req,
                       std::uint32_t deadline_ms = 0) {
    std::vector<std::uint8_t> buf;
    const std::size_t n = req.steps.size();
    service::wire::put<std::uint32_t>(
        buf, static_cast<std::uint32_t>(service::kNetWireV2HeaderLen +
                                        n * service::kNetWireStepLen));
    service::wire::put<std::uint8_t>(buf, service::kNetWireV2);
    service::wire::put<std::uint8_t>(buf, static_cast<std::uint8_t>(n));
    service::wire::put<std::uint32_t>(buf, deadline_ms);
    service::wire::put<std::uint64_t>(buf, id);
    for (const Step& s : req.steps) {
      service::wire::put<std::uint8_t>(buf, s.structure);
      service::wire::put<std::uint8_t>(buf, static_cast<std::uint8_t>(s.verb));
      service::wire::put<std::uint8_t>(
          buf, static_cast<std::uint8_t>((s.required ? 1 : 0) |
                                         (s.has_expect ? 2 : 0)));
      service::wire::put<std::uint8_t>(buf,
                                       static_cast<std::uint8_t>(s.key_from));
      service::wire::put<std::uint8_t>(
          buf, static_cast<std::uint8_t>(s.value_from));
      service::wire::put<std::int64_t>(buf, s.key);
      service::wire::put<std::int64_t>(buf, s.value);
      service::wire::put<std::int64_t>(buf, s.expect);
    }
    ASSERT_EQ(::send(fd_, buf.data(), buf.size(), 0),
              static_cast<ssize_t>(buf.size()));
  }

  struct StepEcho {
    bool ran = false;
    bool ok = false;
    std::int64_t value = 0;
  };

  struct Response {
    std::uint64_t id = 0;
    SvcStatus status = SvcStatus::kPending;
    bool ok = false;
    std::vector<StepEcho> steps;
    std::vector<std::pair<std::int64_t, std::int64_t>> range;
  };

  Response read_response() {
    Response r;
    std::uint8_t hdr[4];
    if (!read_exact(hdr, 4)) return r;
    const auto len = service::wire::get<std::uint32_t>(hdr);
    std::vector<std::uint8_t> body(len);
    if (!read_exact(body.data(), len)) return r;
    EXPECT_EQ(body[0], service::kNetWireV2);
    std::size_t at = 1;
    r.id = service::wire::get<std::uint64_t>(body.data() + at);
    at += 8;
    r.status = static_cast<SvcStatus>(body[at++]);
    r.ok = body[at++] != 0;
    const std::uint8_t nsteps = body[at++];
    for (std::uint8_t i = 0; i < nsteps; ++i) {
      StepEcho e;
      e.ran = body[at++] != 0;
      e.ok = body[at++] != 0;
      e.value = service::wire::get<std::int64_t>(body.data() + at);
      at += 8;
      r.steps.push_back(e);
    }
    const auto n = service::wire::get<std::uint32_t>(body.data() + at);
    at += 4;
    for (std::uint32_t i = 0; i < n; ++i) {
      r.range.emplace_back(
          service::wire::get<std::int64_t>(body.data() + at),
          service::wire::get<std::int64_t>(body.data() + at + 8));
      at += 16;
    }
    return r;
  }

 private:
  bool read_exact(std::uint8_t* out, std::size_t n) {
    std::size_t got = 0;
    while (got < n) {
      const ssize_t r = ::recv(fd_, out + got, n - got, 0);
      if (r <= 0) return false;
      got += static_cast<std::size_t>(r);
    }
    return true;
  }

  int fd_ = -1;
};

TEST_F(ServiceTest, NetAdapterLoopbackRoundTrip) {
  Service svc(targets(), config());
  svc.start();
  service::NetServer server(svc, /*port=*/0);
  if (!server.listening()) {
    GTEST_SKIP() << "loopback sockets unavailable in this sandbox";
  }
  std::thread serve([&server] { server.run(); });
  NetClient client(server.bound_port());
  ASSERT_TRUE(client.ok());

  // Single-step scripts: put, get, range.
  client.send_request(1, Request{map_put(5, 50)});
  NetClient::Response r1 = client.read_response();
  EXPECT_EQ(r1.id, 1u);
  EXPECT_EQ(r1.status, SvcStatus::kOk);

  client.send_request(2, Request{map_get(5)});
  NetClient::Response r2 = client.read_response();
  EXPECT_EQ(r2.id, 2u);
  EXPECT_TRUE(r2.ok);
  ASSERT_EQ(r2.steps.size(), 1u);
  EXPECT_EQ(r2.steps[0].value, 50);

  client.send_request(3, Request{map_put(6, 60)});
  (void)client.read_response();
  client.send_request(4, Request{map_range(5, 6)});
  NetClient::Response r4 = client.read_response();
  EXPECT_EQ(r4.id, 4u);
  ASSERT_EQ(r4.range.size(), 2u);
  EXPECT_EQ(r4.range[0].second, 50);
  EXPECT_EQ(r4.range[1].second, 60);

  // A multi-op script with a binding — pop the PQ minimum, record it in
  // the map — and per-step results echoed back.
  client.send_request(5, Request{sl_push(30)});
  (void)client.read_response();
  client.send_request(
      6, Request{sl_pop_min().require(), map_put(0, 777).key_from_step(0)});
  NetClient::Response r6 = client.read_response();
  EXPECT_EQ(r6.id, 6u);
  EXPECT_EQ(r6.status, SvcStatus::kOk);
  EXPECT_TRUE(r6.ok);
  ASSERT_EQ(r6.steps.size(), 2u);
  EXPECT_TRUE(r6.steps[0].ran);
  EXPECT_EQ(r6.steps[0].value, 30);
  EXPECT_TRUE(r6.steps[1].ok);

  // A malformed script is a SEMANTIC failure: kFailed response, the
  // connection survives.
  Step bad = map_get(1, /*sid=*/9);
  client.send_request(7, Request{bad});
  NetClient::Response r7 = client.read_response();
  EXPECT_EQ(r7.id, 7u);
  EXPECT_EQ(r7.status, SvcStatus::kFailed);
  EXPECT_TRUE(r7.steps.empty());

  client.send_request(8, Request{map_get(30)});
  NetClient::Response r8 = client.read_response();
  EXPECT_EQ(r8.id, 8u);
  EXPECT_TRUE(r8.ok);
  ASSERT_EQ(r8.steps.size(), 1u);
  EXPECT_EQ(r8.steps[0].value, 777);

  server.request_stop();
  serve.join();
  // run() stops the service as its SIGTERM-path contract.
  EXPECT_FALSE(svc.accepting());
}

#endif  // defined(__linux__)

}  // namespace
}  // namespace otb
