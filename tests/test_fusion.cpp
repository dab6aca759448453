// Tier-1 tests of the contention manager (src/service/fusion.h): the
// FusionPlane donation protocol (offer / adopt / cap refusal / withdrawal,
// and many donors against many adopters at once) and the service-level
// contract: fused requests complete with sound per-constituent verdicts,
// the ledger identities hold, an exhausted batch resolves whole by
// adoption or gated escalation, and a one-worker plane escalates with the
// fusion surface inert (zero fusion counters, identical results).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/tx_abort.h"
#include "metrics/sink.h"
#include "otb/otb_heap_pq.h"
#include "otb/otb_list_map.h"
#include "otb/otb_list_set.h"
#include "otb/otb_skiplist_pq.h"
#include "service/fusion.h"
#include "service/service.h"

namespace otb {
namespace {

using metrics::CounterId;
using service::FusionPlane;
using service::OfferOutcome;
using service::Pending;
using service::Request;
using service::ResponseFuture;
using service::Service;
using service::ServiceConfig;
using service::SvcStatus;
using service::Targets;

using service::map_get;
using service::map_put;
using service::set_add;
using service::sl_pop_min;
using service::sl_push;

std::uint64_t counter(const metrics::MetricsSink& sink, CounterId id) {
  return sink.snapshot().counters[static_cast<std::size_t>(id)];
}

/// A fault hook that aborts the plane's first `n` multi-request attempts.
/// Bounded: a gated attempt retries until the hook lets it commit.
auto abort_first_multi_request_attempts(unsigned n) {
  auto calls = std::make_shared<std::atomic<unsigned>>(0);
  return [calls, n](std::size_t batch_size) {
    if (batch_size > 1 && calls->fetch_add(1) < n) throw TxAbort{};
  };
}

// ---- the fusion plane -------------------------------------------------------

TEST(FusionPlaneTest, OfferAdoptTransfersBatchAndPool) {
  metrics::MetricsSink sink;
  FusionPlane plane(2, &sink);

  Pending a, b, c;
  std::vector<Pending*> donor_batch{&a, &b};
  std::vector<Pending*> adopter_batch{&c};

  OfferOutcome out = OfferOutcome::kWithdrawn;
  std::atomic<bool> donor_done{false};
  std::thread donor([&] {
    out = plane.offer_and_wait(0, donor_batch, /*spin_limit=*/~0u);
    donor_done.store(true);
  });
  std::size_t adopted = 0;
  while (adopted == 0 && !donor_done.load())
    adopted = plane.try_adopt(1, adopter_batch);
  donor.join();

  EXPECT_EQ(out, OfferOutcome::kAdopted);
  EXPECT_EQ(adopted, 2u);
  // Donor surrendered everything; adopter holds the merged commit unit.
  EXPECT_TRUE(donor_batch.empty());
  ASSERT_EQ(adopter_batch.size(), 3u);
  EXPECT_EQ(adopter_batch[0], &c);
  EXPECT_EQ(adopter_batch[1], &a);
  EXPECT_EQ(adopter_batch[2], &b);

  const metrics::SinkSnapshot s = sink.snapshot();
  EXPECT_EQ(s.counter(CounterId::kFusionUnions), 1u);
  EXPECT_EQ(s.counter(CounterId::kSvcFused), 2u);
  EXPECT_EQ(s.counter(CounterId::kFusionFallbacks), 0u);
  EXPECT_EQ(s.fused_set_size.count, 1u);
  EXPECT_EQ(s.fused_set_size.total, 3u);  // adopter's post-merge batch size
}

TEST(FusionPlaneTest, DonorWithdrawsWhenNobodyAdopts) {
  metrics::MetricsSink sink;
  FusionPlane plane(2, &sink);
  Pending a;
  std::vector<Pending*> batch{&a};
  OfferOutcome out = plane.offer_and_wait(0, batch, /*spin_limit=*/64);
  EXPECT_EQ(out, OfferOutcome::kWithdrawn);
  // Withdrawal keeps ownership: the batch is intact for escalation.
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0], &a);
  EXPECT_EQ(counter(sink, CounterId::kFusionFallbacks), 1u);
  EXPECT_EQ(counter(sink, CounterId::kFusionUnions), 0u);
}

TEST(FusionPlaneTest, CapExceededLeavesOfferUpAndFallsBack) {
  metrics::MetricsSink sink;
  FusionPlane plane(2, &sink);

  std::vector<Pending> donor_cells(FusionPlane::kMaxSet);
  std::vector<Pending*> donor_batch;
  for (Pending& p : donor_cells) donor_batch.push_back(&p);
  Pending c;
  std::vector<Pending*> adopter_batch{&c};

  OfferOutcome out = OfferOutcome::kAdopted;
  std::atomic<bool> donor_done{false};
  std::thread donor([&] {
    out = plane.offer_and_wait(0, donor_batch, /*spin_limit=*/1u << 14);
    donor_done.store(true);
  });
  // 1 + kMaxSet > kMaxSet: every adoption attempt must refuse and
  // republish the offer, and the donor must eventually withdraw.
  std::size_t adopted = 0;
  while (!donor_done.load()) adopted += plane.try_adopt(1, adopter_batch);
  donor.join();

  EXPECT_EQ(adopted, 0u);
  EXPECT_EQ(out, OfferOutcome::kWithdrawn);
  ASSERT_EQ(donor_batch.size(), FusionPlane::kMaxSet);
  EXPECT_EQ(adopter_batch.size(), 1u);
  EXPECT_EQ(counter(sink, CounterId::kFusionUnions), 0u);
  EXPECT_EQ(counter(sink, CounterId::kFusionFallbacks), 1u);
}

TEST(FusionPlaneTest, ConcurrentDonorsAndAdoptersPlaceEveryRequestOnce) {
  // Donor threads run the service's exhaustion step (adopt what is
  // offered, then donate the result); adopter threads run the batch-pop
  // step.  Whatever interleaves, every request must end in exactly one
  // final batch: an adopter's, or a donor's withdrawn one (which the
  // service would escalate).
  constexpr unsigned kDonors = 3;
  constexpr unsigned kAdopters = 2;
  constexpr unsigned kRounds = 2000;
  constexpr unsigned kPerRound = 3;  // round r donates 1 + r % kPerRound
  metrics::MetricsSink sink;
  FusionPlane plane(kDonors + kAdopters, &sink);

  std::vector<Pending> cells(std::size_t{kDonors} * kRounds * kPerRound);
  std::vector<std::atomic<unsigned>> finals(cells.size());
  auto finish = [&](const std::vector<Pending*>& batch) {
    for (Pending* p : batch)
      finals[static_cast<std::size_t>(p - cells.data())].fetch_add(1);
  };
  std::atomic<std::uint64_t> adopted{0};
  std::atomic<std::uint64_t> withdrawn{0};
  std::atomic<unsigned> donors_left{kDonors};

  std::vector<std::thread> threads;
  for (unsigned d = 0; d < kDonors; ++d) {
    threads.emplace_back([&, d] {
      std::vector<Pending*> batch;
      for (unsigned r = 0; r < kRounds; ++r) {
        batch.clear();
        const std::size_t base =
            (std::size_t{d} * kRounds + r) * kPerRound;
        for (unsigned i = 0; i <= r % kPerRound; ++i)
          batch.push_back(&cells[base + i]);
        adopted.fetch_add(plane.try_adopt(d, batch));
        if (plane.offer_and_wait(d, batch, /*spin_limit=*/256) ==
            OfferOutcome::kWithdrawn) {
          withdrawn.fetch_add(1);
          finish(batch);
        } else {
          EXPECT_TRUE(batch.empty());
        }
      }
      donors_left.fetch_sub(1);
    });
  }
  for (unsigned a = 0; a < kAdopters; ++a) {
    threads.emplace_back([&, a] {
      std::vector<Pending*> batch;
      while (donors_left.load() != 0) {
        batch.clear();
        const std::size_t n = plane.try_adopt(kDonors + a, batch);
        if (n == 0) {
          std::this_thread::yield();
          continue;
        }
        adopted.fetch_add(n);
        EXPECT_LE(batch.size(), FusionPlane::kMaxSet);
        finish(batch);
      }
    });
  }
  for (auto& t : threads) t.join();

  for (std::size_t i = 0; i < cells.size(); ++i) {
    const unsigned r = static_cast<unsigned>(i / kPerRound) % kRounds;
    const unsigned expected = i % kPerRound <= r % kPerRound ? 1u : 0u;
    ASSERT_EQ(finals[i].load(), expected) << "request " << i;
  }
  const metrics::SinkSnapshot s = sink.snapshot();
  EXPECT_EQ(s.counter(CounterId::kFusionUnions), s.fused_set_size.count);
  EXPECT_EQ(s.counter(CounterId::kSvcFused), adopted.load());
  EXPECT_EQ(s.counter(CounterId::kFusionFallbacks), withdrawn.load());
  EXPECT_GT(s.counter(CounterId::kFusionUnions), 0u);
}

// ---- service-level contract -------------------------------------------------

/// Everything-registered fixture (mirrors test_service.cpp).
class FusionServiceTest : public ::testing::Test {
 protected:
  Targets targets() {
    return Targets::standard(&map_, &set_, &heap_, &slpq_);
  }

  ServiceConfig config() {
    ServiceConfig cfg;
    cfg.workers = 2;
    cfg.batch_max = 8;
    cfg.queue_capacity = 256;
    cfg.metrics = &sink_;
    return cfg;
  }

  tx::OtbListMap map_;
  tx::OtbListSet set_;
  tx::OtbHeapPQ heap_;
  tx::OtbSkipListPQ slpq_;
  metrics::MetricsSink sink_;
};

TEST_F(FusionServiceTest, FusedRequestsCompleteAndLedgerHolds) {
  ServiceConfig cfg = config();
  // Sixteen aborted multi-request attempts: batches exhaust their budgets,
  // so the workers hit the fusion path (adopt, donate, escalate).
  cfg.batch_fault_hook = abort_first_multi_request_attempts(16);
  Service svc(targets(), cfg);
  std::vector<ResponseFuture> futs;
  for (int i = 0; i < 32; ++i) futs.push_back(svc.submit(map_put(i, i * 10)));
  svc.start();
  for (auto& f : futs) {
    ASSERT_EQ(f.wait(), SvcStatus::kOk);
    EXPECT_TRUE(f.ok());
  }
  svc.stop();

  const metrics::SinkSnapshot s = sink_.snapshot();
  // Every budget exhaustion either fused (union counted by the adopter) or
  // fell back (withdrawal counted by the donor) before escalating.
  EXPECT_GT(s.counter(CounterId::kSvcBatchSplits), 0u);
  EXPECT_GT(s.counter(CounterId::kFusionUnions) +
                s.counter(CounterId::kFusionFallbacks),
            0u);
  // Ledger identities (bench/metrics_check.cpp enforces the same).
  EXPECT_EQ(s.batch_size.total + s.counter(CounterId::kSvcExpired),
            s.counter(CounterId::kSvcEnqueued));
  EXPECT_EQ(s.counter(CounterId::kFusionUnions), s.fused_set_size.count);
  EXPECT_GE(s.counter(CounterId::kSvcFused),
            s.counter(CounterId::kFusionUnions));

  // Every write landed.
  metrics::MetricsSink probe;
  ServiceConfig cfg2 = config();
  cfg2.metrics = &probe;
  Service svc2(targets(), cfg2);
  svc2.start();
  for (int i = 0; i < 32; ++i) {
    ResponseFuture g = svc2.submit(map_get(i));
    ASSERT_EQ(g.wait(), SvcStatus::kOk);
    EXPECT_TRUE(g.ok());
    EXPECT_EQ(g.value(), i * 10);
  }
  svc2.stop();
}

TEST_F(FusionServiceTest, GuardVerdictsStaySoundUnderFusion) {
  ServiceConfig cfg = config();
  cfg.batch_fault_hook = abort_first_multi_request_attempts(16);
  Service svc(targets(), cfg);
  svc.start();
  // One PQ element, committed first (the pops land on a different shard, so
  // ordering must be established before they are submitted).  Then two
  // required pops racing for it plus filler to force multi-request batches
  // through the fusion path.  Whatever gets fused with what, exactly one
  // pop may win and both verdicts must be sound (the solo guard re-run
  // never participates in fusion).
  ResponseFuture push = svc.submit(sl_push(1));
  ASSERT_EQ(push.wait(), SvcStatus::kOk);
  ASSERT_TRUE(push.ok());
  std::vector<ResponseFuture> futs;
  futs.push_back(svc.submit(Request{sl_pop_min().require(), set_add(100)}));
  futs.push_back(svc.submit(Request{sl_pop_min().require(), set_add(200)}));
  for (int i = 0; i < 12; ++i) futs.push_back(svc.submit(map_put(i, i)));
  for (auto& f : futs) ASSERT_EQ(f.wait(), SvcStatus::kOk);
  const int winners = (futs[0].ok() ? 1 : 0) + (futs[1].ok() ? 1 : 0);
  EXPECT_EQ(winners, 1);
  for (std::size_t i = 2; i < futs.size(); ++i) EXPECT_TRUE(futs[i].ok());
  svc.stop();
  const metrics::SinkSnapshot s = sink_.snapshot();
  EXPECT_EQ(s.batch_size.total + s.counter(CounterId::kSvcExpired),
            s.counter(CounterId::kSvcEnqueued));
  EXPECT_EQ(s.counter(CounterId::kFusionUnions), s.fused_set_size.count);
}

TEST_F(FusionServiceTest, ExhaustionResolvesWithoutASplit) {
  // Each worker thread's first four attempts abort, so each thread's first
  // batch spends its budget exactly once and every later attempt commits.
  // Whatever the scheduling — a peer adopts the donation, or it is
  // withdrawn and the gated escalation commits it, or both workers donate
  // at once and both escalate — each drained batch commits whole.
  ServiceConfig cfg = config();
  cfg.batch_fault_hook = [](std::size_t) {
    thread_local unsigned attempts = 0;
    if (++attempts <= 4) throw TxAbort{};
  };
  Service svc(targets(), cfg);
  std::vector<ResponseFuture> futs;
  for (int i = 0; i < 8; ++i) futs.push_back(svc.submit(map_put(i, i)));
  svc.start();
  for (auto& f : futs) {
    ASSERT_EQ(f.wait(), SvcStatus::kOk);
    EXPECT_TRUE(f.ok());
  }
  svc.stop();
  const metrics::SinkSnapshot s = sink_.snapshot();
  EXPECT_GT(s.counter(CounterId::kSvcBatchSplits), 0u);
  EXPECT_GE(s.counter(CounterId::kFusionUnions) +
                s.counter(CounterId::kFusionFallbacks),
            1u);
  // Eight requests in two shards of at most batch_max: two pops, and
  // each commit unit commits whole.
  EXPECT_LE(s.counter(CounterId::kSvcBatches), 2u);
  EXPECT_EQ(s.batch_size.total + s.counter(CounterId::kSvcExpired),
            s.counter(CounterId::kSvcEnqueued));
}

TEST_F(FusionServiceTest, OneWorkerPlaneEscalatesWithZeroFusionCounters) {
  // A one-worker plane has no peer to fuse with: a spent budget goes
  // straight to the exclusive gate and the whole fusion surface stays
  // inert.
  ServiceConfig cfg = config();
  cfg.workers = 1;
  cfg.batch_fault_hook = abort_first_multi_request_attempts(16);
  Service svc(targets(), cfg);
  std::vector<ResponseFuture> futs;
  for (int i = 0; i < 32; ++i) futs.push_back(svc.submit(map_put(i, i)));
  svc.start();
  for (auto& f : futs) {
    ASSERT_EQ(f.wait(), SvcStatus::kOk);
    EXPECT_TRUE(f.ok());
  }
  svc.stop();
  const metrics::SinkSnapshot s = sink_.snapshot();
  EXPECT_GT(s.counter(CounterId::kSvcBatchSplits), 0u);
  // The subsystem is inert: no unions, no fused requests, no fallbacks, no
  // series samples.
  EXPECT_EQ(s.counter(CounterId::kSvcFused), 0u);
  EXPECT_EQ(s.counter(CounterId::kFusionUnions), 0u);
  EXPECT_EQ(s.counter(CounterId::kFusionFallbacks), 0u);
  EXPECT_EQ(s.fused_set_size.count, 0u);
  // Gated attempts commit whole batches: 32 requests, batch_max 8.
  EXPECT_EQ(s.counter(CounterId::kSvcBatches), 4u);
}

TEST_F(FusionServiceTest, OnAndOffProduceIdenticalSequentialResults) {
  // A deterministic sequential workload must be byte-for-byte identical
  // on a fusing two-worker plane and a one-worker plane (a lone in-flight
  // request never fuses).
  auto run = [](unsigned workers) {
    tx::OtbListMap map;
    tx::OtbListSet set;
    tx::OtbHeapPQ heap;
    tx::OtbSkipListPQ slpq;
    metrics::MetricsSink sink;
    ServiceConfig cfg;
    cfg.workers = workers;
    cfg.batch_max = 8;
    cfg.metrics = &sink;
    Service svc(Targets::standard(&map, &set, &heap, &slpq), cfg);
    svc.start();
    std::vector<std::pair<bool, std::int64_t>> results;
    for (int i = 0; i < 24; ++i) {
      ResponseFuture f = svc.submit(map_put(i % 8, i));
      EXPECT_EQ(f.wait(), SvcStatus::kOk);
      results.emplace_back(f.ok(), f.value());
      ResponseFuture g = svc.submit(map_get(i % 8));
      EXPECT_EQ(g.wait(), SvcStatus::kOk);
      results.emplace_back(g.ok(), g.value());
    }
    svc.stop();
    EXPECT_EQ(counter(sink, CounterId::kFusionUnions), 0u);
    return results;
  };
  EXPECT_EQ(run(2), run(1));
}

}  // namespace
}  // namespace otb
