// Unit suite for the otb::metrics subsystem: sharded counter correctness
// under contention, histogram bucket boundaries, abort-reason attribution
// for forced STM aborts (validation and lock-fail), attempt reports from
// the redesigned atomically(), registry stability, and the JSON round-trip.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "metrics/metrics.h"
#include "otb/runtime.h"
#include "stm/stm.h"

namespace otb::metrics {
namespace {

TEST(Counter, ShardedAddsSumExactlyUnderThreads) {
  Counter c;
  constexpr unsigned kThreads = 8;
  constexpr std::uint64_t kPerThread = 100'000;
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add(1);
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(c.total(), kThreads * kPerThread);
  c.reset();
  EXPECT_EQ(c.total(), 0u);
}

TEST(Histogram, Log2BucketBoundaries) {
  Histogram h;
  h.record(0);  // bit_width(0) == 0 -> bucket 0
  h.record(1);  // -> bucket 1
  h.record(2);  // -> bucket 2
  h.record(3);  // -> bucket 2
  h.record(4);  // -> bucket 3
  h.record(std::numeric_limits<std::uint64_t>::max());  // clamps to last
  const auto b = h.buckets();
  EXPECT_EQ(b[0], 1u);
  EXPECT_EQ(b[1], 1u);
  EXPECT_EQ(b[2], 2u);
  EXPECT_EQ(b[3], 1u);
  EXPECT_EQ(b[Histogram::kBuckets - 1], 1u);
  EXPECT_EQ(h.count(), 6u);
  std::uint64_t sum = 0;
  for (const auto v : b) sum += v;
  EXPECT_EQ(sum, h.count());
}

TEST(Tally, DeltaSinceIsFieldwise) {
  TxTally a;
  a.reads = 10;
  a.writes = 4;
  a.validations = 2;
  a.ns_total = 1000;
  TxTally b = a;
  b.reads = 17;
  b.ns_total = 1600;
  const TxTally d = b.delta_since(a);
  EXPECT_EQ(d.reads, 7u);
  EXPECT_EQ(d.writes, 0u);
  EXPECT_EQ(d.ns_total, 600u);
}

TEST(Sink, RecordAttemptFlushesDeltaAndAttributesAbort) {
  MetricsSink sink;
  TxTally d;
  d.reads = 3;
  d.writes = 1;
  d.lock_cas_failures = 2;
  d.ns_total = 500;
  sink.record_attempt(d, /*committed=*/false, AbortReason::kLockFail);
  EXPECT_EQ(sink.counter(CounterId::kAttempts), 1u);
  EXPECT_EQ(sink.counter(CounterId::kCommits), 0u);
  EXPECT_EQ(sink.counter(CounterId::kReads), 3u);
  EXPECT_EQ(sink.counter(CounterId::kLockCasFailures), 2u);
  EXPECT_EQ(sink.aborts(AbortReason::kLockFail), 1u);
  EXPECT_EQ(sink.aborts_total(), 1u);
  const SinkSnapshot s = sink.snapshot();
  EXPECT_EQ(s.phase(Phase::kAttempt).count, 1u);
  EXPECT_EQ(s.phase(Phase::kAttempt).total_ns, 500u);
  EXPECT_EQ(s.phase(Phase::kValidation).count, 0u);  // zero delta skipped
}

TEST(Registry, SinkAddressStableAndSnapshotNamesDomain) {
  MetricsSink& a = Registry::global().sink("test.metrics.stable");
  a.add(CounterId::kCommits, 3);
  MetricsSink& b = Registry::global().sink("test.metrics.stable");
  EXPECT_EQ(&a, &b);
  const Snapshot snap = Registry::global().snapshot();
  const SinkSnapshot* s = snap.find("test.metrics.stable");
  ASSERT_NE(s, nullptr);
  EXPECT_GE(s->counter(CounterId::kCommits), 3u);
}

Snapshot sample_snapshot() {
  Snapshot snap;
  SinkSnapshot s;
  for (std::size_t i = 0; i < kCounterCount; ++i) s.counters[i] = 100 + i;
  for (std::size_t i = 0; i < kAbortReasonCount; ++i) s.aborts[i] = i * 2;
  s.aborts[0] = 0;  // kNone is never emitted, so it must round-trip as zero
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    s.phases[p].count = 7 + p;
    s.phases[p].total_ns = 900 + p;
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b)
      s.phases[p].log2_buckets[b] = (p + 1) * b;
  }
  snap.domains.emplace_back("stm.NOrec", s);
  SinkSnapshot empty;
  snap.domains.emplace_back("otb.tx", empty);
  return snap;
}

TEST(Json, SnapshotRoundTrips) {
  const Snapshot snap = sample_snapshot();
  const std::string body = to_json(snap);
  const auto back = from_json(body);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, snap);
}

TEST(Json, StrictParserRejectsCorruptedDumps) {
  const std::string body = to_json(sample_snapshot());
  EXPECT_FALSE(from_json("").has_value());
  EXPECT_FALSE(from_json(body + "x").has_value());  // trailing garbage
  std::string renamed = body;
  renamed.replace(renamed.find("\"commits\""), 9, "\"commitz\"");
  EXPECT_FALSE(from_json(renamed).has_value());  // unknown + missing key
  std::string truncated = body.substr(0, body.size() / 2);
  EXPECT_FALSE(from_json(truncated).has_value());
}

}  // namespace
}  // namespace otb::metrics

namespace otb::stm {
namespace {

TEST(AbortAttribution, NOrecValidationFailure) {
  metrics::MetricsSink fake;
  Config cfg;
  cfg.max_threads = 8;
  cfg.metrics = &fake;
  Runtime rt(AlgoKind::kNOrec, cfg);
  TVar<std::int64_t> x{1};
  TVar<std::int64_t> y{1};
  TxThread th(rt);
  bool conflicted = false;
  const metrics::AttemptReport report = rt.atomically(th, [&](Tx& tx) {
    tx.read(x);
    if (!conflicted) {
      conflicted = true;
      std::thread([&rt, &x] {
        TxThread helper(rt);
        rt.atomically(helper, [&](Tx& htx) { htx.write(x, htx.read(x) + 1); });
      }).join();
    }
    tx.read(y);  // clock moved -> value-based validation -> x mismatch
  });
  EXPECT_EQ(report.commits, 1u);
  EXPECT_EQ(report.aborts, 1u);
  EXPECT_EQ(report.last_reason, metrics::AbortReason::kValidation);
  EXPECT_EQ(fake.counter(metrics::CounterId::kAttempts), 3u);  // helper too
  EXPECT_EQ(fake.counter(metrics::CounterId::kCommits), 2u);
  EXPECT_EQ(fake.aborts(metrics::AbortReason::kValidation), 1u);
  EXPECT_EQ(fake.aborts_total(), 1u);
}

TEST(AbortAttribution, TmlLockFailure) {
  metrics::MetricsSink fake;
  Config cfg;
  cfg.max_threads = 8;
  cfg.metrics = &fake;
  Runtime rt(AlgoKind::kTML, cfg);
  TVar<std::int64_t> x{1};
  TxThread th(rt);
  bool conflicted = false;
  const metrics::AttemptReport report = rt.atomically(th, [&](Tx& tx) {
    const std::int64_t v = tx.read(x);
    if (!conflicted) {
      conflicted = true;
      std::thread([&rt, &x] {
        TxThread helper(rt);
        rt.atomically(helper, [&](Tx& htx) { htx.write(x, htx.read(x) + 1); });
      }).join();
    }
    tx.write(x, v + 1);  // stale snapshot -> try_acquire fails
  });
  EXPECT_EQ(report.commits, 1u);
  EXPECT_GE(report.aborts, 1u);
  EXPECT_EQ(report.last_reason, metrics::AbortReason::kLockFail);
  EXPECT_GE(fake.aborts(metrics::AbortReason::kLockFail), 1u);
  EXPECT_GE(fake.counter(metrics::CounterId::kLockCasFailures), 1u);
}

}  // namespace
}  // namespace otb::stm

namespace otb::tx {
namespace {

TEST(OtbAtomically, AttemptReportAndExplicitAbortReason) {
  metrics::MetricsSink fake;
  set_metrics_sink(&fake);
  bool aborted_once = false;
  const metrics::AttemptReport report = atomically([&](Transaction&) {
    if (!aborted_once) {
      aborted_once = true;
      throw TxAbort{};  // bare user abort -> kExplicit
    }
  });
  set_metrics_sink(nullptr);  // restore registry default
  EXPECT_EQ(report.commits, 1u);
  EXPECT_EQ(report.aborts, 1u);
  EXPECT_EQ(report.attempts(), 2u);
  EXPECT_EQ(report.last_reason, metrics::AbortReason::kExplicit);
  EXPECT_EQ(fake.counter(metrics::CounterId::kAttempts), 2u);
  EXPECT_EQ(fake.counter(metrics::CounterId::kCommits), 1u);
  EXPECT_EQ(fake.aborts(metrics::AbortReason::kExplicit), 1u);
}

TEST(OtbAtomically, TimingPopulatesPhaseHistograms) {
  metrics::MetricsSink fake;
  set_metrics_sink(&fake);
  set_collect_timing(true);
  atomically([](Transaction&) {});
  set_collect_timing(false);
  set_metrics_sink(nullptr);
  const metrics::SinkSnapshot s = fake.snapshot();
  EXPECT_EQ(s.phase(metrics::Phase::kAttempt).count, 1u);
  std::uint64_t sum = 0;
  for (const auto b : s.phase(metrics::Phase::kAttempt).log2_buckets) sum += b;
  EXPECT_EQ(sum, 1u);
}

}  // namespace
}  // namespace otb::tx
