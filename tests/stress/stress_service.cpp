// Tier-2 stress: map histories driven THROUGH the service plane.  Each
// logical operation is a submit + future wait, so what gets linearizability-
// checked is the full pipeline — admission, sharded queueing, batch
// coalescing into one boosted transaction, and the answer to a spent
// attempt budget — not just the structure underneath.  Runs with the
// validation fast path, traversal hints, and multi-version snapshot reads
// (OTB_MV_VERSIONS) forced both on and off — with MV on the gets route
// through the inline snapshot path, so the checked history interleaves
// abort-free snapshot reads with batched writes — and once with periodic
// injected batch aborts so spent budgets are on the checked path.  On two-worker planes the injected cases put the
// transaction-fusion contention manager (src/service/fusion.h: donation,
// adoption, gated escalation) under the lin checker, and the fused/union/
// fallback ledger identities must hold; the one-worker injected case puts
// the gated attempt alone under the checker.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "adapters.h"
#include "otb/otb_list_map.h"
#include "service/service.h"
#include "verify/invariants.h"
#include "verify/lin_check.h"
#include "verify/stress.h"

namespace otb {
namespace {

using service::Request;
using service::ResponseFuture;
using service::Service;
using service::ServiceConfig;
using service::SvcStatus;
using verify::LinResult;
using verify::LinStatus;
using verify::OpKind;
using verify::StressOptions;

/// One logical map operation through the service.  Overload rejections are
/// retried (a rejected request never executed, so it must not enter the
/// history); everything else is terminal.
service::ResponseFuture submit_admitted(Service& svc, Request req) {
  for (;;) {
    ResponseFuture fut = svc.submit(req);
    if (fut.status() != SvcStatus::kOverloaded || fut.wait() != SvcStatus::kOverloaded) {
      return fut;
    }
  }
}

auto make_service_map_worker(Service& svc) {
  return [&svc](OpKind op, std::int64_t key, std::int64_t& value) {
    Request req;
    switch (op) {
      case OpKind::kPut:
        req = Request{service::map_put(key, value)};
        break;
      case OpKind::kErase:
        req = Request{service::map_erase(key)};
        break;
      default:
        req = Request{service::map_get(key)};
        break;
    }
    ResponseFuture fut = submit_admitted(svc, req);
    const SvcStatus s = fut.wait();
    EXPECT_EQ(s, SvcStatus::kOk) << to_string(s);
    if (op == OpKind::kGet) value = fut.value();
    return fut.ok();
  };
}

struct Case {
  unsigned threads;
  unsigned workers;
  unsigned batch_max;
  bool inject;
};

TEST(ServiceStress, HistoriesThroughServiceAreLinearizable) {
  const std::uint64_t scale = verify::stress_scale();
  for (const bool fast : {true, false}) {
    stress::FastPathOverride knob(fast);
  for (const bool hints : {true, false}) {
    stress::TraversalHintsOverride hint_knob(hints);
  for (const unsigned mv_k : {4u, 0u}) {
    stress::MvVersionsOverride mv_knob(mv_k);
  for (const Case c : {Case{4, 1, 8, false}, Case{4, 2, 4, false},
                       Case{6, 1, 8, true}, Case{6, 2, 8, true}}) {
    SCOPED_TRACE("clients=" + std::to_string(c.threads) +
                 " workers=" + std::to_string(c.workers) +
                 " batch_max=" + std::to_string(c.batch_max) +
                 std::string(" inject=") + (c.inject ? "yes" : "no") +
                 std::string(" fast_path=") + (fast ? "on" : "off") +
                 std::string(" hints=") + (hints ? "on" : "off") +
                 " mv_versions=" + std::to_string(mv_k));
    tx::OtbListMap map;
    service::Targets targets = service::Targets::standard(&map);
    metrics::MetricsSink case_sink;  // per-case ledger, not the global sink
    ServiceConfig cfg;
    cfg.metrics = &case_sink;
    cfg.workers = c.workers;
    cfg.batch_max = c.batch_max;
    cfg.queue_capacity = 1024;
    std::atomic<std::uint64_t> hook_calls{0};
    if (c.inject) {
      // Deterministic turbulence: eight consecutive aborts every 32 hook
      // calls.  Bursts (not isolated aborts) are what spend a four-attempt
      // budget: of the first burst's eight calls, one of the (at most two)
      // workers makes four, all on its first batch.  Each burst is
      // bounded, so the gated attempt that follows a spent budget commits.
      cfg.batch_fault_hook = [&hook_calls](std::size_t) {
        if (hook_calls.fetch_add(1, std::memory_order_relaxed) % 32 < 8) {
          throw TxAbort{};
        }
      };
    }
    Service svc(targets, cfg);
    svc.start();

    StressOptions opt;
    opt.threads = c.threads;
    opt.ops_per_thread = 100 * scale;
    opt.key_range = 16;
    opt.seed = verify::stress_seed(0x5e41ceu + c.threads * 131 +
                                   c.batch_max * 7 + (c.inject ? 1 : 0));
    opt.mix = {{OpKind::kPut, 30}, {OpKind::kErase, 25}, {OpKind::kGet, 45}};

    // Harness convention: seeded map entries carry value == key.
    std::vector<std::int64_t> seeded;
    for (std::int64_t k = 0; k < opt.key_range; k += 2) {
      map.put_seq(k, k);
      seeded.push_back(k);
    }

    const verify::History h = verify::run_stress(
        opt, [&](unsigned) { return make_service_map_worker(svc); });
    svc.stop();

    const LinResult lin =
        verify::check_keyed_history(h, verify::MapKeySpec{}, seeded);
    EXPECT_EQ(lin.status, LinStatus::kLinearizable) << lin.detail;

    std::vector<std::int64_t> final_keys;
    for (const auto& [key, value] : map.snapshot_unsafe()) {
      final_keys.push_back(key);
    }
    const verify::AuditResult audit = verify::audit_set(h, final_keys, seeded);
    EXPECT_TRUE(audit.ok) << audit.detail;

    // The service ledger must balance: every admitted request completed ok
    // (no deadlines here, map target registered, rejects were retried).
    const metrics::SinkSnapshot s = svc.metrics_sink().snapshot();
    EXPECT_EQ(s.counter(metrics::CounterId::kSvcExpired), 0u);
    EXPECT_EQ(s.counter(metrics::CounterId::kSvcFailed), 0u);
    if (c.inject) {
      EXPECT_GT(s.counter(metrics::CounterId::kSvcBatchSplits), 0u);
    }
    // Snapshot-route ledger: with MV on the gets ran inline (every one a
    // snapshot read or a counted miss-with-fallback, never enqueued); with
    // MV off the route must be fully cold.
    EXPECT_EQ(s.counter(metrics::CounterId::kSvcReadOnly),
              s.counter(metrics::CounterId::kMvSnapshotReads) +
                  s.counter(metrics::CounterId::kMvVersionMisses));
    if (mv_k > 0) {
      EXPECT_GT(s.counter(metrics::CounterId::kSvcReadOnly), 0u);
    } else {
      EXPECT_EQ(s.counter(metrics::CounterId::kSvcReadOnly), 0u);
    }
    // Fusion ledger: every union logged one fused-set-size sample, and
    // fused requests imply unions.
    EXPECT_EQ(s.counter(metrics::CounterId::kFusionUnions),
              s.fused_set_size.count);
    EXPECT_GE(s.counter(metrics::CounterId::kSvcFused),
              s.counter(metrics::CounterId::kFusionUnions));
    if (c.workers > 1) {
      // Every budget exhaustion fuses or falls back before escalating.
      if (s.counter(metrics::CounterId::kSvcBatchSplits) > 0) {
        EXPECT_GT(s.counter(metrics::CounterId::kFusionUnions) +
                      s.counter(metrics::CounterId::kFusionFallbacks),
                  0u);
      }
    } else {
      EXPECT_EQ(s.counter(metrics::CounterId::kSvcFused), 0u);
      EXPECT_EQ(s.counter(metrics::CounterId::kFusionUnions), 0u);
      EXPECT_EQ(s.counter(metrics::CounterId::kFusionFallbacks), 0u);
    }
  }
  }
  }
  }
}

}  // namespace
}  // namespace otb
