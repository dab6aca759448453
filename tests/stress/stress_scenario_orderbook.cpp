// Tier-2 stress: the order-book scenario (service/scenarios.h).  Makers
// rest asks/bids with guarded push+put scripts; matchers read both tops and
// submit the four-step expect-guarded match script, which commits only
// against the exact pair observed.  The whole history — three structures,
// every mutation a multi-step script — is checked against OrderBookSpec's
// joint (asks, bids) state: a half-matched book (one side popped, the other
// not; a queue pop whose book entry survived) has no linearization.
//
// Harness keys are spec keys; the driver offsets implementation prices by
// +1 so bids (stored negated) never collide with price 0.  The final book
// is pinned with synthetic full-universe lookups, and audited structurally:
// the order map must be exactly the union of the two drained queues.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "adapters.h"
#include "service/scenarios.h"
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
using verify::Event;
using verify::LinResult;
using verify::LinStatus;
using verify::OpKind;
using verify::StressOptions;

ResponseFuture submit_admitted(Service& svc, Request req) {
  for (;;) {
    ResponseFuture fut = svc.submit(req);
    if (fut.status() != SvcStatus::kOverloaded ||
        fut.wait() != SvcStatus::kOverloaded) {
      return fut;
    }
  }
}

/// A failed script must be a clean prefix: nothing after the first failed
/// step may have executed.
void expect_prefix_semantics(const ResponseFuture& fut) {
  bool failed = false;
  for (std::size_t i = 0; i < fut.step_count(); ++i) {
    if (failed) {
      EXPECT_FALSE(fut.step(i).ran) << "step " << i << " ran after a guard";
    }
    if (fut.step(i).ran && !fut.step(i).ok) failed = true;
  }
}

TEST(ScenarioOrderBookStress, GuardedMatchScriptsAreLinearizable) {
  const std::uint64_t scale = verify::stress_scale();
  struct Case {
    unsigned threads;
    unsigned workers;
    unsigned batch_max;
  };
  for (const bool fast : {true, false}) {
    stress::FastPathOverride knob(fast);
  for (const unsigned mv_k : {4u, 0u}) {
    stress::MvVersionsOverride mv_knob(mv_k);
  for (const Case c : {Case{2, 1, 4}, Case{3, 2, 8}}) {
    SCOPED_TRACE("clients=" + std::to_string(c.threads) +
                 " workers=" + std::to_string(c.workers) +
                 " batch_max=" + std::to_string(c.batch_max) +
                 std::string(" fast_path=") + (fast ? "on" : "off") +
                 " mv_versions=" + std::to_string(mv_k));
    service::scenarios::OrderBook book;
    StressOptions opt;
    opt.threads = c.threads;
    opt.ops_per_thread = 40 * scale;
    opt.key_range = 16;
    opt.seed = verify::stress_seed(0x0b00c4u + c.threads * 311 + c.batch_max);
    opt.mix = {{OpKind::kAdd, 30},          // place_ask
               {OpKind::kPut, 30},          // place_bid
               {OpKind::kPqRemoveMin, 25},  // match attempt
               {OpKind::kContains, 15}};    // order lookup (ask side)

    ServiceConfig cfg;
    cfg.workers = c.workers;
    cfg.batch_max = c.batch_max;
    cfg.queue_capacity = 1024;
    Service svc(book.targets(), cfg);
    svc.start();

    verify::History h = verify::run_stress(opt, [&](unsigned) {
      return [&svc, &book](OpKind op, std::int64_t key, std::int64_t& value) {
        switch (op) {
          case OpKind::kAdd: {  // place_ask at impl price key+1
            ResponseFuture fut =
                submit_admitted(svc, book.place_ask(key + 1, /*qty=*/1));
            EXPECT_EQ(fut.wait(), SvcStatus::kOk);
            expect_prefix_semantics(fut);
            return fut.ok();
          }
          case OpKind::kPut: {  // place_bid at impl price key+1
            ResponseFuture fut =
                submit_admitted(svc, book.place_bid(key + 1, /*qty=*/1));
            EXPECT_EQ(fut.wait(), SvcStatus::kOk);
            expect_prefix_semantics(fut);
            return fut.ok();
          }
          case OpKind::kPqRemoveMin: {  // read tops, then guarded match
            ResponseFuture a = submit_admitted(svc, book.best_ask());
            ResponseFuture b = submit_admitted(svc, book.best_bid());
            EXPECT_EQ(a.wait(), SvcStatus::kOk);
            EXPECT_EQ(b.wait(), SvcStatus::kOk);
            if (!a.ok() || !b.ok()) return false;  // a side is empty
            const std::int64_t ask = a.value();
            const std::int64_t bid = -b.value();  // bids stored negated
            ResponseFuture fut = submit_admitted(svc, book.match(ask, bid));
            EXPECT_EQ(fut.wait(), SvcStatus::kOk);
            expect_prefix_semantics(fut);
            if (!fut.ok()) return false;  // expects drifted: atomic no-op
            value = ask - 1;              // matched ask, in spec keys
            return true;
          }
          default: {  // kContains: is an ask resting at this price?
            ResponseFuture fut = submit_admitted(
                svc, Request{service::map_contains(key + 1, book.order_id())});
            EXPECT_EQ(fut.wait(), SvcStatus::kOk);
            return fut.ok();
          }
        }
      };
    });
    svc.stop();

    // Structural audit: the order map is exactly the union of the queues.
    const auto asks_left = service::scenarios::drain_pq_unsafe(book.asks());
    const auto bids_left = service::scenarios::drain_pq_unsafe(book.bids());
    std::vector<std::int64_t> queues;
    queues.insert(queues.end(), asks_left.begin(), asks_left.end());
    queues.insert(queues.end(), bids_left.begin(), bids_left.end());
    std::sort(queues.begin(), queues.end());
    std::vector<std::int64_t> orders;
    for (const auto& [k, v] : book.orders().snapshot_unsafe()) {
      orders.push_back(k);
    }
    std::sort(orders.begin(), orders.end());
    EXPECT_EQ(queues, orders);

    // Pin the final book into the history: one synthetic lookup per spec
    // key and side (bid spec-key 0 is unaddressable by a signed lookup and
    // is skipped; the structural audit above covers it).
    for (std::int64_t k = 0; k < opt.key_range; ++k) {
      Event e;
      e.tid = 0;
      e.op = OpKind::kContains;
      e.invoke_ns = now_ns();
      e.response_ns = now_ns();
      e.key = k;
      e.ok = std::find(asks_left.begin(), asks_left.end(), k + 1) !=
             asks_left.end();
      h.push_back(e);
    }
    for (std::int64_t k = 1; k < opt.key_range; ++k) {
      Event e;
      e.tid = 0;
      e.op = OpKind::kContains;
      e.invoke_ns = now_ns();
      e.response_ns = now_ns();
      e.key = -k;  // bid side: spec stores bids negated
      e.ok = std::find(bids_left.begin(), bids_left.end(), -(k + 1)) !=
             bids_left.end();
      h.push_back(e);
    }

    const verify::OrderBookSpec spec;
    const LinResult lin = verify::check_history(h, spec);
    EXPECT_EQ(lin.status, LinStatus::kLinearizable) << lin.detail;
  }
  }
  }
}

}  // namespace
}  // namespace otb
