// Tier-2 stress: the session-store scenario (service/scenarios.h).  With
// expiry rank == sid (one bucket), create() and expire() keep the session
// map and the TTL index in bijection, and every operation on logical key k
// touches exactly the pair (sessions[k], ttl[k]) — so the SESSION map's
// history is per-key checkable with MapKeySpec while the scripts exercise
// the two-map atomic writes underneath.  The cross-map contract is asserted
// per script (step results must agree: both maps present, or both absent,
// and a failed guard stops the script before the second erase), and the
// final bijection is audited structurally.
#include <gtest/gtest.h>

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

TEST(ScenarioSessionStress, TwoMapScriptsKeepTheBijectionAndLinearize) {
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
  for (const Case c : {Case{4, 1, 8}, Case{4, 2, 4}}) {
    SCOPED_TRACE("clients=" + std::to_string(c.threads) +
                 " workers=" + std::to_string(c.workers) +
                 " batch_max=" + std::to_string(c.batch_max) +
                 std::string(" fast_path=") + (fast ? "on" : "off") +
                 " mv_versions=" + std::to_string(mv_k));
    service::scenarios::SessionStore store;
    StressOptions opt;
    opt.threads = c.threads;
    opt.ops_per_thread = 120 * scale;
    opt.key_range = 16;
    opt.seed = verify::stress_seed(0x5e5510u + c.threads * 17 + c.batch_max);
    opt.mix = {{OpKind::kPut, 35},     // create
               {OpKind::kErase, 35},   // expire
               {OpKind::kGet, 30}};    // lookup

    // Harness convention: seeded entries carry value == key.  Seeding both
    // maps identically (rank == sid) starts inside the invariant.
    std::vector<std::int64_t> seeded;
    for (std::int64_t sid = 0; sid < opt.key_range; sid += 2) {
      store.sessions().put_seq(sid, sid);
      store.ttl_index().put_seq(sid, sid);
      seeded.push_back(sid);
    }

    ServiceConfig cfg;
    cfg.workers = c.workers;
    cfg.batch_max = c.batch_max;
    cfg.queue_capacity = 1024;
    Service svc(store.targets(), cfg);
    svc.start();

    const verify::History h = verify::run_stress(opt, [&](unsigned) {
      return [&svc, &store](OpKind op, std::int64_t key, std::int64_t& value) {
        Request req;
        switch (op) {
          case OpKind::kPut:
            req = store.create(key, value, /*expiry_rank=*/key);
            break;
          case OpKind::kErase:
            req = store.expire(/*rank=*/key, key);
            break;
          default:
            req = store.lookup(key);
            break;
        }
        ResponseFuture fut = submit_admitted(svc, req);
        const SvcStatus s = fut.wait();
        EXPECT_EQ(s, SvcStatus::kOk) << to_string(s);
        if (op == OpKind::kPut) {
          // Bijection, observed from inside the transaction: the session
          // put and the TTL put must both have found present or both
          // absent.
          EXPECT_EQ(fut.step(0).ok, fut.step(1).ok);
        } else if (op == OpKind::kErase) {
          // The TTL erase is the guard.  If it won, the session erase ran
          // in the same transaction and found the session; if it lost, the
          // script stopped before ever touching the session map.
          if (fut.ok()) {
            EXPECT_TRUE(fut.step(1).ran && fut.step(1).ok);
          } else {
            EXPECT_FALSE(fut.step(1).ran);
          }
        } else if (fut.ok()) {
          value = fut.value();
        }
        return fut.ok();
      };
    });
    svc.stop();

    // Per-key check of the session map's history: sound and complete here
    // because rank == sid makes every script single-logical-key.
    const LinResult lin =
        verify::check_keyed_history(h, verify::MapKeySpec{}, seeded);
    EXPECT_EQ(lin.status, LinStatus::kLinearizable) << lin.detail;

    // Structural bijection at quiescence: same keys in both maps, and the
    // TTL index still maps every rank back to its sid.
    const auto sessions = store.sessions().snapshot_unsafe();
    const auto ttl = store.ttl_index().snapshot_unsafe();
    ASSERT_EQ(sessions.size(), ttl.size());
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      EXPECT_EQ(sessions[i].first, ttl[i].first);   // same key set (sorted)
      EXPECT_EQ(ttl[i].second, ttl[i].first);       // rank -> sid, rank == sid
    }
  }
  }
  }
}

}  // namespace
}  // namespace otb
