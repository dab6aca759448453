// Tier-2 stress: the job-scheduler scenario (service/scenarios.h) under the
// Wing–Gong checker.  Claim and release are two-step scripts that MOVE a
// job between a skip-list PQ and a lease map, so checking the recorded
// history against SchedulerSpec's joint (free, leased) state is precisely
// the cross-structure atomicity check the ISSUE asks for: a torn script —
// popped but never leased, released but still leased — admits no
// linearization and the search reports it.  After the concurrent phase the
// free queue is drained through the service (more claim scripts, appended
// to the history) and the final lease table is pinned with synthetic
// lookup events, so the end state must linearize too; a conservation audit
// closes the loop (no job lost or duplicated).
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

TEST(ScenarioSchedulerStress, CrossStructureScriptsAreLinearizable) {
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
    service::scenarios::JobScheduler sched;
    StressOptions opt;
    opt.threads = c.threads;
    opt.ops_per_thread = 40 * scale;
    opt.key_range = 24;
    opt.seed = verify::stress_seed(0x5c4edu + c.threads * 131 + c.batch_max);
    opt.mix = {{OpKind::kPqRemoveMin, 40},   // claim
               {OpKind::kRemove, 35},        // release
               {OpKind::kContains, 25}};     // lease lookup

    std::vector<std::int64_t> seeded;
    for (std::int64_t j = 0; j < opt.key_range; j += 2) {
      sched.seed_job(j);
      seeded.push_back(j);
    }

    ServiceConfig cfg;
    cfg.workers = c.workers;
    cfg.batch_max = c.batch_max;
    cfg.queue_capacity = 1024;
    Service svc(sched.targets(), cfg);
    svc.start();

    verify::History h = verify::run_stress(opt, [&](unsigned) {
      return [&svc, &sched](OpKind op, std::int64_t key, std::int64_t& value) {
        Request req;
        switch (op) {
          case OpKind::kPqRemoveMin:
            req = sched.claim(/*worker=*/key);
            break;
          case OpKind::kRemove:
            req = sched.release(key);
            break;
          default:
            req = sched.holder(key);
            break;
        }
        ResponseFuture fut = submit_admitted(svc, req);
        const SvcStatus s = fut.wait();
        EXPECT_EQ(s, SvcStatus::kOk) << to_string(s);
        if (op != OpKind::kContains) {
          // The script-atomicity contract, step by step: the second step
          // runs iff the guard passed, and when it runs it succeeds (a
          // claimed job can never already be leased; a released job can
          // never already be free).
          EXPECT_EQ(fut.ok(), fut.step(1).ran && fut.step(1).ok);
          if (op == OpKind::kPqRemoveMin && fut.ok()) {
            value = fut.step(0).value;  // the claimed job id
          }
        }
        return fut.ok();
      };
    });

    // Drain the free queue through MORE claim scripts, appended to the
    // history so the lin check covers the final hand-off too.
    for (;;) {
      Event e;
      e.tid = 0;
      e.op = OpKind::kPqRemoveMin;
      e.invoke_ns = now_ns();
      ResponseFuture fut = submit_admitted(svc, sched.claim(0));
      ASSERT_EQ(fut.wait(), SvcStatus::kOk);
      e.response_ns = now_ns();
      e.ok = fut.ok();
      if (fut.ok()) e.value = fut.step(0).value;
      h.push_back(e);
      if (!fut.ok()) break;
    }
    svc.stop();

    // Every surviving job is now leased; pin the lease table's exact
    // contents with synthetic lookups (present and absent alike).
    std::vector<std::int64_t> leased;
    for (const auto& [job, worker] : sched.leases().snapshot_unsafe()) {
      leased.push_back(job);
    }
    for (std::int64_t j = 0; j < opt.key_range; ++j) {
      Event e;
      e.tid = 0;
      e.op = OpKind::kContains;
      e.invoke_ns = now_ns();
      e.response_ns = now_ns();
      e.key = j;
      e.ok = std::find(leased.begin(), leased.end(), j) != leased.end();
      h.push_back(e);
    }

    // Conservation: claim/release only MOVE jobs, so the final lease table
    // must hold exactly the seeded set.
    const verify::AuditResult cons =
        verify::audit_conservation({leased}, seeded);
    EXPECT_TRUE(cons.ok) << cons.detail;

    const verify::SchedulerSpec spec;
    const LinResult lin =
        verify::check_history(h, spec, spec.initial_with(seeded));
    EXPECT_EQ(lin.status, LinStatus::kLinearizable) << lin.detail;
  }
  }
  }
}

}  // namespace
}  // namespace otb
