// Tier-2 stress: OTB priority queues — the fully-optimistic skip-list PQ
// (unique keys, wait-free min) and the semi-optimistic heap PQ (global
// lock, duplicates allowed).  PQ histories are not per-key decomposable,
// so whole-history Wing–Gong checking runs on deliberately compact runs;
// after the concurrent phase the queue is drained sequentially and the
// drain is appended to the history, which makes the final state part of
// what must linearize (and checks the heap property via audit_pq).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "adapters.h"
#include "otb/otb_heap_pq.h"
#include "otb/otb_skiplist_pq.h"
#include "verify/invariants.h"
#include "verify/lin_check.h"
#include "verify/stress.h"

namespace otb {
namespace {

using verify::Event;
using verify::LinResult;
using verify::LinStatus;
using verify::OpKind;
using verify::StressOptions;

/// Drain `pq` sequentially via single-op transactions, appending the drain
/// operations to `h` (time-stamped after the concurrent phase, so they pin
/// the final state in the linearizability check).
template <typename PqT>
std::vector<std::int64_t> drain_and_record(PqT& pq, verify::History& h) {
  std::vector<std::int64_t> drained;
  for (;;) {
    Event e;
    e.tid = 0;
    e.op = OpKind::kPqRemoveMin;
    e.invoke_ns = now_ns();
    std::int64_t out = 0;
    bool got = false;
    tx::atomically([&](tx::Transaction& t) { got = pq.remove_min(t, &out); });
    e.response_ns = now_ns();
    e.ok = got;
    e.value = out;
    h.push_back(e);
    if (!got) break;
    drained.push_back(out);
  }
  return drained;
}

TEST(OtbSkipListPqStress, HistoriesAreLinearizable) {
  const std::uint64_t scale = verify::stress_scale();
  struct Case {
    unsigned threads;
    unsigned abort_pct;
  };
  // Both validation paths must produce linearizable histories: the O(1)
  // commit-sequence gate (default) and the unconditional full scan.
  for (const bool fast : {true, false}) {
    stress::FastPathOverride knob(fast);
  for (const bool hints : {true, false}) {
    stress::TraversalHintsOverride hint_knob(hints);
  for (const Case c : {Case{2, 0}, Case{3, 0}, Case{3, 20}}) {
    SCOPED_TRACE("threads=" + std::to_string(c.threads) +
                 " abort_pct=" + std::to_string(c.abort_pct) +
                 " fast_path=" + (fast ? "on" : "off") +
                 " hints=" + (hints ? "on" : "off"));
    tx::OtbSkipListPQ pq;
    StressOptions opt;
    opt.threads = c.threads;
    opt.ops_per_thread = 50 * scale;
    opt.key_range = 64;
    opt.seed = verify::stress_seed(0x5eedu + c.threads * 57 + c.abort_pct);
    opt.mix = {{OpKind::kPqAdd, 50},
               {OpKind::kPqRemoveMin, 35},
               {OpKind::kPqMin, 15}};

    std::vector<std::int64_t> seeded;
    for (std::int64_t k = 3; k < opt.key_range; k += 9) {
      pq.add_seq(k);
      seeded.push_back(k);
    }

    verify::History h = verify::run_stress(opt, [&](unsigned tid) {
      return stress::make_otb_slpq_worker(pq, c.abort_pct,
                                          opt.seed * 31 + tid);
    });

    // Audit balances the concurrent phase against the final contents, so it
    // takes the pre-drain history; the lin check gets the drain appended.
    const verify::History concurrent = h;
    const std::vector<std::int64_t> drained = drain_and_record(pq, h);

    const verify::AuditResult audit =
        verify::audit_pq(concurrent, drained, seeded);
    EXPECT_TRUE(audit.ok) << audit.detail;

    const verify::PqSpec spec{/*unique_keys=*/true};
    const LinResult lin =
        verify::check_history(h, spec, spec.initial_with(seeded));
    EXPECT_EQ(lin.status, LinStatus::kLinearizable) << lin.detail;
  }
  }
  }
}

TEST(OtbHeapPqStress, HistoriesAreLinearizable) {
  const std::uint64_t scale = verify::stress_scale();
  struct Case {
    unsigned threads;
    unsigned abort_pct;
  };
  for (const Case c : {Case{2, 0}, Case{3, 0}, Case{3, 25}}) {
    SCOPED_TRACE("threads=" + std::to_string(c.threads) +
                 " abort_pct=" + std::to_string(c.abort_pct));
    tx::OtbHeapPQ pq;
    StressOptions opt;
    opt.threads = c.threads;
    opt.ops_per_thread = 50 * scale;
    opt.key_range = 48;
    opt.seed = verify::stress_seed(0x9e4fu + c.threads * 23 + c.abort_pct);
    opt.mix = {{OpKind::kPqAdd, 50},
               {OpKind::kPqRemoveMin, 35},
               {OpKind::kPqMin, 15}};

    std::vector<std::int64_t> seeded;
    for (std::int64_t k = 1; k < opt.key_range; k += 7) {
      pq.add_seq(k);
      seeded.push_back(k);
    }

    verify::History h = verify::run_stress(opt, [&](unsigned tid) {
      return stress::make_otb_heap_pq_worker(pq, c.abort_pct,
                                             opt.seed * 31 + tid);
    });

    const verify::History concurrent = h;
    const std::vector<std::int64_t> drained = drain_and_record(pq, h);

    const verify::AuditResult audit =
        verify::audit_pq(concurrent, drained, seeded);
    EXPECT_TRUE(audit.ok) << audit.detail;

    const verify::PqSpec spec{/*unique_keys=*/false};
    const LinResult lin =
        verify::check_history(h, spec, spec.initial_with(seeded));
    EXPECT_EQ(lin.status, LinStatus::kLinearizable) << lin.detail;
  }
}

TEST(OtbPqStress, MixedStructureTransactionsBalance) {
  // Transactions move the PQ minimum into a second "done" PQ — a composed
  // two-structure commit.  Nothing may be lost or duplicated.
  const std::uint64_t scale = verify::stress_scale();
  tx::OtbSkipListPQ work, done;
  std::vector<std::int64_t> seeded;
  for (std::int64_t k = 0; k < 64; ++k) {
    work.add_seq(k);
    seeded.push_back(k);
  }

  StressOptions opt;
  opt.threads = 3;
  opt.ops_per_thread = 30 * scale;
  opt.key_range = 64;
  opt.seed = verify::stress_seed(0x0fa1);
  opt.mix = {{OpKind::kPqRemoveMin, 100}};

  verify::run_stress(opt, [&](unsigned tid) {
    return [&work, &done,
            inj = stress::AbortInjector(15, opt.seed * 11 + tid)](
               OpKind, std::int64_t, std::int64_t& value) mutable {
      bool moved = false;
      bool pending_abort = inj.arm();
      tx::atomically([&](tx::Transaction& t) {
        moved = false;
        std::int64_t k = 0;
        if (work.remove_min(t, &k)) {
          if (!done.add(t, k)) throw TxAbort{};
          value = k;
          moved = true;
        }
        if (pending_abort) {
          pending_abort = false;
          throw TxAbort{metrics::AbortReason::kExplicit};
        }
      });
      return moved;
    };
  });

  verify::History empty;
  std::vector<std::int64_t> drained_work = drain_and_record(work, empty);
  std::vector<std::int64_t> drained_done = drain_and_record(done, empty);
  const verify::AuditResult cons = verify::audit_conservation(
      {drained_work, drained_done}, seeded);
  EXPECT_TRUE(cons.ok) << cons.detail;
}

}  // namespace
}  // namespace otb
