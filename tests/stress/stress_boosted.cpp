// Tier-2 stress: the pessimistic-boosting baselines — BoostedSet over the
// lazy list and lazy skip list, and the boosted heap PQ.  These execute
// eagerly with semantic undo-logs, so the abort-injection cases are the
// interesting ones: a rolled-back transaction must leave no trace in the
// recorded history or the final structure.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "adapters.h"
#include "cds/lazy_list_set.h"
#include "cds/lazy_skiplist_set.h"
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

template <typename UnderlyingT>
class BoostedSetStress : public ::testing::Test {};

using Underlyings = ::testing::Types<cds::LazyListSet, cds::LazySkipListSet>;
TYPED_TEST_SUITE(BoostedSetStress, Underlyings);

TYPED_TEST(BoostedSetStress, HistoriesAreLinearizable) {
  const std::uint64_t scale = verify::stress_scale();
  struct Case {
    unsigned threads;
    unsigned abort_pct;
  };
  for (const Case c : {Case{2, 0}, Case{4, 0}, Case{4, 25}}) {
    SCOPED_TRACE("threads=" + std::to_string(c.threads) +
                 " abort_pct=" + std::to_string(c.abort_pct));
    boosted::BoostedSet<TypeParam> set;
    StressOptions opt;
    opt.threads = c.threads;
    opt.ops_per_thread = 120 * scale;
    opt.key_range = 24;
    opt.seed = verify::stress_seed(0xb0057u + c.threads * 71 + c.abort_pct);

    std::vector<std::int64_t> seeded;
    for (std::int64_t k = 1; k < opt.key_range; k += 2) {
      set.underlying().add(k);
      seeded.push_back(k);
    }

    const verify::History h = verify::run_stress(opt, [&](unsigned tid) {
      return stress::make_boosted_set_worker(set, c.abort_pct,
                                             opt.seed * 31 + tid);
    });

    const LinResult lin =
        verify::check_keyed_history(h, verify::SetKeySpec{}, seeded);
    EXPECT_EQ(lin.status, LinStatus::kLinearizable) << lin.detail;

    // The lazy structures expose no snapshot; sweep membership
    // single-threaded (quiescent, so exact).
    std::vector<std::int64_t> snapshot;
    for (std::int64_t k = 0; k < opt.key_range; ++k) {
      if (set.underlying().contains(k)) snapshot.push_back(k);
    }
    const verify::AuditResult audit = verify::audit_set(h, snapshot, seeded);
    EXPECT_TRUE(audit.ok) << audit.detail;
  }
}

TEST(BoostedPqStress, HistoriesAreLinearizable) {
  const std::uint64_t scale = verify::stress_scale();
  struct Case {
    unsigned threads;
    unsigned abort_pct;
  };
  for (const Case c : {Case{2, 0}, Case{3, 15}}) {
    SCOPED_TRACE("threads=" + std::to_string(c.threads) +
                 " abort_pct=" + std::to_string(c.abort_pct));
    boosted::BoostedHeapPQ pq;
    StressOptions opt;
    opt.threads = c.threads;
    opt.ops_per_thread = 50 * scale;
    opt.key_range = 48;
    opt.seed = verify::stress_seed(0xb00b5u + c.threads + c.abort_pct);
    opt.mix = {{OpKind::kPqAdd, 50},
               {OpKind::kPqRemoveMin, 35},
               {OpKind::kPqMin, 15}};

    std::vector<std::int64_t> seeded;
    for (std::int64_t k = 2; k < opt.key_range; k += 5) {
      pq.add_seq(k);
      seeded.push_back(k);
    }

    verify::History h = verify::run_stress(opt, [&](unsigned tid) {
      return stress::make_boosted_pq_worker(pq, c.abort_pct,
                                            opt.seed * 31 + tid);
    });

    // Drain sequentially, appending to the history so the final state is
    // pinned by the linearizability check; the balance audit compares the
    // concurrent phase alone against the drained contents.
    const verify::History concurrent = h;
    std::vector<std::int64_t> drained;
    for (;;) {
      Event e;
      e.tid = 0;
      e.op = OpKind::kPqRemoveMin;
      e.invoke_ns = now_ns();
      std::int64_t out = 0;
      bool got = false;
      boosted::atomically(
          [&](boosted::BoostedTx& t) { got = pq.remove_min(t, &out); });
      e.response_ns = now_ns();
      e.ok = got;
      e.value = out;
      h.push_back(e);
      if (!got) break;
      drained.push_back(out);
    }

    const verify::AuditResult audit =
        verify::audit_pq(concurrent, drained, seeded);
    EXPECT_TRUE(audit.ok) << audit.detail;

    const verify::PqSpec spec{/*unique_keys=*/false};
    const LinResult lin =
        verify::check_history(h, spec, spec.initial_with(seeded));
    EXPECT_EQ(lin.status, LinStatus::kLinearizable) << lin.detail;
  }
}

}  // namespace
}  // namespace otb
