// Tier-2 stress: OTB list map (put/insert/erase/get) under concurrent
// seeded load; insert is the put-if-absent path the list set runs on.  Histories are checked per-key against the sequential map spec
// (get must observe the latest committed value) plus the set-style
// conservation audit over the final snapshot.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "adapters.h"
#include "otb/otb_list_map.h"
#include "verify/invariants.h"
#include "verify/lin_check.h"
#include "verify/stress.h"

namespace otb {
namespace {

using verify::LinResult;
using verify::LinStatus;
using verify::OpKind;
using verify::StressOptions;

TEST(OtbMapStress, HistoriesAreLinearizable) {
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
  for (const Case c : {Case{2, 0}, Case{4, 0}, Case{4, 20}, Case{6, 10}}) {
    SCOPED_TRACE("threads=" + std::to_string(c.threads) +
                 " abort_pct=" + std::to_string(c.abort_pct) +
                 " fast_path=" + (fast ? "on" : "off") +
                 " hints=" + (hints ? "on" : "off"));
    tx::OtbListMap map;
    StressOptions opt;
    opt.threads = c.threads;
    opt.ops_per_thread = 120 * scale;
    opt.key_range = 20;
    opt.seed = verify::stress_seed(0xcafeu + c.threads * 977 + c.abort_pct);
    opt.mix = {{OpKind::kPut, 20},
               {OpKind::kAdd, 15},
               {OpKind::kErase, 25},
               {OpKind::kGet, 40}};

    // Harness convention: seeded map entries carry value == key.
    std::vector<std::int64_t> seeded;
    for (std::int64_t k = 0; k < opt.key_range; k += 2) {
      map.put_seq(k, k);
      seeded.push_back(k);
    }

    const verify::History h = verify::run_stress(opt, [&](unsigned tid) {
      return stress::make_otb_map_worker(map, c.abort_pct,
                                         opt.seed * 31 + tid);
    });

    const LinResult lin =
        verify::check_keyed_history(h, verify::MapKeySpec{}, seeded);
    EXPECT_EQ(lin.status, LinStatus::kLinearizable) << lin.detail;

    std::vector<std::int64_t> final_keys;
    for (const auto& [key, value] : map.snapshot_unsafe()) {
      final_keys.push_back(key);
    }
    const verify::AuditResult audit = verify::audit_set(h, final_keys, seeded);
    EXPECT_TRUE(audit.ok) << audit.detail;
  }
  }
  }
}

TEST(OtbMapStress, ReadModifyWriteTransactionsStayAtomic) {
  // Each transaction reads a key and writes value+1 back (or seeds 0):
  // a lost update would show as final value != number of successful
  // increments.  This is the classic counter-increment atomicity test.
  const std::uint64_t scale = verify::stress_scale();
  tx::OtbListMap map;
  constexpr std::int64_t kCounters = 4;
  for (std::int64_t k = 0; k < kCounters; ++k) map.put_seq(k, 0);

  StressOptions opt;
  opt.threads = 4;
  opt.ops_per_thread = 60 * scale;
  opt.key_range = kCounters;
  opt.seed = verify::stress_seed(0xf00du);
  opt.mix = {{OpKind::kPut, 100}};

  const verify::History h = verify::run_stress(opt, [&](unsigned tid) {
    return [&map, inj = stress::AbortInjector(10, opt.seed * 7 + tid)](
               OpKind, std::int64_t key, std::int64_t&) mutable {
      bool pending_abort = inj.arm();
      tx::atomically([&](tx::Transaction& t) {
        std::int64_t v = 0;
        map.get(t, key, &v);
        map.put(t, key, v + 1);
        if (pending_abort) {
          pending_abort = false;
          throw TxAbort{metrics::AbortReason::kExplicit};
        }
      });
      return true;
    };
  });

  std::vector<std::int64_t> increments(kCounters, 0);
  for (const verify::Event& e : h) increments[e.key] += 1;
  for (const auto& [key, value] : map.snapshot_unsafe()) {
    ASSERT_LT(key, kCounters);
    EXPECT_EQ(value, increments[key])
        << "lost increment on counter " << key;
  }
}

}  // namespace
}  // namespace otb
