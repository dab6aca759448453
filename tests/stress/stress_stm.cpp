// Tier-2 stress: the pure-STM set structures (word-based read/write
// barriers) under NOrec and TL2.  Exercises the STM retry loop, rollback
// path and (for TL2) the orec table under real contention; the recorded
// histories must linearize against the sequential set spec.
//
// The STM structures expose no non-transactional snapshot, so after the
// concurrent phase a single-threaded transactional sweep of the key range
// is appended to the history — pinning the final state for both the
// linearizability check and the conservation audit.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "adapters.h"
#include "stm/stm.h"
#include "stmds/stm_list.h"
#include "stmds/stm_skiplist.h"
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

/// Sweep [0, key_range) with contains-transactions on the calling thread,
/// appending each probe to `h`; returns the keys found present.
template <typename SetT>
std::vector<std::int64_t> sweep_and_record(stm::Runtime& rt, SetT& set,
                                           std::int64_t key_range,
                                           verify::History& h) {
  stm::TxThread thread(rt);
  std::vector<std::int64_t> present;
  for (std::int64_t k = 0; k < key_range; ++k) {
    Event e;
    e.tid = 0;
    e.op = OpKind::kContains;
    e.key = k;
    e.invoke_ns = now_ns();
    bool found = false;
    rt.atomically(thread, [&](stm::Tx& tx) { found = set.contains(tx, k); });
    e.response_ns = now_ns();
    e.ok = found;
    h.push_back(e);
    if (found) present.push_back(k);
  }
  return present;
}

template <typename SetT>
void run_stm_set_stress(stm::AlgoKind algo, unsigned threads,
                        unsigned abort_pct) {
  const std::uint64_t scale = verify::stress_scale();
  stm::Runtime rt(algo);
  SetT set;

  StressOptions opt;
  opt.threads = threads;
  opt.ops_per_thread = 100 * scale;
  opt.key_range = 20;
  opt.seed = verify::stress_seed(0x57a7u + threads * 211 + abort_pct +
                                 static_cast<unsigned>(algo) * 17);

  std::vector<std::int64_t> seeded;
  for (std::int64_t k = 0; k < opt.key_range; k += 2) {
    set.add_seq(k);
    seeded.push_back(k);
  }

  // The worker owns a TxThread, which must be constructed on the worker
  // thread itself — the factory runs there by contract.
  verify::History h = verify::run_stress(opt, [&](unsigned tid) {
    return stress::make_stm_set_worker(rt, set, abort_pct,
                                       opt.seed * 31 + tid);
  });

  const std::vector<std::int64_t> snapshot =
      sweep_and_record(rt, set, opt.key_range, h);

  const LinResult lin =
      verify::check_keyed_history(h, verify::SetKeySpec{}, seeded);
  EXPECT_EQ(lin.status, LinStatus::kLinearizable) << lin.detail;

  const verify::AuditResult audit = verify::audit_set(h, snapshot, seeded);
  EXPECT_TRUE(audit.ok) << audit.detail;
}

struct StmCase {
  stm::AlgoKind algo;
  unsigned threads;
  unsigned abort_pct;
};

const StmCase kStmCases[] = {
    {stm::AlgoKind::kNOrec, 2, 0},
    {stm::AlgoKind::kNOrec, 4, 20},
    {stm::AlgoKind::kTL2, 2, 0},
    {stm::AlgoKind::kTL2, 4, 20},
};

TEST(StmListStress, HistoriesAreLinearizable) {
  for (const StmCase& c : kStmCases) {
    SCOPED_TRACE(std::string(stm::to_string(c.algo)) +
                 " threads=" + std::to_string(c.threads) +
                 " abort_pct=" + std::to_string(c.abort_pct));
    run_stm_set_stress<stmds::StmList>(c.algo, c.threads, c.abort_pct);
  }
}

TEST(StmSkipListStress, HistoriesAreLinearizable) {
  for (const StmCase& c : kStmCases) {
    SCOPED_TRACE(std::string(stm::to_string(c.algo)) +
                 " threads=" + std::to_string(c.threads) +
                 " abort_pct=" + std::to_string(c.abort_pct));
    run_stm_set_stress<stmds::StmSkipList>(c.algo, c.threads, c.abort_pct);
  }
}

}  // namespace
}  // namespace otb
