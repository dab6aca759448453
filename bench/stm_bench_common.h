// Shared driver for the Chapter 5/6 STM micro-benchmarks: runs a
// transactional-structure workload across STM algorithms and thread counts,
// with the paper's "no-ops between transactions" knob.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "benchlib/driver.h"
#include "benchlib/table.h"
#include "common/rng.h"
#include "stm/stm.h"

namespace otb::bench {

/// Busy work between transactions (the paper inserts 100 no-ops to model
/// application think time).
inline void no_ops(unsigned n) {
  for (unsigned i = 0; i < n; ++i) {
    asm volatile("" ::: "memory");  // one un-elidable no-op per iteration
  }
}

/// One transactional operation on a structure: receives the context and the
/// already-drawn key, plus whether this op is a read.
template <typename Structure>
using StructOp =
    std::function<void(stm::Tx&, Structure&, std::int64_t key, bool read, Xorshift&)>;

struct StmSeriesOptions {
  unsigned read_pct = 50;
  unsigned noops_between = 0;
  std::int64_t key_range = 1024;
  stm::Config config{};
};

/// Measure one algorithm across the thread sweep.  `make_structure` builds
/// and seeds a fresh structure per thread count.
template <typename Structure>
std::vector<RunResult> run_stm_series(
    stm::AlgoKind kind, const std::vector<unsigned>& threads,
    const StmSeriesOptions& opt,
    const std::function<std::unique_ptr<Structure>()>& make_structure,
    const StructOp<Structure>& op) {
  std::vector<RunResult> results;
  for (unsigned t : threads) {
    auto structure = make_structure();
    stm::Runtime rt(kind, opt.config);
    results.push_back(run_fixed_duration(
        t, warmup_ms(), measure_ms(),
        [&](unsigned tid, const auto& phase, ThreadResult& out) {
          stm::TxThread th(rt);
          Xorshift rng{tid * 6151u + 17};
          while (phase() != Phase::kDone) {
            const auto key =
                std::int64_t(rng.next_bounded(std::uint64_t(opt.key_range)));
            const bool read = rng.chance_pct(opt.read_pct);
            out.aborts += rt.atomically(th, [&](stm::Tx& tx) {
              Xorshift inner = rng;  // retries replay the same operation
              op(tx, *structure, key, read, inner);
            }).aborts;
            rng.next();
            if (phase() == Phase::kMeasure) ++out.ops;
            if (opt.noops_between > 0) no_ops(opt.noops_between);
          }
          out.stats = th.tx().tally();
        }));
  }
  return results;
}

inline std::vector<std::string> thread_columns(const std::vector<unsigned>& t) {
  std::vector<std::string> cols;
  for (unsigned n : t) cols.push_back(std::to_string(n));
  return cols;
}

inline std::vector<double> throughputs(const std::vector<RunResult>& rs) {
  std::vector<double> v;
  for (const auto& r : rs) v.push_back(r.ops_per_sec);
  return v;
}

}  // namespace otb::bench
