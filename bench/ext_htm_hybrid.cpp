// Extension bench (§7.1.1 ablation): how much does the simulated-HTM fast
// path buy?
//   (a) Hybrid NOrec vs plain NOrec on small disjoint transactions (the
//       fast path should carry nearly all commits);
//   (b) OTB set with lock-based commit vs HTM commit, plus the hardware /
//       fallback commit mix.
#include <cstdio>

#include "benchlib/driver.h"
#include "benchlib/table.h"
#include "common/rng.h"
#include "htm/hybrid_norec.h"
#include "otb/htm_commit.h"
#include "otb/otb_skiplist_set.h"
#include "otb/runtime.h"
#include "stm/stm.h"

namespace otb::bench {
namespace {

void hybrid_vs_norec() {
  const auto threads = thread_counts();
  std::vector<std::string> cols;
  for (unsigned t : threads) cols.push_back(std::to_string(t));
  SeriesTable table("Ext-HTM (a): Hybrid NOrec vs NOrec, disjoint 4-word txs",
                    "threads", cols);
  constexpr std::size_t kWords = 256;

  {  // plain NOrec
    stm::TArray<std::int64_t> mem(kWords, 0);
    stm::Runtime rt(stm::AlgoKind::kNOrec);
    std::vector<double> row;
    for (unsigned t : threads) {
      row.push_back(run_fixed_duration(
                        t, warmup_ms(), measure_ms(),
                        [&](unsigned tid, const auto& phase, ThreadResult& out) {
                          stm::TxThread th(rt);
                          Xorshift rng{tid * 3u + 1};
                          while (phase() != Phase::kDone) {
                            const std::size_t base =
                                rng.next_bounded(kWords - 4);
                            rt.atomically(th, [&](stm::Tx& tx) {
                              for (std::size_t w = 0; w < 4; ++w) {
                                tx.write(mem[base + w],
                                         tx.read(mem[base + w]) + 1);
                              }
                            });
                            if (phase() == Phase::kMeasure) ++out.ops;
                          }
                        })
                        .ops_per_sec);
    }
    table.add_row("NOrec", row);
  }
  {  // Hybrid
    stm::TArray<std::int64_t> mem(kWords, 0);
    htm::HybridNOrecRuntime rt;
    std::vector<double> row;
    std::uint64_t hw = 0, sw = 0;
    for (unsigned t : threads) {
      std::atomic<std::uint64_t> hw_c{0}, sw_c{0};
      row.push_back(run_fixed_duration(
                        t, warmup_ms(), measure_ms(),
                        [&](unsigned tid, const auto& phase, ThreadResult& out) {
                          auto th = rt.make_thread();
                          Xorshift rng{tid * 3u + 1};
                          while (phase() != Phase::kDone) {
                            const std::size_t base =
                                rng.next_bounded(kWords - 4);
                            rt.atomically(*th, [&](stm::Tx& tx) {
                              for (std::size_t w = 0; w < 4; ++w) {
                                tx.write(mem[base + w],
                                         tx.read(mem[base + w]) + 1);
                              }
                            });
                            if (phase() == Phase::kMeasure) ++out.ops;
                          }
                          hw_c += th->htm_stats.commits;
                          sw_c += th->sw.tally().commits;
                        })
                        .ops_per_sec);
      hw = hw_c;
      sw = sw_c;
    }
    table.add_row("HybridNOrec", row);
    std::printf("hybrid commit mix at %u threads: hardware=%llu software=%llu\n",
                threads.back(), (unsigned long long)hw, (unsigned long long)sw);
  }
  table.print("tx/s");
}

void otb_htm_commit() {
  const auto threads = thread_counts();
  std::vector<std::string> cols;
  for (unsigned t : threads) cols.push_back(std::to_string(t));
  SeriesTable table("Ext-HTM (b): OTB skip-list set — lock commit vs HTM commit",
                    "threads", cols);
  constexpr std::int64_t kRange = 2048;

  auto run_point = [&](unsigned t, auto&& body) {
    return run_fixed_duration(t, warmup_ms(), measure_ms(), body).ops_per_sec;
  };

  {  // lock-based commit (the Chapter 3 runtime)
    tx::OtbSkipListSet set;
    for (std::int64_t k = 0; k < kRange; k += 2) set.add_seq(k);
    std::vector<double> row;
    for (unsigned t : threads) {
      row.push_back(run_point(
          t, [&](unsigned tid, const auto& phase, ThreadResult& out) {
            Xorshift rng{tid * 7u + 5};
            while (phase() != Phase::kDone) {
              const std::int64_t key =
                  std::int64_t(rng.next_bounded(std::uint64_t(kRange)));
              tx::atomically([&](tx::Transaction& tr) {
                if (!set.add(tr, key)) set.remove(tr, key);
              });
              if (phase() == Phase::kMeasure) ++out.ops;
            }
          }));
    }
    table.add_row("OTB lock commit", row);
  }
  {  // simulated-HTM commit
    tx::OtbSkipListSet set;
    for (std::int64_t k = 0; k < kRange; k += 2) set.add_seq(k);
    tx::HtmCommitRuntime rt;
    std::vector<double> row;
    for (unsigned t : threads) {
      row.push_back(run_point(
          t, [&](unsigned tid, const auto& phase, ThreadResult& out) {
            Xorshift rng{tid * 7u + 5};
            while (phase() != Phase::kDone) {
              const std::int64_t key =
                  std::int64_t(rng.next_bounded(std::uint64_t(kRange)));
              rt.atomically([&](tx::HtmCommitRuntime::Transaction& tr) {
                if (!set.add(tr, key)) set.remove(tr, key);
              });
              if (phase() == Phase::kMeasure) ++out.ops;
            }
          }));
    }
    table.add_row("OTB HTM commit", row);
    std::printf("OTB HTM commit mix: hardware=%llu fallback=%llu aborts=%llu\n",
                (unsigned long long)rt.stats().htm_commits.load(),
                (unsigned long long)rt.stats().fallback_commits.load(),
                (unsigned long long)rt.stats().htm_aborts.load());
  }
  table.print("tx/s");
}

}  // namespace
}  // namespace otb::bench

int main(int argc, char** argv) {
  otb::bench::install_metrics_json_exporter(argc, argv);
  otb::bench::hybrid_vs_norec();
  otb::bench::otb_htm_commit();
  return 0;
}
