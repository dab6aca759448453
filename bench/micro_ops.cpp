// google-benchmark micro-op latency suite: single-threaded costs of the
// substrate operations — useful for spotting regressions in the building
// blocks the figure benches are made of.
#include <benchmark/benchmark.h>

#include "benchlib/driver.h"
#include "cds/lazy_list_set.h"
#include "cds/lazy_skiplist_set.h"
#include "common/bloom_filter.h"
#include "common/rng.h"
#include "otb/otb_list_map.h"
#include "otb/otb_list_set.h"
#include "otb/otb_skiplist_set.h"
#include "otb/runtime.h"
#include "stm/stm.h"
#include "stmds/stm_rbtree.h"

namespace {

void BM_BloomAddIntersect(benchmark::State& state) {
  otb::TxFilter a, b;
  int cells[64];
  for (int i = 0; i < 64; ++i) a.add(&cells[i]);
  for (auto _ : state) {
    b.add(&cells[0]);
    benchmark::DoNotOptimize(a.intersects(b));
  }
}
BENCHMARK(BM_BloomAddIntersect);

void BM_LazyListContains(benchmark::State& state) {
  otb::cds::LazyListSet set;
  for (std::int64_t k = 0; k < state.range(0); ++k) set.add(k);
  otb::Xorshift rng{1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        set.contains(std::int64_t(rng.next_bounded(state.range(0)))));
  }
}
BENCHMARK(BM_LazyListContains)->Arg(128)->Arg(512);

void BM_LazySkipListContains(benchmark::State& state) {
  otb::cds::LazySkipListSet set;
  for (std::int64_t k = 0; k < state.range(0); ++k) set.add(k);
  otb::Xorshift rng{1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        set.contains(std::int64_t(rng.next_bounded(state.range(0)))));
  }
}
BENCHMARK(BM_LazySkipListContains)->Arg(512)->Arg(65536);

void BM_OtbListSetTxAddRemove(benchmark::State& state) {
  otb::tx::OtbListSet set;
  for (std::int64_t k = 0; k < 512; k += 2) set.add_seq(k);
  otb::Xorshift rng{3};
  for (auto _ : state) {
    const auto key = std::int64_t(rng.next_bounded(512));
    otb::tx::atomically([&](otb::tx::Transaction& tx) {
      if (!set.add(tx, key)) set.remove(tx, key);
    });
  }
}
BENCHMARK(BM_OtbListSetTxAddRemove);

void BM_OtbSkipListSetTxContains(benchmark::State& state) {
  otb::tx::OtbSkipListSet set;
  for (std::int64_t k = 0; k < 4096; k += 2) set.add_seq(k);
  otb::Xorshift rng{5};
  for (auto _ : state) {
    const auto key = std::int64_t(rng.next_bounded(4096));
    otb::tx::atomically(
        [&](otb::tx::Transaction& tx) { set.contains(tx, key); });
  }
}
BENCHMARK(BM_OtbSkipListSetTxContains);

// Validation-scaling sweep: without the commit-sequence gate, a transaction
// executing k operations post-validates O(k^2) read-set entries; with the
// gate only the first validation per quiescent window scans.  Reports the
// fast-path hit rate alongside throughput (reads the registry sink, so the
// numbers also land in the --metrics-json dump).
void validation_sweep(benchmark::State& state, unsigned write_pct) {
  const std::int64_t ops_per_tx = state.range(0);
  otb::tx::OtbListSet set;
  for (std::int64_t k = 0; k < 512; k += 2) set.add_seq(k);
  otb::Xorshift rng{11};
  const auto counter = [](const otb::metrics::SinkSnapshot& s,
                          otb::metrics::CounterId id) {
    return s.counters[static_cast<std::size_t>(id)];
  };
  const otb::metrics::SinkSnapshot before = otb::tx::metrics_sink().snapshot();
  for (auto _ : state) {
    otb::tx::atomically([&](otb::tx::Transaction& tx) {
      for (std::int64_t i = 0; i < ops_per_tx; ++i) {
        const auto key = std::int64_t(rng.next_bounded(512));
        if (write_pct != 0 && rng.chance_pct(write_pct)) {
          if (!set.add(tx, key)) set.remove(tx, key);
        } else {
          set.contains(tx, key);
        }
      }
    });
  }
  const otb::metrics::SinkSnapshot after = otb::tx::metrics_sink().snapshot();
  const double fast =
      double(counter(after, otb::metrics::CounterId::kValidationsFast) -
             counter(before, otb::metrics::CounterId::kValidationsFast));
  const double full =
      double(counter(after, otb::metrics::CounterId::kValidationsFull) -
             counter(before, otb::metrics::CounterId::kValidationsFull));
  state.counters["fast_hit_pct"] =
      fast + full > 0 ? 100.0 * fast / (fast + full) : 0.0;
  state.SetItemsProcessed(state.iterations() * ops_per_tx);
}

void BM_OtbListSetValidationSweepReadOnly(benchmark::State& state) {
  validation_sweep(state, /*write_pct=*/0);
}
BENCHMARK(BM_OtbListSetValidationSweepReadOnly)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_OtbListSetValidationSweepMixed20(benchmark::State& state) {
  validation_sweep(state, /*write_pct=*/20);
}
BENCHMARK(BM_OtbListSetValidationSweepMixed20)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

// Multi-version snapshot-read sweep: the same k-contains read-only
// transaction on the validated path (atomically: read-set build + per-op
// validation + commit) and on the snapshot path (snapshot_read:
// version-chain resolution at a stamp, no read-set, no validation, no
// commit).  The per-read delta is the MV layer's raw win, independent of
// the service plane's batching (DESIGN.md "Multi-version snapshot reads").
// `miss` stays 0 with OTB_MV_VERSIONS > 0 and nothing mutating.
void mv_read_sweep(benchmark::State& state, bool snapshot) {
  constexpr std::int64_t kRange = 4096;
  const std::int64_t ops_per_tx = state.range(0);
  otb::tx::OtbSkipListSet set;
  for (std::int64_t k = 0; k < kRange; k += 2) set.add_seq(k);
  otb::Xorshift rng{13};
  std::uint64_t misses = 0;
  for (auto _ : state) {
    if (snapshot) {
      const bool ok = otb::tx::snapshot_read([&](otb::tx::SnapshotTx& snap) {
        for (std::int64_t i = 0; i < ops_per_tx; ++i) {
          const auto key = std::int64_t(rng.next_bounded(kRange));
          benchmark::DoNotOptimize(set.contains_at(snap, key));
        }
      });
      if (!ok) ++misses;
    } else {
      otb::tx::atomically([&](otb::tx::Transaction& tx) {
        for (std::int64_t i = 0; i < ops_per_tx; ++i) {
          const auto key = std::int64_t(rng.next_bounded(kRange));
          set.contains(tx, key);
        }
      });
    }
  }
  state.counters["miss"] = double(misses);
  state.SetItemsProcessed(state.iterations() * ops_per_tx);
}

void BM_OtbSkipListSetMvReadValidated(benchmark::State& state) {
  mv_read_sweep(state, /*snapshot=*/false);
}
BENCHMARK(BM_OtbSkipListSetMvReadValidated)->Arg(1)->Arg(8)->Arg(64);

void BM_OtbSkipListSetMvReadSnapshot(benchmark::State& state) {
  mv_read_sweep(state, /*snapshot=*/true);
}
BENCHMARK(BM_OtbSkipListSetMvReadSnapshot)->Arg(1)->Arg(8)->Arg(64);

// Hinted snapshot walks: one snapshot get per iteration on a list map of
// `range` keys, 3 in 4 live (the steady state of net_mixed's 60/30/10
// get/put/erase mix), with the level-2 cache seeding long walks
// (OtbListMap::walk_at, On) or every walk from the head (Off).  The range
// script is shaped like hotkey_wal's read-only one: eight 16-key snapshot
// ranges at hot keys {0, 8, ..., 56} of a 64-key map with its even keys
// live, whose walks are too short to probe, so it A/Bs the short-walk
// guard.
void snapshot_get(benchmark::State& state, bool hints_on) {
  const std::int64_t range = state.range(0);
  const bool saved = otb::tx::traversal_hints_enabled();
  otb::tx::set_traversal_hints(hints_on);
  otb::tx::OtbListMap map;
  otb::Xorshift fill{29};
  for (std::int64_t k = 0; k < range; ++k) {
    if (fill.next_bounded(4) != 0) map.put_seq(k, k);
  }
  otb::Xorshift rng{31};
  for (auto _ : state) {
    const auto key = std::int64_t(rng.next_bounded(std::uint64_t(range)));
    std::int64_t v = 0;
    otb::tx::snapshot_read([&](otb::tx::SnapshotTx& snap) {
      benchmark::DoNotOptimize(map.get_at(snap, key, &v));
    });
  }
  state.SetItemsProcessed(state.iterations());
  otb::tx::set_traversal_hints(saved);
}

void BM_OtbListMapSnapshotGetHintsOn(benchmark::State& state) {
  snapshot_get(state, /*hints_on=*/true);
}
BENCHMARK(BM_OtbListMapSnapshotGetHintsOn)->Arg(64)->Arg(256)->Arg(4096);

void BM_OtbListMapSnapshotGetHintsOff(benchmark::State& state) {
  snapshot_get(state, /*hints_on=*/false);
}
BENCHMARK(BM_OtbListMapSnapshotGetHintsOff)->Arg(64)->Arg(256)->Arg(4096);

void snapshot_range_script(benchmark::State& state, bool hints_on) {
  const bool saved = otb::tx::traversal_hints_enabled();
  otb::tx::set_traversal_hints(hints_on);
  otb::tx::OtbListMap map;
  for (std::int64_t k = 0; k < 64; k += 2) map.put_seq(k, k);
  otb::Xorshift rng{37};
  std::vector<std::pair<std::int64_t, std::int64_t>> out;
  out.reserve(64);
  for (auto _ : state) {
    out.clear();
    otb::tx::snapshot_read([&](otb::tx::SnapshotTx& snap) {
      for (int i = 0; i < 8; ++i) {
        const auto h = std::int64_t(8 * rng.next_bounded(8));
        map.range_at(snap, h, h + 15, &out);
      }
    });
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
  otb::tx::set_traversal_hints(saved);
}

void BM_OtbListMapSnapshotRangeScriptHintsOn(benchmark::State& state) {
  snapshot_range_script(state, /*hints_on=*/true);
}
BENCHMARK(BM_OtbListMapSnapshotRangeScriptHintsOn);

void BM_OtbListMapSnapshotRangeScriptHintsOff(benchmark::State& state) {
  snapshot_range_script(state, /*hints_on=*/false);
}
BENCHMARK(BM_OtbListMapSnapshotRangeScriptHintsOff);

// Traversal-hint locality sweep: each transaction issues ops_per_tx
// operations (90% contains / 10% add-remove toggle) with keys drawn
// uniformly over the whole range, clustered in one random 64-key window per
// transaction, or Zipf(0.99)-skewed.  Each shape runs hints-on and
// hints-off (set_traversal_hints) so the pair A/Bs the layer directly;
// hit-rate and traversal-length counters come from the registry sink, so
// they also land in the --metrics-json dump.
enum class KeyMode { kUniform, kClustered, kZipf };

void hint_locality_sweep(benchmark::State& state, KeyMode mode, bool hints_on) {
  constexpr std::int64_t kRange = 8192;
  constexpr std::int64_t kCluster = 64;
  const std::int64_t ops_per_tx = state.range(0);
  const bool saved = otb::tx::traversal_hints_enabled();
  otb::tx::set_traversal_hints(hints_on);
  otb::tx::OtbListSet set;
  for (std::int64_t k = 0; k < kRange; k += 2) set.add_seq(k);
  otb::Xorshift rng{17};
  const otb::Zipf zipf(kRange);
  const auto counter = [](const otb::metrics::SinkSnapshot& s,
                          otb::metrics::CounterId id) {
    return s.counters[static_cast<std::size_t>(id)];
  };
  const otb::metrics::SinkSnapshot before = otb::tx::metrics_sink().snapshot();
  for (auto _ : state) {
    const std::int64_t base =
        mode == KeyMode::kClustered
            ? kCluster * std::int64_t(rng.next_bounded(kRange / kCluster))
            : 0;
    otb::tx::atomically([&](otb::tx::Transaction& tx) {
      for (std::int64_t i = 0; i < ops_per_tx; ++i) {
        std::int64_t key = 0;
        switch (mode) {
          case KeyMode::kUniform:
            key = std::int64_t(rng.next_bounded(kRange));
            break;
          case KeyMode::kClustered:
            key = base + std::int64_t(rng.next_bounded(kCluster));
            break;
          case KeyMode::kZipf:
            key = std::int64_t(zipf.sample(rng));
            break;
        }
        if (rng.chance_pct(10)) {
          if (!set.add(tx, key)) set.remove(tx, key);
        } else {
          set.contains(tx, key);
        }
      }
    });
  }
  const otb::metrics::SinkSnapshot after = otb::tx::metrics_sink().snapshot();
  const double local =
      double(counter(after, otb::metrics::CounterId::kHintHitLocal) -
             counter(before, otb::metrics::CounterId::kHintHitLocal));
  const double cached =
      double(counter(after, otb::metrics::CounterId::kHintHitCached) -
             counter(before, otb::metrics::CounterId::kHintHitCached));
  const double miss = double(counter(after, otb::metrics::CounterId::kHintMiss) -
                             counter(before, otb::metrics::CounterId::kHintMiss));
  const double traversals =
      double(after.traversals.count - before.traversals.count);
  const double steps =
      double(after.traversals.total_steps - before.traversals.total_steps);
  state.counters["hint_hits"] = local + cached;
  state.counters["hint_misses"] = miss;
  state.counters["hint_hit_pct"] =
      local + cached + miss > 0 ? 100.0 * (local + cached) / (local + cached + miss)
                                : 0.0;
  state.counters["avg_traversal_steps"] = traversals > 0 ? steps / traversals : 0.0;
  state.SetItemsProcessed(state.iterations() * ops_per_tx);
  otb::tx::set_traversal_hints(saved);
}

void BM_OtbListSetHintSweepUniformOn(benchmark::State& state) {
  hint_locality_sweep(state, KeyMode::kUniform, /*hints_on=*/true);
}
BENCHMARK(BM_OtbListSetHintSweepUniformOn)->Arg(1)->Arg(8)->Arg(16);

void BM_OtbListSetHintSweepUniformOff(benchmark::State& state) {
  hint_locality_sweep(state, KeyMode::kUniform, /*hints_on=*/false);
}
BENCHMARK(BM_OtbListSetHintSweepUniformOff)->Arg(1)->Arg(8)->Arg(16);

void BM_OtbListSetHintSweepClusteredOn(benchmark::State& state) {
  hint_locality_sweep(state, KeyMode::kClustered, /*hints_on=*/true);
}
BENCHMARK(BM_OtbListSetHintSweepClusteredOn)->Arg(1)->Arg(8)->Arg(16);

void BM_OtbListSetHintSweepClusteredOff(benchmark::State& state) {
  hint_locality_sweep(state, KeyMode::kClustered, /*hints_on=*/false);
}
BENCHMARK(BM_OtbListSetHintSweepClusteredOff)->Arg(1)->Arg(8)->Arg(16);

void BM_OtbListSetHintSweepZipfOn(benchmark::State& state) {
  hint_locality_sweep(state, KeyMode::kZipf, /*hints_on=*/true);
}
BENCHMARK(BM_OtbListSetHintSweepZipfOn)->Arg(1)->Arg(8)->Arg(16);

void BM_OtbListSetHintSweepZipfOff(benchmark::State& state) {
  hint_locality_sweep(state, KeyMode::kZipf, /*hints_on=*/false);
}
BENCHMARK(BM_OtbListSetHintSweepZipfOff)->Arg(1)->Arg(8)->Arg(16);

void BM_StmReadWrite(benchmark::State& state) {
  const auto kind = static_cast<otb::stm::AlgoKind>(state.range(0));
  otb::stm::Config cfg;
  cfg.collect_timing = true;  // --metrics-json consumers want phase histograms
  otb::stm::Runtime rt(kind, cfg);
  otb::stm::TxThread th(rt);
  otb::stm::TVar<std::int64_t> x{0};
  for (auto _ : state) {
    rt.atomically(th, [&](otb::stm::Tx& tx) { tx.write(x, tx.read(x) + 1); });
  }
}
BENCHMARK(BM_StmReadWrite)
    ->Arg(int(otb::stm::AlgoKind::kNOrec))
    ->Arg(int(otb::stm::AlgoKind::kTML))
    ->Arg(int(otb::stm::AlgoKind::kTL2))
    ->Arg(int(otb::stm::AlgoKind::kRingSW))
    ->Arg(int(otb::stm::AlgoKind::kInvalSTM));

void BM_StmRbTreeTxContains(benchmark::State& state) {
  otb::stmds::StmRbTree tree;
  for (std::int64_t k = 0; k < 65536; k += 2) tree.add_seq(k);
  otb::stm::Runtime rt(otb::stm::AlgoKind::kNOrec);
  otb::stm::TxThread th(rt);
  otb::Xorshift rng{7};
  for (auto _ : state) {
    const auto key = std::int64_t(rng.next_bounded(65536));
    rt.atomically(th, [&](otb::stm::Tx& tx) { tree.contains(tx, key); });
  }
}
BENCHMARK(BM_StmRbTreeTxContains);

}  // namespace

// Custom main: peel off --metrics-json before google-benchmark sees the
// flag, and opt the standalone OTB runtime into phase timing so its
// histograms show up in the dump.
int main(int argc, char** argv) {
  otb::bench::install_metrics_json_exporter(argc, argv);
  otb::tx::set_collect_timing(true);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
