// metrics_smoke checker: runs micro_ops (path in argv[1]) with
// --metrics-json and validates the dump against the strict otb.metrics/9
// parser plus the acceptance invariants — every BM_StmReadWrite algorithm
// and the standalone OTB runtime must report attempts and commits, the
// timed domains must carry one attempt-phase sample per attempt and a
// commit phase, and every histogram's bucket sum must equal its sample
// count.  Any algorithm that stops
// reporting through otb::metrics fails this test.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "metrics/json.h"

namespace {

int g_failures = 0;

void fail(const std::string& what) {
  std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  g_failures += 1;
}

void check_histograms(const std::string& domain,
                      const otb::metrics::SinkSnapshot& s) {
  using otb::metrics::Phase;
  for (std::size_t i = 0; i < otb::metrics::kPhaseCount; ++i) {
    const auto& p = s.phases[i];
    std::uint64_t sum = 0;
    for (const auto b : p.log2_buckets) sum += b;
    if (sum != p.count) {
      fail(domain + "." + std::string(to_string(static_cast<Phase>(i))) +
           ": bucket sum " + std::to_string(sum) + " != count " +
           std::to_string(p.count));
    }
  }
  std::uint64_t tsum = 0;
  for (const auto b : s.traversals.log2_buckets) tsum += b;
  if (tsum != s.traversals.count) {
    fail(domain + ".traversals: bucket sum " + std::to_string(tsum) +
         " != count " + std::to_string(s.traversals.count));
  }
  const auto check_series = [&](const char* label,
                                const otb::metrics::SeriesSnapshot& ss) {
    std::uint64_t sum = 0;
    for (const auto b : ss.log2_buckets) sum += b;
    if (sum != ss.count) {
      fail(domain + "." + label + ": bucket sum " + std::to_string(sum) +
           " != count " + std::to_string(ss.count));
    }
  };
  check_series("queue_depth", s.queue_depth);
  check_series("batch_size", s.batch_size);
  check_series("mv_chain_len", s.mv_chain_len);
  check_series("fused_set_size", s.fused_set_size);
}

/// A sink whose counters say it belongs to a service plane (shard).
bool is_service_domain(const otb::metrics::SinkSnapshot& s) {
  using otb::metrics::CounterId;
  return s.counter(CounterId::kSvcEnqueued) != 0 ||
         s.counter(CounterId::kSvcBatches) != 0 ||
         s.counter(CounterId::kSvcReadOnly) != 0;
}

/// The service-plane ledger identities, applied to one shard's sink or to
/// an aggregate sum across shards (the identities are linear, so the sum
/// must satisfy them whenever every addend does).
void check_service_ledger(const std::string& name,
                          const otb::metrics::SinkSnapshot& s) {
  using otb::metrics::CounterId;
  // A service that served only snapshot-route read-only scripts
  // legitimately enqueued and batched nothing.
  const bool read_only_only = s.counter(CounterId::kSvcEnqueued) == 0 &&
                              s.counter(CounterId::kSvcReadOnly) != 0;
  if (!read_only_only) {
    if (s.counter(CounterId::kSvcEnqueued) == 0) fail(name + ": svc_enqueued == 0");
    if (s.counter(CounterId::kSvcBatches) == 0) fail(name + ": svc_batches == 0");
  }
  if (s.counter(CounterId::kSvcEnqueued) !=
      s.batch_size.total + s.counter(CounterId::kSvcExpired)) {
    fail(name + ": enqueued " +
         std::to_string(s.counter(CounterId::kSvcEnqueued)) +
         " != batch_size total " + std::to_string(s.batch_size.total) +
         " + expired " + std::to_string(s.counter(CounterId::kSvcExpired)));
  }
  // Snapshot-route ledger: read-only scripts bypass the queue entirely,
  // and each one resolves as exactly one snapshot read or one version
  // miss (the fallback) — nothing is double-counted or dropped.
  if (s.counter(CounterId::kSvcReadOnly) !=
      s.counter(CounterId::kMvSnapshotReads) +
          s.counter(CounterId::kMvVersionMisses)) {
    fail(name + ": svc_read_only " +
         std::to_string(s.counter(CounterId::kSvcReadOnly)) +
         " != mv_snapshot_reads " +
         std::to_string(s.counter(CounterId::kMvSnapshotReads)) +
         " + mv_version_misses " +
         std::to_string(s.counter(CounterId::kMvVersionMisses)));
  }
  // Fusion ledger (src/service/fusion.h): every union records exactly one
  // merged-set-size sample, and every union adopted at least one request.
  // Requests whose ownership moved via fusion still land in the adopter's
  // batch_size totals, so the enqueued identity above already covers them.
  if (s.counter(CounterId::kFusionUnions) != s.fused_set_size.count) {
    fail(name + ": fusion_unions " +
         std::to_string(s.counter(CounterId::kFusionUnions)) +
         " != fused_set_size count " +
         std::to_string(s.fused_set_size.count));
  }
  if (s.counter(CounterId::kSvcFused) < s.counter(CounterId::kFusionUnions)) {
    fail(name + ": svc_fused " +
         std::to_string(s.counter(CounterId::kSvcFused)) +
         " < fusion_unions " +
         std::to_string(s.counter(CounterId::kFusionUnions)));
  }
}

/// A shard's own ledger domain: "otb.service" (single plane) or
/// "otb.service.s<i>" (sharded).  The adapter domains ("otb.service.net",
/// "otb.service.router") carry no svc_* ledger and stay out of the
/// aggregate.
bool is_shard_ledger_domain(const std::string& name) {
  if (name == "otb.service") return true;
  const std::string prefix = "otb.service.s";
  if (name.size() <= prefix.size() ||
      name.compare(0, prefix.size(), prefix) != 0) {
    return false;
  }
  for (std::size_t i = prefix.size(); i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
  }
  return true;
}

void check_domain(const otb::metrics::Snapshot& snap, const std::string& name,
                  bool want_phase_timing) {
  using otb::metrics::CounterId;
  using otb::metrics::Phase;
  const otb::metrics::SinkSnapshot* s = snap.find(name);
  if (s == nullptr) {
    fail("domain missing from dump: " + name);
    return;
  }
  // Service-plane domains (otb.service*) don't run transactions themselves —
  // their tx work lands in otb.tx — so they get service invariants instead
  // of the attempts/commits ones, chief among them the no-lost-completions
  // identity: every admitted request was either executed in a committed
  // batch or expired (rejected requests are never enqueued).
  // Adapter domains carry only their own counters (net_*, svc_cross_shard):
  // no transactions, no svc_* ledger.  The net domain must at least have
  // accepted a connection to count as live; the router legitimately stays
  // all-zero when no script ever crossed a shard boundary.
  if (name == "otb.service.net") {
    if (s->counter(CounterId::kNetAccepts) == 0) {
      fail(name + ": net_accepts == 0");
    }
    check_histograms(name, *s);
    return;
  }
  if (name == "otb.service.router") {
    check_histograms(name, *s);
    return;
  }
  const bool service_domain = is_service_domain(*s);
  if (service_domain) {
    check_service_ledger(name, *s);
  } else {
    if (s->counter(CounterId::kAttempts) == 0) fail(name + ": attempts == 0");
    if (s->counter(CounterId::kCommits) == 0) fail(name + ": commits == 0");
    if (s->counter(CounterId::kAttempts) <
        s->counter(CounterId::kCommits) + s->aborts_total()) {
      fail(name + ": attempts < commits + aborts");
    }
  }
  if (want_phase_timing && !service_domain) {
    // The shared attempt loop times every attempt and every commit.
    if (s->phase(Phase::kAttempt).count == 0) {
      fail(name + ": attempt-phase histogram is empty");
    }
    if (s->phase(Phase::kCommit).count == 0) {
      fail(name + ": commit-phase histogram is empty");
    }
    if (s->phase(Phase::kAttempt).count != s->counter(CounterId::kAttempts)) {
      fail(name + ": attempt-phase count " +
           std::to_string(s->phase(Phase::kAttempt).count) + " != attempts " +
           std::to_string(s->counter(CounterId::kAttempts)));
    }
  }
  check_histograms(name, *s);
}

/// `metrics_check --validate <dump.json> [domain...]`: validate an existing
/// --metrics-json dump instead of spawning micro_ops.  Used by the CI
/// bench-smoke job on the figure harnesses' output.  Named domains must be
/// present and self-consistent; every domain in the dump gets the histogram
/// bucket-sum check regardless.
int validate_dump(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: metrics_check --validate <dump.json> [domain...]\n");
    return 2;
  }
  std::ifstream in(argv[2]);
  if (!in) {
    std::fprintf(stderr, "FAIL: cannot read %s\n", argv[2]);
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const auto snap = otb::metrics::from_json(buf.str());
  if (!snap.has_value()) {
    std::fprintf(stderr, "FAIL: %s does not parse as %s\n", argv[2],
                 std::string(otb::metrics::kJsonSchemaId).c_str());
    return 1;
  }
  for (int i = 3; i < argc; ++i) {
    check_domain(*snap, argv[i], /*want_phase_timing=*/false);
  }
  for (const auto& [name, s] : snap->domains) check_histograms(name, s);
  // Sharded runs: sum the per-shard ledger domains and hold the aggregate
  // to the same identities — a cross-shard accounting leak shows up here
  // even when every individual shard balances.
  otb::metrics::SinkSnapshot agg;
  int shard_domains = 0;
  for (const auto& [name, s] : snap->domains) {
    if (is_shard_ledger_domain(name)) {
      agg += s;
      ++shard_domains;
    }
  }
  if (shard_domains >= 2 && is_service_domain(agg)) {
    check_service_ledger("otb.service<aggregate of " +
                             std::to_string(shard_domains) + ">",
                         agg);
  }
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed; dump:\n%s\n", g_failures,
                 snap->to_table().c_str());
    return 1;
  }
  std::printf("metrics_check OK: %zu domains\n%s", snap->domains.size(),
              snap->to_table().c_str());
  return 0;
}

// ---- perf-regression compare (`metrics_check --compare`) --------------------

/// One bench-baseline document: the `otb.bench_baseline/1` wrapper
/// run_baselines.sh writes, holding one otb.metrics snapshot per run.
struct BaselineDoc {
  std::uint64_t bench_ms = 0;
  std::string threads;
  std::vector<std::pair<std::string, otb::metrics::Snapshot>> runs;
};

bool parse_baseline(const std::string& text, BaselineDoc& out) {
  otb::metrics::detail::Parser p(text);
  if (!p.consume('{')) return false;
  bool got_schema = false, got_runs = false;
  do {
    std::string key;
    if (!p.parse_string(key) || !p.consume(':')) return false;
    if (key == "schema") {
      std::string id;
      if (!p.parse_string(id) || id != "otb.bench_baseline/1") return false;
      got_schema = true;
    } else if (key == "generated_by") {
      std::string ignored;
      if (!p.parse_string(ignored)) return false;
    } else if (key == "bench_ms") {
      if (!p.parse_u64(out.bench_ms)) return false;
    } else if (key == "threads") {
      if (!p.parse_string(out.threads)) return false;
    } else if (key == "runs" && !got_runs) {
      got_runs = true;
      if (!p.consume('{')) return false;
      if (!p.peek_is('}')) {
        do {
          std::string name;
          if (!p.parse_string(name) || !p.consume(':')) return false;
          otb::metrics::Snapshot snap;
          if (!otb::metrics::detail::parse_snapshot(p, snap)) return false;
          out.runs.emplace_back(std::move(name), std::move(snap));
        } while (p.consume(','));
      }
      if (!p.consume('}')) return false;
    } else {
      return false;
    }
  } while (p.consume(','));
  if (!p.consume('}') || !p.at_end()) return false;
  return got_schema && got_runs && out.bench_ms != 0;
}

bool read_baseline(const char* path, BaselineDoc& out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "FAIL: cannot read %s\n", path);
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!parse_baseline(buf.str(), out)) {
    std::fprintf(stderr, "FAIL: %s does not parse as otb.bench_baseline/1\n",
                 path);
    return false;
  }
  return true;
}

/// `metrics_check --compare <old.json> <new.json> [tolerance_pct]`:
/// record-and-compare perf smoke.  Each (run, domain) pair present in both
/// baselines yields up to two throughput series — committed transactions,
/// and inline read-only completions (`svc_read_only`, the multi-version
/// snapshot route) — normalised by
/// that file's measured duration — and any series dropping by more than
/// tolerance_pct (default 30, chosen noise-tolerant for shared CI runners)
/// fails the check.  Low-count series (< 50 commits in the old baseline)
/// and the google-benchmark-paced micro_ops run are skipped: they measure
/// self-timed iterations, not a fixed-duration rate.  A thread-count
/// mismatch means the baselines are not comparable; warn and exit 0 rather
/// than fail on configuration drift.
int compare_baselines(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(
        stderr,
        "usage: metrics_check --compare <old.json> <new.json> [tolerance_pct]\n");
    return 2;
  }
  const double tol_pct = argc >= 5 ? std::atof(argv[4]) : 30.0;
  BaselineDoc oldb, newb;
  if (!read_baseline(argv[2], oldb) || !read_baseline(argv[3], newb)) return 1;
  if (oldb.threads != newb.threads) {
    std::fprintf(stderr,
                 "WARN: thread configs differ ('%s' vs '%s'); baselines are "
                 "not comparable, skipping\n",
                 oldb.threads.c_str(), newb.threads.c_str());
    return 0;
  }

  constexpr std::uint64_t kMinCommits = 50;
  const double floor_ratio = 1.0 - tol_pct / 100.0;
  int compared = 0;
  for (const auto& [run, old_snap] : oldb.runs) {
    if (run == "micro_ops") continue;  // self-timed, not a fixed-duration rate
    const otb::metrics::Snapshot* new_snap = nullptr;
    for (const auto& [name, snap] : newb.runs) {
      if (name == run) new_snap = &snap;
    }
    if (new_snap == nullptr) {
      fail("run missing from new baseline: " + run);
      continue;
    }
    for (const auto& [domain, old_s] : old_snap.domains) {
      const otb::metrics::SinkSnapshot* new_s = new_snap->find(domain);
      // Two rates per (run, domain), each gated only when the old series
      // is hot enough: committed transactions (the batched/validated
      // path), and inline read-only completions (the multi-version
      // snapshot route — those never commit a transaction, so kCommits
      // alone would leave the read-mostly rows ungated).
      const struct {
        otb::metrics::CounterId id;
        const char* label;
      } series[] = {
          {otb::metrics::CounterId::kCommits, "commits"},
          {otb::metrics::CounterId::kSvcReadOnly, "ro-reads"},
      };
      for (const auto& sr : series) {
        const std::uint64_t old_count = old_s.counter(sr.id);
        if (old_count < kMinCommits) continue;  // too noisy to gate on
        if (new_s == nullptr) {
          fail(run + "/" + domain + ": domain missing from new baseline");
          break;
        }
        const double old_rate = double(old_count) / double(oldb.bench_ms);
        const double new_rate =
            double(new_s->counter(sr.id)) / double(newb.bench_ms);
        const double ratio = new_rate / old_rate;
        ++compared;
        std::printf("  %-28s %-12s %10.0f -> %10.0f %s/ms-series  (%.2fx)\n",
                    run.c_str(), domain.c_str(), old_rate, new_rate, sr.label,
                    ratio);
        if (ratio < floor_ratio) {
          fail(run + "/" + domain + "/" + sr.label +
               ": throughput regressed to " + std::to_string(ratio) +
               "x of baseline (floor " + std::to_string(floor_ratio) + "x)");
        }
      }
    }
  }
  if (g_failures != 0) {
    std::fprintf(stderr, "%d series regressed beyond %.0f%%\n", g_failures,
                 tol_pct);
    return 1;
  }
  std::printf("compare OK: %d series within %.0f%% of baseline\n", compared,
              tol_pct);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "--validate") {
    return validate_dump(argc, argv);
  }
  if (argc >= 2 && std::string(argv[1]) == "--compare") {
    return compare_baselines(argc, argv);
  }
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: metrics_check <path-to-micro_ops>\n"
                 "       metrics_check --validate <dump.json> [domain...]\n"
                 "       metrics_check --compare <old.json> <new.json> "
                 "[tolerance_pct]\n");
    return 2;
  }
  const std::string json_path = "metrics_smoke.json";
  std::remove(json_path.c_str());

  // Keep the run short: one repetition of the transactional benchmarks is
  // enough to populate every domain the checker asserts on.
  const std::string cmd =
      std::string(argv[1]) +
      " --benchmark_filter='BM_StmReadWrite|BM_OtbListSetTx|BM_OtbSkipListSetTx'"
      " --benchmark_min_time=0.01 --metrics-json=" +
      json_path + " > /dev/null";
  const int rc = std::system(cmd.c_str());
  if (rc != 0) {
    std::fprintf(stderr, "FAIL: micro_ops exited with %d\n", rc);
    return 1;
  }

  std::ifstream in(json_path);
  if (!in) {
    std::fprintf(stderr, "FAIL: %s was not written\n", json_path.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string body = buf.str();

  const auto snap = otb::metrics::from_json(body);
  if (!snap.has_value()) {
    std::fprintf(stderr, "FAIL: dump does not parse as %s\n",
                 std::string(otb::metrics::kJsonSchemaId).c_str());
    return 1;
  }

  // BM_StmReadWrite runs these five with collect_timing on, so each must
  // carry one attempt-phase sample per attempt and a commit phase.
  for (const char* algo : {"NOrec", "TL2", "TML", "RingSW", "InvalSTM"}) {
    check_domain(*snap, std::string("stm.") + algo, /*want_phase_timing=*/true);
  }
  // The OTB linked-list/skip-list set benches drive the standalone runtime
  // with set_collect_timing(true).
  check_domain(*snap, "otb.tx", /*want_phase_timing=*/true);

  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed; dump:\n%s\n", g_failures,
                 snap->to_table().c_str());
    return 1;
  }
  std::printf("metrics_smoke OK: %zu domains\n%s", snap->domains.size(),
              snap->to_table().c_str());
  return 0;
}
