// Stable snapshot types: what a `MetricsSink` / `Registry` read produces.
// Snapshots are plain values — safe to copy, diff, serialise, and compare
// long after the sinks that produced them are gone.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "metrics/abort_reason.h"
#include "metrics/histogram.h"

namespace otb::metrics {

/// Operation counters a sink maintains.  Abort totals are *not* here: they
/// are kept per `AbortReason` and summed on demand, so the taxonomy can
/// never disagree with the total.
enum class CounterId : unsigned {
  kCommits = 0,
  kAttempts,
  kReads,
  kWrites,
  kValidations,
  kLockCasFailures,
  kLockAcquisitions,
  kLockSpins,
  kValidationsFast,
  kValidationsFull,
  kHintHitLocal,
  kHintHitCached,
  kHintMiss,
  // Service-plane request accounting (domain "otb.service"): the admission
  // and completion ledger.  svc_enqueued = svc-completed-ok + svc_expired +
  // svc_failed once the service has drained; svc_rejected requests never
  // enter a queue.
  kSvcEnqueued,
  kSvcRejected,
  kSvcExpired,
  kSvcFailed,
  kSvcBatches,
  // svc_batch_splits counts spent attempt budgets: batches whose four
  // shared-gate attempts all aborted (each is then adopted, donated or run
  // under the exclusive gate — src/service/fusion.h).
  kSvcBatchSplits,
  // Multi-op script surface (schema otb.metrics/4): svc_scripts counts
  // admitted requests with more than one step, svc_script_steps the total
  // steps admitted (svc_script_steps >= svc_enqueued), svc_guard_aborts the
  // requests completed via a solo guard failure (a subset of the kOk
  // completions counted in batch_size.total).
  kSvcScripts,
  kSvcScriptSteps,
  kSvcGuardAborts,
  // Durability surface (schema otb.metrics/5): wal_appends counts commit
  // records written to the write-ahead log, wal_bytes the bytes those
  // records occupy on disk (headers included), wal_fsyncs the fsync(2)
  // calls issued by the group-commit policy (docs/DURABILITY.md).
  kWalAppends,
  kWalFsyncs,
  kWalBytes,
  // Multi-version read surface (schema otb.metrics/6, src/otb/mv.h):
  // mv_snapshot_reads counts read-only transactions served entirely from
  // version chains (no validation, no abort), mv_version_misses the ones
  // that fell back to the validated path because a chain no longer held an
  // entry at the snapshot stamp, mv_versions_reclaimed the ring evictions
  // writers caused while publishing new versions.  svc_read_only (domain
  // "otb.service") counts scripts the service routed down the snapshot
  // path: svc_read_only == mv_snapshot_reads + mv_version_misses in any
  // service domain — these completions bypass the queue, so they are NOT
  // part of the svc_enqueued ledger.
  kMvSnapshotReads,
  kMvVersionMisses,
  kMvVersionsReclaimed,
  kSvcReadOnly,
  // Network front end + key-space sharding (schema otb.metrics/7):
  // svc_cross_shard counts scripts rejected kFailed at the shard router
  // because their key set spans shards or is unroutable under hash
  // partitioning (keyless verbs, ranges, runtime-bound keys — see
  // docs/SERVICE.md "Network server & sharding"); net_accepts counts
  // connections accepted by the epoll server, net_frames_in decoded
  // request frames, net_backpressure transitions of a connection into the
  // paused state (reading suspended at a high-water mark).
  kSvcCrossShard,
  kNetAccepts,
  kNetFramesIn,
  kNetBackpressure,
  // Contention-manager / transaction-fusion surface (schema otb.metrics/8,
  // src/service/fusion.h): svc_fused counts requests whose ownership moved
  // to another worker's commit unit via fusion; fusion_unions counts the
  // commit-unit merges themselves (one per adopted batch, so svc_fused >=
  // fusion_unions); fusion_fallbacks counts donated batches nobody adopted
  // before the donor's spin budget lapsed — the batch then ran under the
  // exclusive commit gate.
  kSvcFused,
  kFusionUnions,
  kFusionFallbacks,
};

inline constexpr std::size_t kCounterCount = 36;

constexpr std::string_view to_string(CounterId id) {
  switch (id) {
    case CounterId::kCommits:
      return "commits";
    case CounterId::kAttempts:
      return "attempts";
    case CounterId::kReads:
      return "reads";
    case CounterId::kWrites:
      return "writes";
    case CounterId::kValidations:
      return "validations";
    case CounterId::kLockCasFailures:
      return "lock_cas_failures";
    case CounterId::kLockAcquisitions:
      return "lock_acquisitions";
    case CounterId::kLockSpins:
      return "lock_spins";
    case CounterId::kValidationsFast:
      return "validations_fast";
    case CounterId::kValidationsFull:
      return "validations_full";
    case CounterId::kHintHitLocal:
      return "hint_hit_local";
    case CounterId::kHintHitCached:
      return "hint_hit_cached";
    case CounterId::kHintMiss:
      return "hint_miss";
    case CounterId::kSvcEnqueued:
      return "svc_enqueued";
    case CounterId::kSvcRejected:
      return "svc_rejected";
    case CounterId::kSvcExpired:
      return "svc_expired";
    case CounterId::kSvcFailed:
      return "svc_failed";
    case CounterId::kSvcBatches:
      return "svc_batches";
    case CounterId::kSvcBatchSplits:
      return "svc_batch_splits";
    case CounterId::kSvcScripts:
      return "svc_scripts";
    case CounterId::kSvcScriptSteps:
      return "svc_script_steps";
    case CounterId::kSvcGuardAborts:
      return "svc_guard_aborts";
    case CounterId::kWalAppends:
      return "wal_appends";
    case CounterId::kWalFsyncs:
      return "wal_fsyncs";
    case CounterId::kWalBytes:
      return "wal_bytes";
    case CounterId::kMvSnapshotReads:
      return "mv_snapshot_reads";
    case CounterId::kMvVersionMisses:
      return "mv_version_misses";
    case CounterId::kMvVersionsReclaimed:
      return "mv_versions_reclaimed";
    case CounterId::kSvcReadOnly:
      return "svc_read_only";
    case CounterId::kSvcCrossShard:
      return "svc_cross_shard";
    case CounterId::kNetAccepts:
      return "net_accepts";
    case CounterId::kNetFramesIn:
      return "net_frames_in";
    case CounterId::kNetBackpressure:
      return "net_backpressure";
    case CounterId::kSvcFused:
      return "svc_fused";
    case CounterId::kFusionUnions:
      return "fusion_unions";
    case CounterId::kFusionFallbacks:
      return "fusion_fallbacks";
  }
  return "?";
}

constexpr std::size_t index(CounterId id) { return static_cast<std::size_t>(id); }

/// Timed phases of one transaction attempt.  `kAttempt` is the whole
/// attempt (begin -> commit/abort); validation and commit are the phases
/// the paper's critical-path analysis (Fig 6.2) decomposes.
enum class Phase : unsigned {
  kAttempt = 0,
  kValidation,
  kCommit,
  // Service-plane enqueue-to-completion latency: what a client of the
  // request path experiences, queueing included (domain "otb.service").
  kService,
  // Write-ahead-log fsync latency: one sample per fsync(2) issued by the
  // group-commit policy (domain "otb.service", docs/DURABILITY.md).
  kWalFsync,
};

inline constexpr std::size_t kPhaseCount = 5;

constexpr std::string_view to_string(Phase p) {
  switch (p) {
    case Phase::kAttempt:
      return "attempt";
    case Phase::kValidation:
      return "validation";
    case Phase::kCommit:
      return "commit";
    case Phase::kService:
      return "service";
    case Phase::kWalFsync:
      return "wal_fsync";
  }
  return "?";
}

constexpr std::size_t index(Phase p) { return static_cast<std::size_t>(p); }

struct PhaseSnapshot {
  std::uint64_t count = 0;     // attempts that contributed a sample
  std::uint64_t total_ns = 0;  // summed nanoseconds across samples
  std::array<std::uint64_t, Histogram::kBuckets> log2_buckets{};

  bool operator==(const PhaseSnapshot&) const = default;
};

/// Traversal-length distribution: one sample per structure traversal, the
/// value being the number of node hops (bucketed log2 like phase latency).
/// `count` always equals the bucket sum — both are bumped from the same
/// tally flush (`MetricsSink::record_attempt`).
struct TraversalSnapshot {
  std::uint64_t count = 0;        // traversals sampled
  std::uint64_t total_steps = 0;  // summed node hops across samples
  std::array<std::uint64_t, Histogram::kBuckets> log2_buckets{};

  bool operator==(const TraversalSnapshot&) const = default;
};

/// Generic log2-bucketed sample series.  The service plane records two per
/// sink: queue depth observed at each batch pop and the size of each
/// executed batch (mean = total / count).
struct SeriesSnapshot {
  std::uint64_t count = 0;  // samples recorded
  std::uint64_t total = 0;  // summed sample values
  std::array<std::uint64_t, Histogram::kBuckets> log2_buckets{};

  bool operator==(const SeriesSnapshot&) const = default;
};

/// Point-in-time copy of one sink (one reporting domain).
struct SinkSnapshot {
  std::array<std::uint64_t, kCounterCount> counters{};
  std::array<std::uint64_t, kAbortReasonCount> aborts{};
  std::array<PhaseSnapshot, kPhaseCount> phases{};
  TraversalSnapshot traversals{};
  SeriesSnapshot queue_depth{};
  SeriesSnapshot batch_size{};
  // Version-chain entries inspected per resolve on the snapshot-read path
  // (1 == newest version matched; mean = total / count).
  SeriesSnapshot mv_chain_len{};
  // Merged commit-unit size after each fusion union: one sample per
  // adoption, valued at the adopter's batch size post-merge.  Identity:
  // fused_set_size.count == fusion_unions.
  SeriesSnapshot fused_set_size{};

  std::uint64_t counter(CounterId id) const { return counters[index(id)]; }
  std::uint64_t aborts_for(AbortReason r) const { return aborts[index(r)]; }
  std::uint64_t aborts_total() const {
    std::uint64_t sum = 0;
    for (const auto v : aborts) sum += v;
    return sum;
  }
  const PhaseSnapshot& phase(Phase p) const { return phases[index(p)]; }

  SinkSnapshot& operator+=(const SinkSnapshot& o) {
    for (std::size_t i = 0; i < kCounterCount; ++i) counters[i] += o.counters[i];
    for (std::size_t i = 0; i < kAbortReasonCount; ++i) aborts[i] += o.aborts[i];
    for (std::size_t i = 0; i < kPhaseCount; ++i) {
      phases[i].count += o.phases[i].count;
      phases[i].total_ns += o.phases[i].total_ns;
      for (std::size_t b = 0; b < Histogram::kBuckets; ++b)
        phases[i].log2_buckets[b] += o.phases[i].log2_buckets[b];
    }
    traversals.count += o.traversals.count;
    traversals.total_steps += o.traversals.total_steps;
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b)
      traversals.log2_buckets[b] += o.traversals.log2_buckets[b];
    queue_depth.count += o.queue_depth.count;
    queue_depth.total += o.queue_depth.total;
    batch_size.count += o.batch_size.count;
    batch_size.total += o.batch_size.total;
    mv_chain_len.count += o.mv_chain_len.count;
    mv_chain_len.total += o.mv_chain_len.total;
    fused_set_size.count += o.fused_set_size.count;
    fused_set_size.total += o.fused_set_size.total;
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      queue_depth.log2_buckets[b] += o.queue_depth.log2_buckets[b];
      batch_size.log2_buckets[b] += o.batch_size.log2_buckets[b];
      mv_chain_len.log2_buckets[b] += o.mv_chain_len.log2_buckets[b];
      fused_set_size.log2_buckets[b] += o.fused_set_size.log2_buckets[b];
    }
    return *this;
  }

  bool operator==(const SinkSnapshot&) const = default;
};

/// Multi-domain snapshot: what `Registry::snapshot()` returns.  Domains are
/// named "stm.NOrec", "otb.tx", "boosted", ... and kept in registration
/// order (stable across a run).
struct Snapshot {
  std::vector<std::pair<std::string, SinkSnapshot>> domains;

  const SinkSnapshot* find(std::string_view name) const {
    for (const auto& [n, s] : domains)
      if (n == name) return &s;
    return nullptr;
  }

  bool operator==(const Snapshot&) const = default;

  /// Human-readable table (one row per domain) for quick printf debugging.
  std::string to_table() const {
    std::string out =
        "domain                     commits    aborts  attempts     reads    writes\n";
    char line[160];
    for (const auto& [name, s] : domains) {
      std::snprintf(line, sizeof(line), "%-24s %9llu %9llu %9llu %9llu %9llu\n",
                    name.c_str(),
                    static_cast<unsigned long long>(s.counter(CounterId::kCommits)),
                    static_cast<unsigned long long>(s.aborts_total()),
                    static_cast<unsigned long long>(s.counter(CounterId::kAttempts)),
                    static_cast<unsigned long long>(s.counter(CounterId::kReads)),
                    static_cast<unsigned long long>(s.counter(CounterId::kWrites)));
      out += line;
    }
    return out;
  }
};

}  // namespace otb::metrics
