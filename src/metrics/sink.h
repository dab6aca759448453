// MetricsSink: the instrument bundle one reporting domain writes into.
//
// A sink owns sharded counters (one per `CounterId`), per-reason abort
// counters, and per-phase timers + log2 histograms.  Transaction contexts
// never write it mid-attempt: they accumulate into a plain `TxTally` and
// flush the delta here once per attempt (`record_attempt`), so the hot path
// costs a handful of relaxed fetch_adds per *attempt*, not per operation.
//
// Injection: runtimes default to a named sink in `Registry::global()`;
// tests pass their own instance through `Config::metrics` (the in-memory
// fake — same type, just unregistered).
#pragma once

#include <cstdint>

#include "metrics/abort_reason.h"
#include "metrics/counter.h"
#include "metrics/histogram.h"
#include "metrics/snapshot.h"
#include "metrics/tally.h"

namespace otb::metrics {

class MetricsSink {
 public:
  void add(CounterId id, std::uint64_t n = 1) noexcept {
    counters_[index(id)].add(n);
  }

  void record_abort(AbortReason r) noexcept { aborts_[index(r)].add(1); }

  /// Feed one phase sample into both the timer and the histogram.
  void record_phase(Phase p, std::uint64_t ns) noexcept {
    timers_[index(p)].record(ns);
    histograms_[index(p)].record(ns);
  }

  /// Flush one finished attempt.  `d` is the tally delta accumulated during
  /// that attempt; `committed` selects commit vs abort accounting, and `r`
  /// attributes the abort.  Zero fields are skipped, so algorithms that do
  /// not time phases (or do not spin on locks) pay nothing for them.
  void record_attempt(const TxTally& d, bool committed, AbortReason r) noexcept {
    add(CounterId::kAttempts);
    if (committed) {
      add(CounterId::kCommits);
    } else {
      record_abort(r);
    }
    if (d.reads != 0) add(CounterId::kReads, d.reads);
    if (d.writes != 0) add(CounterId::kWrites, d.writes);
    if (d.validations != 0) add(CounterId::kValidations, d.validations);
    if (d.validations_fast != 0) add(CounterId::kValidationsFast, d.validations_fast);
    if (d.validations_full != 0) add(CounterId::kValidationsFull, d.validations_full);
    if (d.lock_cas_failures != 0) add(CounterId::kLockCasFailures, d.lock_cas_failures);
    if (d.lock_acquisitions != 0) add(CounterId::kLockAcquisitions, d.lock_acquisitions);
    if (d.lock_spins != 0) add(CounterId::kLockSpins, d.lock_spins);
    if (d.mv_versions_reclaimed != 0)
      add(CounterId::kMvVersionsReclaimed, d.mv_versions_reclaimed);
    if (d.ns_total != 0) record_phase(Phase::kAttempt, d.ns_total);
    if (d.ns_validation != 0) record_phase(Phase::kValidation, d.ns_validation);
    if (d.ns_commit != 0) record_phase(Phase::kCommit, d.ns_commit);
    if (d.hint_hit_local != 0) add(CounterId::kHintHitLocal, d.hint_hit_local);
    if (d.hint_hit_cached != 0) add(CounterId::kHintHitCached, d.hint_hit_cached);
    if (d.hint_miss != 0) add(CounterId::kHintMiss, d.hint_miss);
    if (d.traversals != 0) {
      // Derive the count from the bucket row so the two can never drift.
      traversal_count_.add(traversal_hist_.add_buckets(d.traversal_log2));
      if (d.traversal_steps != 0) traversal_steps_.add(d.traversal_steps);
    }
  }

  /// One queue-depth observation (service workers sample their shard's
  /// depth at every batch pop).  Direct sink write: pops happen once per
  /// batch, not per request, so there is no tally to defer through.
  void record_queue_depth(std::uint64_t depth) noexcept {
    queue_depth_count_.add(1);
    queue_depth_total_.add(depth);
    queue_depth_hist_.record(depth);
  }

  /// Size of one executed service batch.
  void record_batch_size(std::uint64_t n) noexcept {
    batch_size_count_.add(1);
    batch_size_total_.add(n);
    batch_size_hist_.record(n);
  }

  /// Size of one fused commit unit: the adopter's batch size right after a
  /// fusion union absorbed a donated batch (src/service/fusion.h).  One
  /// sample per union, so fused_set_size.count == fusion_unions by
  /// construction.
  void record_fused_set_size(std::uint64_t n) noexcept {
    fused_set_count_.add(1);
    fused_set_total_.add(n);
    fused_set_hist_.record(n);
  }

  /// Flush the chain-depth samples one snapshot read accumulated (one
  /// sample per version-chain resolve; `total` is the summed depths).  The
  /// count is derived from the bucket row so the two can never drift.
  void record_mv_chain_slice(
      std::uint64_t total,
      const std::array<std::uint64_t, Histogram::kBuckets>& row) noexcept {
    const std::uint64_t n = mv_chain_hist_.add_buckets(row);
    if (n != 0) mv_chain_count_.add(n);
    if (total != 0) mv_chain_total_.add(total);
  }

  std::uint64_t counter(CounterId id) const noexcept {
    return counters_[index(id)].total();
  }
  std::uint64_t aborts(AbortReason r) const noexcept {
    return aborts_[index(r)].total();
  }
  std::uint64_t aborts_total() const noexcept {
    std::uint64_t sum = 0;
    for (const auto& c : aborts_) sum += c.total();
    return sum;
  }

  SinkSnapshot snapshot() const {
    SinkSnapshot s;
    for (std::size_t i = 0; i < kCounterCount; ++i) s.counters[i] = counters_[i].total();
    for (std::size_t i = 0; i < kAbortReasonCount; ++i) s.aborts[i] = aborts_[i].total();
    for (std::size_t i = 0; i < kPhaseCount; ++i) {
      s.phases[i].count = timers_[i].count();
      s.phases[i].total_ns = timers_[i].total_ns();
      s.phases[i].log2_buckets = histograms_[i].buckets();
    }
    s.traversals.count = traversal_count_.total();
    s.traversals.total_steps = traversal_steps_.total();
    s.traversals.log2_buckets = traversal_hist_.buckets();
    s.queue_depth.count = queue_depth_count_.total();
    s.queue_depth.total = queue_depth_total_.total();
    s.queue_depth.log2_buckets = queue_depth_hist_.buckets();
    s.batch_size.count = batch_size_count_.total();
    s.batch_size.total = batch_size_total_.total();
    s.batch_size.log2_buckets = batch_size_hist_.buckets();
    s.mv_chain_len.count = mv_chain_count_.total();
    s.mv_chain_len.total = mv_chain_total_.total();
    s.mv_chain_len.log2_buckets = mv_chain_hist_.buckets();
    s.fused_set_size.count = fused_set_count_.total();
    s.fused_set_size.total = fused_set_total_.total();
    s.fused_set_size.log2_buckets = fused_set_hist_.buckets();
    return s;
  }

  void reset() noexcept {
    for (auto& c : counters_) c.reset();
    for (auto& c : aborts_) c.reset();
    for (auto& t : timers_) t.reset();
    for (auto& h : histograms_) h.reset();
    traversal_count_.reset();
    traversal_steps_.reset();
    traversal_hist_.reset();
    queue_depth_count_.reset();
    queue_depth_total_.reset();
    queue_depth_hist_.reset();
    batch_size_count_.reset();
    batch_size_total_.reset();
    batch_size_hist_.reset();
    mv_chain_count_.reset();
    mv_chain_total_.reset();
    mv_chain_hist_.reset();
    fused_set_count_.reset();
    fused_set_total_.reset();
    fused_set_hist_.reset();
  }

 private:
  std::array<Counter, kCounterCount> counters_{};
  std::array<Counter, kAbortReasonCount> aborts_{};
  std::array<NsTimer, kPhaseCount> timers_{};
  std::array<Histogram, kPhaseCount> histograms_{};
  Counter traversal_count_{};
  Counter traversal_steps_{};
  Histogram traversal_hist_{};
  Counter queue_depth_count_{};
  Counter queue_depth_total_{};
  Histogram queue_depth_hist_{};
  Counter batch_size_count_{};
  Counter batch_size_total_{};
  Histogram batch_size_hist_{};
  Counter mv_chain_count_{};
  Counter mv_chain_total_{};
  Histogram mv_chain_hist_{};
  Counter fused_set_count_{};
  Counter fused_set_total_{};
  Histogram fused_set_hist_{};
};

}  // namespace otb::metrics
