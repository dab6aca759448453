// Hybrid NOrec over the simulated HTM (§7.1.1's first proposal: best-effort
// hardware transactions with an STM fallback, in the Hybrid-NOrec style the
// paper cites as the natural fit for a single-global-lock STM).
//
// Fast path: run the whole transaction body inside a simulated hardware
// transaction.  The HTM subscribes to the NOrec clock, so a software commit
// aborts every live hardware transaction and vice versa — exactly the
// coupling that makes Hybrid NOrec sound.  After `htm_retries` failed
// hardware attempts (or a capacity abort, which retrying cannot fix), the
// transaction falls back to the plain NOrec context.
#pragma once

#include "common/attempt_loop.h"
#include "htm/sim_htm.h"
#include "metrics/registry.h"
#include "metrics/sink.h"
#include "stm/algs/norec.h"

namespace otb::htm {

/// Map the simulator's abort codes onto the shared metrics taxonomy.
constexpr metrics::AbortReason to_metrics_reason(AbortReason r) {
  switch (r) {
    case AbortReason::kCapacity:
      return metrics::AbortReason::kHtmCapacity;
    case AbortReason::kSpurious:
      return metrics::AbortReason::kHtmSpurious;
    case AbortReason::kBusy:
      return metrics::AbortReason::kHtmBusy;
    case AbortReason::kConflict:
    case AbortReason::kNone:
      break;
  }
  return metrics::AbortReason::kHtmConflict;
}

/// Thrown inside the fast path to unwind the user lambda when the hardware
/// transaction dies mid-body (the simulation's analogue of the implicit
/// jump to the abort handler).
struct HtmAborted {};

/// Tx facade whose barriers go through a simulated hardware transaction.
class HtmFastPathTx final : public stm::Tx {
 public:
  explicit HtmFastPathTx(SeqLock& clock) : htm_(clock) {}

  void begin() override {
    if (!htm_.begin()) throw HtmAborted{};
  }

  stm::Word read_word(const stm::TWord* addr) override {
    stats_.reads += 1;
    stm::Word value;
    if (!htm_.read(addr, &value)) throw HtmAborted{};
    return value;
  }

  void write_word(stm::TWord* addr, stm::Word value) override {
    stats_.writes += 1;
    if (!htm_.write(addr, value)) throw HtmAborted{};
  }

  void commit() override {
    if (!htm_.commit()) throw HtmAborted{};
  }

  void rollback() override {}

  AbortReason reason() const { return htm_.reason(); }

 private:
  HtmTx htm_;
};

class HybridNOrecRuntime {
 public:
  explicit HybridNOrecRuntime(stm::Config cfg = {}, unsigned htm_retries = 4)
      : global_(cfg),
        htm_retries_(htm_retries),
        sink_(cfg.metrics != nullptr
                  ? cfg.metrics
                  : &metrics::Registry::global().sink("htm.HybridNOrec")) {}

  /// Per-thread context pair (hardware facade + software fallback).
  struct Thread {
    explicit Thread(HybridNOrecRuntime& rt)
        : hw(rt.global_.clock), sw(rt.global_) {}
    HtmFastPathTx hw;
    stm::NOrecTx sw;
    HtmStats htm_stats;
  };

  std::unique_ptr<Thread> make_thread() { return std::make_unique<Thread>(*this); }

  /// The sink both paths report through (fast-path attempts directly, the
  /// software fallback through the attempt loop).
  metrics::MetricsSink& metrics_sink() const { return *sink_; }
  metrics::SinkSnapshot metrics() const { return sink_->snapshot(); }

  /// Execute atomically: HTM attempts first, NOrec fallback after.  Returns
  /// the attempt report (hardware and software attempts combined).  Every
  /// hardware attempt is flushed like one of the attempt loop's
  /// (common/attempt_loop.h): its reads, writes, outcome and, when timed,
  /// its phase times.  A user exception on the hardware path counts as an
  /// explicit abort and leaves; a capacity abort goes straight to the
  /// fallback, since retrying cannot fit the footprint.
  template <typename Fn>
  metrics::AttemptReport atomically(Thread& th, Fn&& fn) {
    metrics::AttemptReport report;
    const bool timed = global_.collect_timing;
    for (unsigned attempt = 0; attempt < htm_retries_; ++attempt) {
      std::uint64_t t0 = timed ? now_ns() : 0;
      std::uint64_t commit_t0 = 0;
      bool committed = false;
      try {
        th.hw.begin();
        if (timed) t0 = now_ns();
        fn(static_cast<stm::Tx&>(th.hw));
        if (timed) commit_t0 = now_ns();
        th.hw.commit();
        committed = true;
      } catch (const HtmAborted&) {
      } catch (...) {
        detail::close_attempt(th.hw, *sink_, timed, t0, commit_t0, false,
                              metrics::AbortReason::kExplicit);
        throw;
      }
      const metrics::AbortReason r = committed
                                         ? metrics::AbortReason::kNone
                                         : to_metrics_reason(th.hw.reason());
      detail::close_attempt(th.hw, *sink_, timed, t0, commit_t0, committed, r);
      if (committed) {
        th.htm_stats.commits += 1;
        report.commits = 1;
        return report;
      }
      th.htm_stats.count(th.hw.reason());
      report.aborts += 1;
      report.last_reason = r;
      if (th.hw.reason() == AbortReason::kCapacity) break;  // hopeless
    }
    // Software fallback: plain NOrec on the same clock — mutual abort with
    // concurrent hardware transactions is automatic.
    const metrics::AttemptReport sw = run_attempts(
        static_cast<stm::Tx&>(th.sw), *sink_, timed, 0, fn);
    report.commits = sw.commits;
    report.aborts += sw.aborts;
    if (sw.aborts != 0) report.last_reason = sw.last_reason;
    return report;
  }

  SeqLock& clock() { return global_.clock; }

 private:
  stm::NOrecGlobal global_;
  unsigned htm_retries_;
  metrics::MetricsSink* sink_;
};

}  // namespace otb::htm
