// The one attempt loop every transactional runtime runs (DESIGN.md "One
// attempt loop"), the analogue of the DEUCE agent driving pluggable STM
// contexts (Fig 4.1).  A runtime hands it a transaction context, the sink it
// reports through, its timing flag and an attempt budget; the loop owns the
// rest: retry on TxAbort with backoff, rollback of every failed attempt, the
// attempt and commit phase timers, the per-attempt flush, and the end of the
// transaction on every exit.
//
// The context contract (stm::Tx, tx::Transaction,
// HtmCommitRuntime::Transaction, boosted::BoostedTx):
//   begin()          start an attempt
//   commit()         commit it, or throw TxAbort
//   rollback()       undo the attempt and release what it holds
//   end()            the transaction is over, committed or not
//   tally()          the metrics::TxTally the context counts into; the loop
//                    adds each attempt's phase times and outcome to it
//   attempt_tally()  what the attempt that just ended counted (called once
//                    per attempt, for the flush)
//
// Phase timers, read only when `timed`: the attempt timer starts when
// begin() returns and stops when the attempt's work ends (commit() returned
// or something threw), before any rollback; the commit timer covers all of
// commit(), including a commit that throws.
#pragma once

#include <cstdint>

#include "common/platform.h"
#include "common/spinlock.h"
#include "common/tx_abort.h"
#include "metrics/sink.h"

namespace otb {

namespace detail {
/// Stop an attempt's timers, roll it back unless it committed, count its
/// outcome and flush it into `sink`.
template <typename Ctx>
void close_attempt(Ctx& ctx, metrics::MetricsSink& sink, bool timed,
                   std::uint64_t t0, std::uint64_t commit_t0, bool committed,
                   metrics::AbortReason reason) {
  metrics::TxTally& tally = ctx.tally();
  if (timed) {
    const std::uint64_t now = now_ns();
    tally.ns_total += now - t0;
    if (commit_t0 != 0) tally.ns_commit += now - commit_t0;
  }
  if (!committed) ctx.rollback();
  tally.count_attempt(committed, reason);
  sink.record_attempt(ctx.attempt_tally(), committed, reason);
}
}  // namespace detail

/// Run `fn(ctx)` atomically on `ctx`, retrying on TxAbort with capped,
/// jittered exponential backoff.  At most `max_attempts` attempts run (0 =
/// unbounded); a report with no commit means the budget was spent.  Any
/// other exception rolls the attempt back, is counted as an explicit abort,
/// and leaves the loop.  Every exit ends the transaction.
template <typename Ctx, typename Fn>
metrics::AttemptReport run_attempts(Ctx& ctx, metrics::MetricsSink& sink,
                                    bool timed, unsigned max_attempts,
                                    Fn&& fn) {
  Backoff backoff;
  metrics::AttemptReport report;
  for (unsigned n = 0; max_attempts == 0 || n < max_attempts; ++n) {
    ctx.begin();
    const std::uint64_t t0 = timed ? now_ns() : 0;
    std::uint64_t commit_t0 = 0;
    bool committed = false;
    metrics::AbortReason reason = metrics::AbortReason::kNone;
    try {
      fn(ctx);
      if (timed) commit_t0 = now_ns();
      ctx.commit();
      committed = true;
    } catch (const TxAbort& abort) {
      reason = abort.reason;
    } catch (...) {
      detail::close_attempt(ctx, sink, timed, t0, commit_t0, false,
                            metrics::AbortReason::kExplicit);
      ctx.end();
      throw;
    }
    detail::close_attempt(ctx, sink, timed, t0, commit_t0, committed, reason);
    if (committed) {
      report.commits = 1;
      break;
    }
    report.aborts += 1;
    report.last_reason = reason;
    backoff.pause();
  }
  ctx.end();
  return report;
}

}  // namespace otb
