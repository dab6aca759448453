// Transaction fusion: the service plane's contention manager (DESIGN.md
// "Transaction fusion").
//
// The paper's optimistic boosting concedes the extreme-contention regime to
// pessimistic boosting: when semantic validation keeps failing, a batch
// burns its attempt budget.  A spent budget gets one answer (service.h
// `run_batch`): a peer takes the batch, or it commits alone under the
// plane's exclusive commit gate.
//
//   * DONATE: a worker whose batch ran out of attempts offers it in its
//     per-worker slot and spins briefly.
//   * ADOPT: a peer takes the offer at its next batch pop, or at its own
//     exhaustion before it donates, appending the donor's requests to its
//     own batch.  The merged batch is one commit unit that validates and
//     commits under the single global (structure id, key) lock order; each
//     constituent script still runs its own guard checks inside it
//     (service.h `apply`), so every request keeps its own sound verdict.
//     An adoption that would grow the batch past `kMaxSet` requests is
//     refused and the offer stays up.
//   * ESCALATE: if nobody takes the offer within the spin budget, the
//     donor withdraws it and runs it holding the service's commit gate
//     exclusive, with no attempt budget.  Ordinary batch attempts hold the
//     gate shared, so the exclusive holder runs with no concurrent
//     service-plane transaction in flight and its semantic validation
//     cannot fail.  A one-worker plane has no peer and escalates at once.
//
// Two donors that offer at the same moment do not arbitrate: neither
// adopts while it waits, so both withdraw and the gate serializes them.
//
// Memory-safety protocol (the part TSan is pointed at):
//   The DonatedBatch lives on the DONOR'S STACK.  Nobody may dereference a
//   slot pointer without first claiming it: adopters CAS the slot
//   (batch -> nullptr) and only then inspect the batch — on cap overflow
//   they store the pointer straight back.  The donor leaves offer_and_wait
//   only through one of two gates: (a) it wins the same slot CAS itself
//   (withdrawal — nobody can hold the pointer), or (b) it observes
//   `taken` (the adopter has finished every access).  A claim-for-
//   inspection therefore pins the donor in place, and the pointer can
//   never outlive its frame.  Slot publishes are release stores; claims
//   are acquire CASes — the batch fields and the request array are
//   published happens-before any adopter read, and the adopter's request
//   copy happens-before the donor's `taken` load.
#pragma once

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include "common/platform.h"
#include "metrics/sink.h"
#include "service/request.h"

namespace otb::service {

/// What a budget-exhausted worker publishes: its live batch (requests that
/// already passed admission and expiry checks).  Stack-resident in
/// offer_and_wait; see the memory-safety protocol above.
struct DonatedBatch {
  Pending* const* reqs = nullptr;
  std::size_t count = 0;
  std::atomic<bool> taken{false};
};

/// Outcome of one donation, from the donor's point of view.
enum class OfferOutcome {
  kAdopted,    // a peer absorbed the batch: the donor owns nothing anymore
  kWithdrawn,  // nobody adopted within the spin budget: escalate
};

/// One per multi-worker Service: one donation slot per worker.
class FusionPlane {
 public:
  /// Largest merged commit unit an adoption may build, in requests.
  static constexpr std::size_t kMaxSet = 64;

  /// Donor spin budget before withdrawing (in cpu_relax iterations).  Short:
  /// a peer mid-batch reaches its next adoption point (batch pop or budget
  /// exhaustion) within a few thousand iterations, and a donor nobody
  /// adopts loses nothing by withdrawing early — withdrawal escalates to
  /// the gated attempt, which resolves the batch outright.  Long
  /// waits only idle the worker.
  static constexpr unsigned kDonorSpinDefault = 1u << 12;

  FusionPlane(unsigned workers, metrics::MetricsSink* sink)
      : sink_(sink), slots_(workers) {}
  FusionPlane(const FusionPlane&) = delete;
  FusionPlane& operator=(const FusionPlane&) = delete;

  unsigned workers() const { return static_cast<unsigned>(slots_.size()); }

  /// Adopt every donated batch that fits into `batch`, appending the
  /// donors' requests.  Returns the number of requests adopted (0 if
  /// none).  Donations that would exceed kMaxSet stay offered.
  std::size_t try_adopt(unsigned self, std::vector<Pending*>& batch) {
    std::size_t adopted = 0;
    for (unsigned w = 0; w < workers(); ++w) {
      if (w == self) continue;
      DonatedBatch* b = slots_[w].ptr.load(std::memory_order_acquire);
      if (b == nullptr) continue;
      if (!slots_[w].ptr.compare_exchange_strong(b, nullptr,
                                                 std::memory_order_acq_rel,
                                                 std::memory_order_relaxed))
        continue;
      // Exclusive access to *b from here until taken/republish.
      if (batch.size() + b->count > kMaxSet) {
        slots_[w].ptr.store(b, std::memory_order_release);
        continue;
      }
      batch.insert(batch.end(), b->reqs, b->reqs + b->count);
      adopted += b->count;
      sink_->add(metrics::CounterId::kFusionUnions);
      sink_->add(metrics::CounterId::kSvcFused, b->count);
      sink_->record_fused_set_size(batch.size());
      b->taken.store(true, std::memory_order_release);
    }
    return adopted;
  }

  /// Publish `batch` for adoption and wait (bounded) for a peer to take
  /// it.  On kAdopted `batch` is cleared (the adopter completes the
  /// requests); on kWithdrawn it is intact.  `spin_limit` is injectable so
  /// tests can make withdrawal immediate.
  OfferOutcome offer_and_wait(unsigned self, std::vector<Pending*>& batch,
                              unsigned spin_limit = kDonorSpinDefault) {
    DonatedBatch b;
    b.reqs = batch.data();
    b.count = batch.size();
    slots_[self].ptr.store(&b, std::memory_order_release);
    for (unsigned spin = 0; spin < spin_limit; ++spin) {
      if (b.taken.load(std::memory_order_acquire)) {
        batch.clear();
        return OfferOutcome::kAdopted;
      }
      // Give the would-be adopter a timeslice: on an oversubscribed (or
      // single-CPU) host, pause-spinning burns the exact quantum the peer
      // needs to reach its adoption point.
      if ((spin & 255u) == 255u) std::this_thread::yield();
      cpu_relax();
    }
    // Spin budget lapsed: withdraw.  The CAS can only fail if some peer
    // claimed the offer meanwhile — then it MUST either take it or put it
    // back, so spin on those two gates (bounded by the claimer's own
    // straight-line inspection code).
    for (;;) {
      DonatedBatch* expected = &b;
      if (slots_[self].ptr.compare_exchange_strong(expected, nullptr,
                                                   std::memory_order_acq_rel,
                                                   std::memory_order_relaxed)) {
        sink_->add(metrics::CounterId::kFusionFallbacks);
        return OfferOutcome::kWithdrawn;
      }
      if (b.taken.load(std::memory_order_acquire)) {
        batch.clear();
        return OfferOutcome::kAdopted;
      }
      std::this_thread::yield();  // the claimer needs CPU to finish
    }
  }

 private:
  struct alignas(64) Slot {
    std::atomic<DonatedBatch*> ptr{nullptr};
  };

  metrics::MetricsSink* sink_;
  std::vector<Slot> slots_;
};

}  // namespace otb::service
