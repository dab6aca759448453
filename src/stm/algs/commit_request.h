// The request slot through which a client hands its commit to a remote
// commit server: RTC (Chapter 5) and RInval (Chapter 6) keep one
// cache-aligned slot per client thread in their request arrays.
#pragma once

#include <atomic>
#include <condition_variable>
#include <mutex>

#include "common/platform.h"

namespace otb::stm {

/// One client's commit request.  The client posts it (kPending) and waits;
/// a server completes it kReady (committed) or kAborted.  Spin-then-block:
/// after kClientSpins polls the client sleeps on the slot's condition
/// variable, so the servers get the CPU on oversubscribed hosts (DESIGN.md).
/// Every completion, the shutdown drain's included, stores the final state
/// under the slot's mutex, so a client between its last check and its sleep
/// cannot miss the wake.
template <typename ClientTx>
struct alignas(kCacheLine) CommitRequest {
  enum State : int { kReady = 0, kPending = 1, kAborted = 2 };
  static constexpr int kClientSpins = 512;

  std::atomic<int> state{kReady};
  ClientTx* tx = nullptr;
  std::mutex mu;
  std::condition_variable cv;

  bool pending() const {
    return state.load(std::memory_order_acquire) == kPending;
  }

  /// Client side: post the request, wait for a server's verdict, free the
  /// slot.  Returns kReady or kAborted.
  int post_and_wait() {
    state.store(kPending, std::memory_order_release);
    int s;
    for (int spin = 0; spin < kClientSpins; ++spin) {
      s = state.load(std::memory_order_acquire);
      if (s != kPending) break;
      cpu_relax();
    }
    if (s == kPending) {
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [&] {
        return (s = state.load(std::memory_order_acquire)) != kPending;
      });
    }
    state.store(kReady, std::memory_order_release);
    return s;
  }

  /// Server side: complete a posted request.
  void complete(int final_state) {
    {
      std::lock_guard<std::mutex> lk(mu);
      state.store(final_state, std::memory_order_release);
    }
    cv.notify_one();
  }

  /// Shutdown drain: abort the request if it is still posted, so no client
  /// is stranded once the servers are gone.
  void abort_if_pending() {
    {
      std::lock_guard<std::mutex> lk(mu);
      if (state.load(std::memory_order_acquire) != kPending) return;
      state.store(kAborted, std::memory_order_release);
    }
    cv.notify_one();
  }
};

}  // namespace otb::stm
