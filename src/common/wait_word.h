// A 32-bit word threads can block on, woken only when one is parked.
//
// libstdc++'s std::atomic::wait/notify keeps its waiter counts per bucket
// of a 16-way address hash and counts a waiter's spin-and-yield phase as
// waiting, so a notify calls FUTEX_WAKE whenever any thread is inside any
// wait() on any address of the same bucket.  A WaitWord counts only the
// threads about to sleep in FUTEX_WAIT on itself: a writer that finds none
// pays one load instead of a syscall.
//
// Protocol (Dekker): a waiter registers (seq_cst RMW on `sleepers_`) and
// then re-reads the value; a writer changes the value (seq_cst) and then
// reads `sleepers_`.  One of the two sees the other, so a waiter that read
// the old value is always woken.  FUTEX_WAIT re-checks the value in the
// kernel, so a wake that lands before the waiter sleeps is not lost.
#pragma once

#include <atomic>
#include <climits>
#include <cstdint>
#include <thread>

#include "common/platform.h"

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace otb {

class WaitWord {
 public:
  explicit WaitWord(std::uint32_t v = 0) : value_(v) {}

  std::uint32_t load() const { return value_.load(std::memory_order_acquire); }
  void store(std::uint32_t v) { value_.store(v, std::memory_order_seq_cst); }
  std::uint32_t fetch_add(std::uint32_t d) {
    return value_.fetch_add(d, std::memory_order_seq_cst);
  }

  /// Block while the value equals `old`; returns the value that ended the
  /// wait.  Spins and yields as libstdc++ 12 does (12 PAUSEs, 4 yields)
  /// before it parks.
  std::uint32_t wait(std::uint32_t old) {
    for (int i = 0; i < 16; ++i) {
      const std::uint32_t v = load();
      if (v != old) return v;
      if (i < 12) {
        cpu_relax();
      } else {
        std::this_thread::yield();
      }
    }
#if defined(__linux__)
    for (;;) {
      sleepers_.fetch_add(1, std::memory_order_seq_cst);
      if (value_.load(std::memory_order_seq_cst) == old) {
        ::syscall(SYS_futex, word(), FUTEX_WAIT_PRIVATE, old, nullptr,
                  nullptr, 0);
      }
      sleepers_.fetch_sub(1, std::memory_order_relaxed);
      const std::uint32_t v = load();
      if (v != old) return v;
    }
#else
    value_.wait(old, std::memory_order_acquire);
    return load();
#endif
  }

  /// Wake every thread parked on the word; no syscall when none is.  Call
  /// after the store or RMW that changed the value.
  void wake() {
#if defined(__linux__)
    if (sleepers_.load(std::memory_order_seq_cst) != 0) {
      ::syscall(SYS_futex, word(), FUTEX_WAKE_PRIVATE, INT_MAX, nullptr,
                nullptr, 0);
    }
#else
    value_.notify_all();
#endif
  }

 private:
  static_assert(sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t) &&
                std::atomic<std::uint32_t>::is_always_lock_free);
  std::uint32_t* word() { return reinterpret_cast<std::uint32_t*>(&value_); }

  std::atomic<std::uint32_t> value_;
  std::atomic<std::uint32_t> sleepers_{0};
};

}  // namespace otb
