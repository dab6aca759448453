// Epoch-based memory reclamation (EBR) for the lazy data structures.
//
// Readers wrap traversals in an `ebr::Guard`; writers `retire()` unlinked
// nodes instead of deleting them.  A retired node is freed only after every
// thread that might still hold a reference has left its critical region —
// the classic three-epoch scheme (Fraser).  This keeps the lazy list /
// skip-list traversals safe without per-node reference counting.
//
// Slot discipline: each thread claims one of `kMaxSlots` announcement slots
// on first use and releases it (in_use = false) when the thread exits, so
// any number of *sequential* short-lived threads run in the table.  Only
// when more than `kMaxSlots` threads are inside the EBR machinery
// *simultaneously* does slot acquisition fail — with a `SlotsExhausted`
// exception naming the limit, never by silently leaking retirements.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/platform.h"

// Test builds may define this to run code between enter()'s load of the
// global epoch and its announcement (tests/test_ebr.cpp); elsewhere it is
// empty.
#ifndef OTB_EBR_BEFORE_ANNOUNCE
#define OTB_EBR_BEFORE_ANNOUNCE()
#endif

namespace otb::ebr {

/// Maximum number of threads simultaneously registered with the reclamation
/// scheme.  Slots are recycled when threads exit, so total thread churn is
/// unbounded — this caps concurrency, not lifetime thread count.
inline constexpr unsigned kMaxSlots = 128;

/// Thrown when a thread cannot claim an announcement slot because
/// `kMaxSlots` threads are already registered.  The failed thread holds no
/// EBR state, so catching this and retrying after other threads exit is
/// safe.
class SlotsExhausted : public std::runtime_error {
 public:
  SlotsExhausted()
      : std::runtime_error(
            "otb::ebr: all " + std::to_string(kMaxSlots) +
            " reclamation slots are claimed by live threads; reduce thread "
            "concurrency or raise otb::ebr::kMaxSlots") {}
};

namespace detail {

inline constexpr unsigned kMaxThreads = kMaxSlots;
inline constexpr std::uint64_t kIdle = 0;  // local epoch 0 == not in a region
inline constexpr std::size_t kScanThreshold = 256;

struct Retired {
  void* ptr;
  void (*deleter)(void*);
  std::uint64_t epoch;
};

struct alignas(kCacheLine) Slot {
  std::atomic<std::uint64_t> local{kIdle};
  std::atomic<bool> in_use{false};
};

struct Global {
  std::atomic<std::uint64_t> epoch{1};
  Slot slots[kMaxThreads];
  std::mutex orphan_mu;
  std::vector<Retired> orphans;  // limbo of exited threads

  // Static destruction runs after every ThreadState has drained its limbo
  // here (thread_local dtors precede static dtors), so whatever is left is
  // unreachable and safe to free — without this, retirements that never
  // became collectable leak at process exit.
  ~Global() {
    for (const Retired& r : orphans) r.deleter(r.ptr);
  }

  static Global& instance() {
    static Global g;
    return g;
  }
};

/// Smallest epoch any active thread is still inside (or current epoch when
/// every thread is idle).  The loads are seq_cst so that they and
/// `enter()`'s announcement and reload fall into one total order.
inline std::uint64_t min_active_epoch(Global& g) {
  std::uint64_t min = g.epoch.load(std::memory_order_seq_cst);
  for (auto& s : g.slots) {
    const std::uint64_t e = s.local.load(std::memory_order_seq_cst);
    if (e != kIdle && e < min) min = e;
  }
  return min;
}

class ThreadState {
 public:
  ThreadState() {
    Global& g = Global::instance();
    // acq_rel: acquire pairs with the releasing `in_use` store of the
    // exiting thread that freed the slot, so its final kIdle store to
    // `local` is visible before we republish the slot.
    for (unsigned i = 0; i < kMaxThreads; ++i) {
      bool expected = false;
      if (g.slots[i].in_use.compare_exchange_strong(
              expected, true, std::memory_order_acq_rel,
              std::memory_order_acquire)) {
        index_ = i;
        return;
      }
    }
    // Over-subscribed.  Failing loudly here is the only safe option: a
    // slotless thread cannot announce an epoch, so any Guard it took would
    // not delay reclamation and any node it retired could never be proven
    // unreachable.  (The throw aborts thread_local construction; the next
    // EBR use on this thread retries the scan, so a thread that merely
    // raced a slot release recovers.)
    throw SlotsExhausted{};
  }

  ~ThreadState() {
    Global& g = Global::instance();
    if (!limbo_.empty()) {
      std::lock_guard<std::mutex> lk(g.orphan_mu);
      g.orphans.insert(g.orphans.end(), limbo_.begin(), limbo_.end());
    }
    g.slots[index_].local.store(kIdle, std::memory_order_release);
    g.slots[index_].in_use.store(false, std::memory_order_release);
  }

  void enter() {
    if (++depth_ > 1) return;
    Global& g = Global::instance();
    // Announce via a seq_cst RMW: the announcement must be ordered before
    // every subsequent shared read (StoreLoad), and an RMW — unlike
    // atomic_thread_fence — is a barrier ThreadSanitizer models.  A
    // collect() between the load and the announcement may advance the
    // epoch while this slot still reads idle and free what was retired two
    // epochs below the new value; so re-announce until the epoch reloaded
    // after the announcement is the one announced.  Then the announced
    // epoch equals the global epoch at an instant after the announcement
    // became visible, which the hint cache's age gate relies on (DESIGN.md
    // "Traversal hints and opacity").
    std::uint64_t e = g.epoch.load(std::memory_order_seq_cst);
    for (;;) {
      OTB_EBR_BEFORE_ANNOUNCE();
      g.slots[index_].local.exchange(e, std::memory_order_seq_cst);
      const std::uint64_t now = g.epoch.load(std::memory_order_seq_cst);
      if (now == e) break;
      e = now;
    }
    announced_ = e;
  }

  void exit() {
    if (--depth_ > 0) return;
    Global& g = Global::instance();
    g.slots[index_].local.store(kIdle, std::memory_order_release);
    announced_ = kIdle;
  }

  void retire(void* p, void (*deleter)(void*)) {
    Global& g = Global::instance();
    limbo_.push_back({p, deleter, g.epoch.load(std::memory_order_acquire)});
    if (limbo_.size() >= kScanThreshold) collect();
  }

  /// Advance the global epoch if possible and free every retired node whose
  /// epoch is at least two behind the minimum active epoch.
  void collect() {
    Global& g = Global::instance();
    g.epoch.fetch_add(1, std::memory_order_seq_cst);
    const std::uint64_t safe = min_active_epoch(g);
    free_older_than(limbo_, safe);
    if (g.orphan_mu.try_lock()) {
      free_older_than(g.orphans, safe);
      g.orphan_mu.unlock();
    }
  }

  /// Epoch this thread announced for its current (outermost) guard; kIdle
  /// when the thread is not inside a critical region.
  std::uint64_t announced() const { return announced_; }

 private:
  static void free_older_than(std::vector<Retired>& v, std::uint64_t safe) {
    std::size_t keep = 0;
    for (std::size_t i = 0; i < v.size(); ++i) {
      // Nodes retired in epoch e are unreachable once every thread has
      // observed an epoch > e, i.e. when min-active >= e + 2.
      if (v[i].epoch + 2 <= safe) {
        v[i].deleter(v[i].ptr);
      } else {
        v[keep++] = v[i];
      }
    }
    v.resize(keep);
  }

  unsigned index_ = 0;
  unsigned depth_ = 0;
  std::uint64_t announced_ = kIdle;
  std::vector<Retired> limbo_;
};

inline ThreadState& thread_state() {
  thread_local ThreadState state;
  return state;
}

}  // namespace detail

/// RAII critical-region guard.  Re-entrant.  Throws `SlotsExhausted` if
/// this thread cannot claim an announcement slot.
class Guard {
 public:
  Guard() { detail::thread_state().enter(); }
  ~Guard() { detail::thread_state().exit(); }
  Guard(const Guard&) = delete;
  Guard& operator=(const Guard&) = delete;
};

/// Defer deletion of `p` until no thread can still reach it.
template <typename T>
void retire(T* p) {
  detail::thread_state().retire(
      p, +[](void* q) { delete static_cast<T*>(q); });
}

/// Force a collection attempt (used by tests and shutdown paths).
inline void collect() { detail::thread_state().collect(); }

/// Epoch announced by the calling thread's active guard, or 0 (idle) when
/// the thread is outside every critical region.  The traversal-hint cache
/// uses this to age-gate cached node pointers (see DESIGN.md, "Traversal
/// hints and opacity"): a pointer validated unreachable-from-free under
/// announce epoch E stays dereferenceable for any guard announced at
/// most E + 1.
inline std::uint64_t announced_epoch() {
  return detail::thread_state().announced();
}

}  // namespace otb::ebr
