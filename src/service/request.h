// Typed request/response vocabulary of the transactional service plane.
//
// A client submits a `Request` — an atomic *script* of one or more typed
// `Step`s over the service's registered OTB structures — and receives a
// `ResponseFuture`.  Every step names its target by `StructureId` (the
// slot the structure was registered under, see `service::Targets`) plus a
// `Verb`; the whole script executes inside ONE boosted transaction, so a
// pop from a priority queue and a put into a map either both happen or
// neither does.  Single-step requests are the inline fast path: the step
// list lives in the request itself (SmallVec inline storage), so the PR 5
// one-op submit path allocates and copies exactly what it used to.
//
// Script features (specified in docs/SERVICE.md):
//   * result binding — a step may take its key or value from the result of
//     an earlier step (`key_from`/`value_from`), e.g. "pop the most urgent
//     job, then lease THAT job";
//   * guards — a `required` step whose outcome is false aborts the script:
//     the transaction's effects are rolled back and the request completes
//     with per-step results describing where it stopped (atomically
//     nothing happened);
//   * expectations — `expect` turns a step into a compare: the step's
//     result value must match or the script aborts (CAS-style conditional
//     scripts, e.g. "pop the ask I matched against, not whatever became
//     the minimum since").
//
// The service completes the underlying `Pending` cell exactly once with a
// terminal `SvcStatus`; the future is the client's read-only view and can
// be waited on (a `WaitWord`: the client spins briefly, then parks on a
// futex, and the completing thread makes a wake syscall only when it has).
//
// Ownership: a Pending cell is shared by exactly two parties — the future
// held by the client and the service's queue slot — via an intrusive
// refcount, so fire-and-forget clients may drop their future immediately
// and loaded-service shutdown can still complete every cell ("no lost
// completions").  Cells come from `Pending::make()` and are recycled with
// their buffers: the last `release()` resets the cell to a fresh one's
// state and parks it on the releasing thread's pool, where the next
// `make()` on that thread finds it with the step, result and range
// capacity it already reached.
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <utility>
#include <vector>

#include "common/platform.h"
#include "common/small_vec.h"
#include "common/wait_word.h"

namespace otb::service {

/// What kind of structure a `Targets` slot holds — determines which verbs
/// a step against that slot may use.
enum class StructureKind : std::uint8_t {
  kMap = 0,   // OtbListMap: get/put/erase/contains/range
  kSet,       // OtbListSet: add/remove/contains
  kHeapPq,    // OtbHeapPQ: push (duplicates ok, never fails) / pop_min / min
  kSlPq,      // OtbSkipListPQ: push (unique keys) / pop_min / min
};

inline constexpr std::size_t kStructureKindCount = 4;

constexpr const char* to_string(StructureKind k) {
  // Exhaustive by construction: no default case, so -Werror=switch
  // (OTB_WERROR) breaks the build when an enumerator is added without a
  // string; the post-switch "?" is reachable only for out-of-range values
  // decoded off the wire.  test_service.cpp walks [0, kStructureKindCount)
  // and asserts every name is distinct and never "?".
  switch (k) {
    case StructureKind::kMap: return "map";
    case StructureKind::kSet: return "set";
    case StructureKind::kHeapPq: return "heap_pq";
    case StructureKind::kSlPq: return "sl_pq";
  }
  return "?";
}

/// One operation verb.  Which verbs are legal depends on the target slot's
/// StructureKind (see `Targets::fits`); an incompatible pair fails
/// the whole request at admission (kFailed), it never reaches a worker.
enum class Verb : std::uint8_t {
  kGet = 0,   // map: ok = present, result value = mapped value
  kPut,       // map: ok = key was absent (insert-or-assign), result = value
  kErase,     // map: ok = key was present
  kContains,  // map/set: ok = present
  kRange,     // map: key = lo, value = hi (inclusive); pairs append to
              // Pending::range_out, result value = pair count of THIS step
  kAdd,       // set: ok = key was absent
  kRemove,    // set: ok = key was present
  kPush,      // pq: insert key; heap PQ always succeeds, skip-list PQ is
              // unique-keys (ok = was absent); result value = key
  kPopMin,    // pq: ok = non-empty, result value = removed minimum
  kMin,       // pq: ok = non-empty, result value = current minimum
};

inline constexpr std::size_t kVerbCount = 10;

/// Read verbs change nothing: they are never logged, and only they may take
/// the snapshot route.
constexpr bool is_read(Verb v) {
  return v == Verb::kGet || v == Verb::kContains || v == Verb::kRange ||
         v == Verb::kMin;
}

constexpr const char* to_string(Verb v) {
  switch (v) {
    case Verb::kGet: return "get";
    case Verb::kPut: return "put";
    case Verb::kErase: return "erase";
    case Verb::kContains: return "contains";
    case Verb::kRange: return "range";
    case Verb::kAdd: return "add";
    case Verb::kRemove: return "remove";
    case Verb::kPush: return "push";
    case Verb::kPopMin: return "pop_min";
    case Verb::kMin: return "min";
  }
  return "?";
}

/// Slot index into the service's structure table (`Targets`).  Plain
/// integer rather than an enum: services register their own structures at
/// runtime, the vocabulary cannot know their names.
using StructureId = std::uint8_t;

/// Terminal request states (kPending is the only non-terminal one).
enum class SvcStatus : std::uint8_t {
  kPending = 0,
  kOk,          // script executed atomically; semantic outcome in ok/steps
  kOverloaded,  // rejected at admission (queue above high-water, or stopped)
  kExpired,     // deadline passed before a transaction slot ran it
  kFailed,      // malformed script: unregistered slot, incompatible verb,
                // bad binding index, or too many steps (rejected at submit)
};

inline constexpr std::size_t kSvcStatusCount = 5;

constexpr const char* to_string(SvcStatus s) {
  switch (s) {
    case SvcStatus::kPending: return "pending";
    case SvcStatus::kOk: return "ok";
    case SvcStatus::kOverloaded: return "overloaded";
    case SvcStatus::kExpired: return "expired";
    case SvcStatus::kFailed: return "failed";
  }
  return "?";
}

/// One typed operation inside a script.  Trivially copyable by design —
/// the step list is a SmallVec and the wire codec memcpys fields.
struct Step {
  StructureId structure = 0;
  Verb verb = Verb::kGet;
  // Result bindings: take key/value from the result value of an EARLIER
  // step (index < this step's position) instead of the literal fields.
  // -1 = use the literal.
  std::int8_t key_from = -1;
  std::int8_t value_from = -1;
  bool required = false;    // guard: script aborts if this step's ok is false
  bool has_expect = false;  // guard: script aborts unless result == expect
  std::int64_t key = 0;
  std::int64_t value = 0;   // put value / range hi bound
  std::int64_t expect = 0;

  // Fluent modifiers so factory-built steps read as a sentence:
  //   sl_pop_min(free).require(), map_put(0, worker, leases).key_from_step(0)
  Step& require() {
    required = true;
    return *this;
  }
  Step& expecting(std::int64_t v) {
    has_expect = true;
    expect = v;
    return *this;
  }
  Step& key_from_step(std::int8_t i) {
    key_from = i;
    return *this;
  }
  Step& value_from_step(std::int8_t i) {
    value_from = i;
    return *this;
  }
};

// Step factories.  The default slot arguments match `Targets::standard`'s
// canonical layout (map=0, set=1, heap=2, skip-list PQ=3); services with
// bespoke registrations pass their own slot ids.
inline Step map_get(std::int64_t key, StructureId sid = 0) {
  return Step{sid, Verb::kGet, -1, -1, false, false, key, 0, 0};
}
inline Step map_put(std::int64_t key, std::int64_t value, StructureId sid = 0) {
  return Step{sid, Verb::kPut, -1, -1, false, false, key, value, 0};
}
inline Step map_erase(std::int64_t key, StructureId sid = 0) {
  return Step{sid, Verb::kErase, -1, -1, false, false, key, 0, 0};
}
inline Step map_contains(std::int64_t key, StructureId sid = 0) {
  return Step{sid, Verb::kContains, -1, -1, false, false, key, 0, 0};
}
inline Step map_range(std::int64_t lo, std::int64_t hi, StructureId sid = 0) {
  return Step{sid, Verb::kRange, -1, -1, false, false, lo, hi, 0};
}
inline Step set_add(std::int64_t key, StructureId sid = 1) {
  return Step{sid, Verb::kAdd, -1, -1, false, false, key, 0, 0};
}
inline Step set_remove(std::int64_t key, StructureId sid = 1) {
  return Step{sid, Verb::kRemove, -1, -1, false, false, key, 0, 0};
}
inline Step set_contains(std::int64_t key, StructureId sid = 1) {
  return Step{sid, Verb::kContains, -1, -1, false, false, key, 0, 0};
}
inline Step pq_push(std::int64_t key, StructureId sid) {
  return Step{sid, Verb::kPush, -1, -1, false, false, key, 0, 0};
}
inline Step pq_pop_min(StructureId sid) {
  return Step{sid, Verb::kPopMin, -1, -1, false, false, 0, 0, 0};
}
inline Step pq_min(StructureId sid) {
  return Step{sid, Verb::kMin, -1, -1, false, false, 0, 0, 0};
}
inline Step heap_push(std::int64_t key) { return pq_push(key, 2); }
inline Step heap_pop_min() { return pq_pop_min(2); }
inline Step sl_push(std::int64_t key) { return pq_push(key, 3); }
inline Step sl_pop_min() { return pq_pop_min(3); }

/// Inline step capacity: scripts up to this length never heap-allocate
/// their steps or results.  Sized for the 8-step hot-key write scripts
/// (`load_service --script-len=8`, perfbench's hotkey_wal); the scenario
/// suite's scripts (4 steps or fewer) and single-op requests fit too.
inline constexpr std::size_t kInlineSteps = 8;

/// Hard upper bound on script length, compile-time.  The runtime limit is
/// `ServiceConfig::max_steps` (default 16) and may
/// be set anywhere in [1, kMaxStepsLimit].
inline constexpr std::size_t kMaxStepsLimit = 64;

/// An atomic script of typed steps plus the request deadline.
struct Request {
  SmallVec<Step, kInlineSteps> steps;
  std::uint64_t deadline_ns = 0;  // absolute (now_ns clock); 0 = no deadline
  // Completion notification: invoked from whichever thread completes the
  // request, after the terminal status is published and before waiters are
  // woken.  Inside a `CompletionBatch` it runs only once every status of
  // the batch is published.  The hook must not block or throw, and must
  // not wake a thread itself: a wake goes through `defer_wake`, which runs
  // it once per batch — the net adapter's eventfd write is one syscall per
  // batch, not per completion.  Null for ordinary futures-only clients.
  void (*on_complete)(void*) = nullptr;
  void* on_complete_arg = nullptr;

  Request() = default;
  /// Single-op convenience: `svc.submit(map_get(7))`.
  Request(Step s) { steps.push_back(s); }  // NOLINT(google-explicit-constructor)
  Request(std::initializer_list<Step> script) {
    for (const Step& s : script) steps.push_back(s);
  }

  /// Fluent script building: `Request(pop).then(put)`.
  Request& then(Step s) {
    steps.push_back(s);
    return *this;
  }
  Request& with_deadline(std::uint64_t ns) {
    deadline_ns = ns;
    return *this;
  }
};

/// Per-step outcome.  `ran` distinguishes "executed and reported false"
/// from "never reached because an earlier guard aborted the script".
struct StepResult {
  bool ran = false;
  bool ok = false;
  std::int64_t value = 0;
};

/// One in-flight request: the script itself plus the completion cell the
/// worker fills.  Completed exactly once; `status` (a `SvcStatus` held in a
/// `WaitWord`) is the publication flag (seq_cst store, then a wake), so
/// readers that observed a terminal status may read every other field
/// without further synchronisation.
struct Pending {
  Request req;
  std::uint64_t enqueue_ns = 0;
  std::uint64_t complete_ns = 0;

  // Results (valid once status is terminal).  `ok` aggregates the script:
  // true iff every step ran and reported true.  `value` is the result
  // value of the last step that ran (for single-op requests: the op's
  // result, exactly as before).  `results` has one entry per step.
  bool ok = false;
  std::int64_t value = 0;
  SmallVec<StepResult, kInlineSteps> results;
  // Range output, shared by every kRange step of the script in step order;
  // each range step's result value is its own pair count, so a client can
  // segment the vector (docs/SERVICE.md "Range results").
  std::vector<std::pair<std::int64_t, std::int64_t>> range_out;

  WaitWord status{static_cast<std::uint32_t>(SvcStatus::kPending)};
  std::atomic<int> refs{2};  // client future + service queue slot

  /// A fresh cell: the calling thread's most recently pooled one, else a
  /// new allocation.
  static Pending* make() {
    Pool& pool = Pool::mine();
    Pending* p = pool.head;
    if (p == nullptr) return new Pending;
    pool.head = p->next_free_;
    pool.size -= 1;
    return p;
  }

  /// Drop one reference; the last one recycles the cell.
  void release() {
    if (refs.fetch_sub(1, std::memory_order_acq_rel) == 1) recycle();
  }

 private:
  // The last reference is typically dropped by the client thread that made
  // the cell (the service completes first, the client's future destructor
  // releases), so a plain thread-local stack recycles cells without
  // synchronisation.  A cell whose last reference drops on a worker seeds
  // that worker's pool.  The cap bounds memory when make and release
  // threads are persistently imbalanced; a cell whose range buffer grew
  // past kPooledRangeCap is freed, so one huge scan cannot pin memory.
  static constexpr std::size_t kPoolCap = 4096;
  static constexpr std::size_t kPooledRangeCap = 256;

  struct Pool {
    Pending* head = nullptr;
    std::size_t size = 0;
    ~Pool() {
      while (head != nullptr) delete std::exchange(head, head->next_free_);
    }
    static Pool& mine() {
      static thread_local Pool pool;
      return pool;
    }
  };

  /// Reset to exactly a fresh cell's state, keeping every buffer's
  /// capacity, and park on this thread's pool.  No other thread holds a
  /// reference any more.
  void recycle() {
    Pool& pool = Pool::mine();
    if (pool.size >= kPoolCap || range_out.capacity() > kPooledRangeCap) {
      delete this;
      return;
    }
    req.steps.clear();
    req.deadline_ns = 0;
    req.on_complete = nullptr;
    req.on_complete_arg = nullptr;
    enqueue_ns = 0;
    complete_ns = 0;
    ok = false;
    value = 0;
    results.clear();
    range_out.clear();
    status.store(static_cast<std::uint32_t>(SvcStatus::kPending));
    refs.store(2, std::memory_order_relaxed);
    next_free_ = pool.head;
    pool.head = this;
    pool.size += 1;
  }

  Pending* next_free_ = nullptr;  // pool link while parked
};

/// Client-side handle.  Movable, not copyable; blocks on wait().
class ResponseFuture {
 public:
  ResponseFuture() = default;
  explicit ResponseFuture(Pending* p) : p_(p) {}
  ResponseFuture(ResponseFuture&& o) noexcept : p_(std::exchange(o.p_, nullptr)) {}
  ResponseFuture& operator=(ResponseFuture&& o) noexcept {
    if (this != &o) {
      if (p_ != nullptr) p_->release();
      p_ = std::exchange(o.p_, nullptr);
    }
    return *this;
  }
  ResponseFuture(const ResponseFuture&) = delete;
  ResponseFuture& operator=(const ResponseFuture&) = delete;
  ~ResponseFuture() {
    if (p_ != nullptr) p_->release();
  }

  bool valid() const { return p_ != nullptr; }

  /// Current status (terminal statuses are stable).
  SvcStatus status() const { return static_cast<SvcStatus>(p_->status.load()); }
  bool done() const { return status() != SvcStatus::kPending; }

  /// Block until completed (`WaitWord::wait`: a short spin, then a futex
  /// wait; no busy spin).
  SvcStatus wait() const {
    return static_cast<SvcStatus>(
        p_->status.wait(static_cast<std::uint32_t>(SvcStatus::kPending)));
  }

  // Results — call only after wait()/done() reported a terminal status.
  bool ok() const { return p_->ok; }
  std::int64_t value() const { return p_->value; }
  /// Per-step outcomes (size == the script's step count once kOk/kFailed).
  std::size_t step_count() const { return p_->results.size(); }
  const StepResult& step(std::size_t i) const { return p_->results[i]; }
  const std::vector<std::pair<std::int64_t, std::int64_t>>& range() const {
    return p_->range_out;
  }
  /// Enqueue-to-completion latency of this request.
  std::uint64_t latency_ns() const { return p_->complete_ns - p_->enqueue_ns; }

 private:
  Pending* p_ = nullptr;
};

namespace detail {
/// A wake deferred to the end of a completion batch: `fn(arg, n)` runs once
/// for the `n` completions whose hooks asked for it.
struct DeferredWake {
  void (*fn)(void*, std::uint32_t);
  void* arg;
  std::uint32_t n;
};

/// The completing thread's open batch (`CompletionBatch`).
struct OpenBatch {
  bool open = false;
  std::vector<Pending*> published;  // status stored, nothing woken yet
  std::vector<DeferredWake> wakes;
};

inline OpenBatch& open_batch() {
  static thread_local OpenBatch b;
  return b;
}

inline void run_hook(const Pending* p) {
  if (p->req.on_complete != nullptr) p->req.on_complete(p->req.on_complete_arg);
}

/// Wake a parked waiter, then drop the completing side's reference (the
/// only thing keeping `p` alive if the client already dropped its future).
inline void wake_and_release(Pending* p) {
  p->status.wake();
  p->release();
}
}  // namespace detail

/// Wake from a completion hook: runs `fn(arg, 1)` now, or — inside a
/// `CompletionBatch` — once at the batch's end with `n` counting the hooks
/// that asked for the same (fn, arg).
inline void defer_wake(void (*fn)(void*, std::uint32_t), void* arg) {
  detail::OpenBatch& b = detail::open_batch();
  if (!b.open) {
    fn(arg, 1);
    return;
  }
  for (detail::DeferredWake& w : b.wakes) {
    if (w.fn == fn && w.arg == arg) {
      ++w.n;
      return;
    }
  }
  b.wakes.push_back(detail::DeferredWake{fn, arg, 1});
}

/// Complete `p` exactly once: fill results before the releasing status
/// store.  `now` is the caller's clock reading (now_ns), stamped as the
/// completion time: every caller has just read the clock for a deadline
/// check, a latency sample or the enqueue stamp.  Outside a
/// `CompletionBatch` the hook, waiters and release follow at once; inside
/// one they wait for the batch's end.
inline void complete(Pending* p, SvcStatus s, std::uint64_t now) {
  p->complete_ns = now;
  p->status.store(static_cast<std::uint32_t>(s));
  detail::OpenBatch& b = detail::open_batch();
  if (b.open) {
    b.published.push_back(p);
    return;
  }
  detail::run_hook(p);
  detail::wake_and_release(p);
}

/// Scope in which a worker completes a batch: every `complete()` on this
/// thread publishes its status at once, but no thread is woken — no futex,
/// no hook wake — until the scope ends.  Then every hook runs (seeing every
/// status of the batch), waiters wake, references drop, and each deferred
/// wake runs once.  One scope per thread at a time.
class CompletionBatch {
 public:
  CompletionBatch() { detail::open_batch().open = true; }
  ~CompletionBatch() {
    detail::OpenBatch& b = detail::open_batch();
    // All hooks before any waiter wakes, so a woken client finds every
    // hook of the batch run.  Hooks may defer wakes, so the batch stays
    // open through this loop.
    for (const Pending* p : b.published) detail::run_hook(p);
    for (Pending* p : b.published) detail::wake_and_release(p);
    b.published.clear();
    b.open = false;
    // References are dropped before any wake, so a woken net thread usually
    // drops a cell's last reference and recycles it on its own pool.
    for (const detail::DeferredWake& w : b.wakes) w.fn(w.arg, w.n);
    b.wakes.clear();
  }
  CompletionBatch(const CompletionBatch&) = delete;
  CompletionBatch& operator=(const CompletionBatch&) = delete;
};

}  // namespace otb::service
