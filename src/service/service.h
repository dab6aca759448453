// The in-process transactional service plane (DESIGN.md "Transactional
// service plane", docs/SERVICE.md for the request schema).
//
// Clients submit typed requests (request.h) — each an atomic *script* of
// one or more steps over the service's registered structures; sharded
// bounded MPSC rings (queue.h) buffer them; worker threads drain their own
// shard and coalesce up to `batch_max` requests into ONE boosted
// transaction — many fine-grained client scripts composed into fewer,
// larger atomic steps, which is exactly the regime where the
// commit-sequence fast path and traversal hints pay (per-transaction costs
// amortise over ops/tx).  A script's steps always commit or roll back
// together, across as many heterogeneous structures as they touch: the
// boosted transaction host acquires semantic locks in a deterministic
// global order (structure id, then key — DESIGN.md "Cross-structure lock
// order"), so composition adds no new deadlock risk.
//
// Robustness:
//   * admission control — a submit against a queue at its high-water mark
//     completes immediately as kOverloaded; admitted requests therefore see
//     bounded queueing delay no matter the offered load.  Malformed scripts
//     (unknown slot, incompatible verb, bad binding, too many steps)
//     complete as kFailed at submit and never consume a queue slot;
//   * per-request deadlines — a request whose deadline passed while queued
//     completes as kExpired before it wastes a transaction slot;
//   * one answer to a spent attempt budget (src/service/fusion.h, DESIGN.md
//     "Transaction fusion") — a batch that cannot commit within four
//     attempts (contention, injected aborts) is adopted by a peer or
//     donated to one on a plane with two or more workers; otherwise (a
//     one-worker plane, a solo guard re-run, a donation nobody took) it
//     runs under the plane's exclusive commit gate with an unbounded
//     attempt budget, where no other batch attempt is in flight: persistent
//     conflicts degrade throughput, never results;
//   * guard handling — a script whose `required`/`expect` guard fails
//     aborts its transaction.  Inside a coalesced batch the failure may
//     have been caused by a batchmate's (rolled back) overlay writes, so
//     the victim is deferred and re-run solo for a clean verdict; only a
//     SOLO guard failure completes the request (kOk with per-step results
//     showing where the script stopped — semantically a no-op that
//     linearises at the failed guard's read);
//   * stop()/drain — stop() (and SIGTERM via net.h) closes admission, waits
//     out in-flight submits, then workers drain every queued request to a
//     terminal status before exiting: no lost completions;
//   * durability (opt-in, docs/DURABILITY.md) — with `wal_dir` set, every
//     committed batch appends its semantic write-set to the service's one
//     write-ahead log (wal.h), which stamps it as it appends; under the
//     group fsync policy a batch's requests are acknowledged only after
//     the one fsync covering the whole drained batch, so acknowledged =>
//     durable.  A checkpoint takes the commit gate exclusively, which
//     pauses every worker at an attempt boundary, snapshots every
//     registered structure, rotates the log, and compacts (recovery.h);
//     recover() rebuilds state from the last checkpoint plus the replayed
//     log tail before start().
//
//   * read-only fast path (docs/SERVICE.md "Snapshot reads") — with
//     OTB_MV_VERSIONS > 0, a script made only of read verbs over
//     snapshot-capable structures is executed INLINE at submit as an
//     abort-free multi-version snapshot read (tx::snapshot_read): no queue
//     slot, no batch, no validation, no retry.  A version-chain miss falls
//     back to a validated read-only transaction; either way the request
//     completes kOk from the submitting thread.
//
// Metrics (domain "otb.service", schema otb.metrics/9): svc_* admission /
// completion counters (including svc_scripts / svc_script_steps /
// svc_guard_aborts for the multi-op surface, svc_read_only for the
// snapshot route, and svc_batch_splits / svc_fused / fusion_unions /
// fusion_fallbacks for the contention manager), wal_* durability counters,
// queue-depth + batch-size + mv_chain_len + fused_set_size log2 series,
// and the "service" / "wal_fsync" phase histograms.  The batch
// transactions themselves keep reporting through "otb.tx" as always.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/platform.h"
#include "metrics/registry.h"
#include "metrics/sink.h"
#include "otb/runtime.h"
#include "service/fusion.h"
#include "service/queue.h"
#include "service/recovery.h"
#include "service/request.h"
#include "service/targets.h"
#include "service/wal.h"

namespace otb::service {

// Targets (the slot registry) lives in targets.h so the durability layer
// can address slots without pulling in the whole service plane.

struct ServiceConfig {
  unsigned workers = 2;               // drain threads (= queue shards)
  unsigned batch_max = 16;            // requests coalesced per transaction
  std::size_t queue_capacity = 1024;  // per shard, rounded up to 2^k
  std::size_t high_water = 0;         // per shard; 0 = queue_capacity
  std::size_t max_steps = 16;         // script length admission cap

  /// Durability (docs/DURABILITY.md).  A non-empty wal_dir enables the
  /// write-ahead log: committed batches append commit records there, and
  /// recover() replays them after a crash.  wal_checkpoint_ms > 0 starts
  /// the background checkpoint thread (snapshot + log compaction).
  std::string wal_dir;
  WalFsync wal_fsync = WalFsync::kGroup;
  unsigned wal_checkpoint_ms = 0;  // 0 = no checkpoint thread

  /// Test hook, run INSIDE every batch transaction just before commit.
  /// Throwing TxAbort (the same explicit-abort channel the abort-taxonomy
  /// injection tests use) fails the attempt; four in a row spend the
  /// batch's budget.  A gated attempt retries until the hook lets it
  /// commit, so a hook must abort only a bounded run.  Never set in
  /// production.
  std::function<void(std::size_t batch_size)> batch_fault_hook;

  /// Metrics sink; null = Registry::global().sink("otb.service").
  metrics::MetricsSink* metrics = nullptr;
};

class Service {
 public:
  explicit Service(Targets targets, ServiceConfig cfg = ServiceConfig{})
      : targets_(targets),
        cfg_(sanitise(std::move(cfg))),
        queue_(cfg_.workers, cfg_.queue_capacity, cfg_.high_water),
        sink_(cfg_.metrics != nullptr
                  ? cfg_.metrics
                  : &metrics::Registry::global().sink("otb.service")) {
    if (!cfg_.wal_dir.empty()) {
      wal_ = std::make_unique<Wal>(
          WalOptions{cfg_.wal_dir, cfg_.wal_fsync, sink_});
    }
    // Fusion needs a peer to fuse with; a one-worker plane answers a spent
    // budget with the gated attempt alone.
    if (cfg_.workers > 1) {
      fusion_ = std::make_unique<FusionPlane>(cfg_.workers, sink_);
    }
  }

  ~Service() { stop(); }

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Rebuild state from the WAL directory: the last checkpoint (or, when
  /// none exists, the caller's `seed_baseline` closure — the SAME
  /// deterministic pre-seeding the crashed run performed before start())
  /// plus the replayed log tail.  Must run before start(), on the empty
  /// registered structures.  On success the log's clock resumes from the
  /// last replayed stamp, so the restarted service appends a continuation
  /// of the same totally ordered history.
  RecoveryReport recover(const std::function<void()>& seed_baseline = {}) {
    RecoveryReport r;
    if (wal_ == nullptr) {
      if (seed_baseline) seed_baseline();
      return r;  // kNoState: durability is off
    }
    if (started_.load(std::memory_order_acquire)) {
      r.status = RecoveryStatus::kIoError;
      r.detail = "recover() must run before start()";
      return r;
    }
    r = recover_into(cfg_.wal_dir, targets_, seed_baseline);
    if (r.ok()) {
      wal_->clock().store(r.last_seq, std::memory_order_release);
      recovered_ = true;
    }
    return r;
  }

  /// Launch the worker threads.  Separate from the constructor so tests can
  /// pre-load queues (admission and deadline behaviour without racing a
  /// drain) before any worker runs.
  void start() {
    if (started_.exchange(true)) return;
    if (wal_ != nullptr && !wal_->is_open()) {
      if (!recovered_ && Wal::dir_has_state(cfg_.wal_dir)) {
        // Appending a fresh clock's stamps over an unrecovered log would
        // corrupt it (duplicate stamps); this is a programming error, not
        // a runtime condition, so refuse loudly.
        std::fprintf(stderr,
                     "otb service: WAL dir %s holds state; call recover() "
                     "before start()\n",
                     cfg_.wal_dir.c_str());
        std::abort();
      }
      std::string err;
      if (!wal_->open_for_append(&err)) {
        std::fprintf(stderr, "otb service: cannot open WAL: %s\n",
                     err.c_str());
        std::abort();
      }
    }
    running_.store(true, std::memory_order_release);
    workers_.reserve(cfg_.workers);
    for (unsigned w = 0; w < cfg_.workers; ++w) {
      workers_.emplace_back([this, w] { worker_loop(w); });
    }
    if (wal_ != nullptr && cfg_.wal_checkpoint_ms != 0) {
      ckpt_stop_.store(false, std::memory_order_release);
      ckpt_thread_ = std::thread([this] { checkpoint_loop(); });
    }
  }

  /// Close admission, drain every queued request to a terminal status, and
  /// join the workers.  Idempotent; also invoked by the destructor and the
  /// net adapter's SIGTERM path.
  void stop() {
    accepting_.store(false, std::memory_order_seq_cst);
    // Dekker with submit(): once no submit is mid-push, every future submit
    // observes accepting_ == false and rejects, so the drains below see the
    // final queue contents.
    while (submits_in_flight_.load(std::memory_order_seq_cst) != 0) {
      cpu_relax();
    }
    if (ckpt_thread_.joinable()) {
      ckpt_stop_.store(true, std::memory_order_release);
      ckpt_thread_.join();
    }
    if (started_.load(std::memory_order_acquire)) {
      running_.store(false, std::memory_order_release);
      queue_.wake_all();
      for (auto& t : workers_) {
        if (t.joinable()) t.join();
      }
      workers_.clear();
      started_.store(false, std::memory_order_release);
    } else {
      // stop() before start(): no workers exist, so the stopping thread
      // drains (admitted requests still complete, running on this thread,
      // in a transaction of its own).
      for (unsigned s = 0; s < queue_.shard_count(); ++s) {
        Worker w{s, active_wal(), &targets_};
        drain_shard(w);
      }
    }
    // Flush and close the log, releasing the directory's single-owner
    // lock: a stopped service no longer owns the directory, so recovery
    // (or a successor process) may open it.  start() re-opens and
    // re-acquires.
    if (wal_ != nullptr) wal_->close();
  }

  bool accepting() const {
    return accepting_.load(std::memory_order_acquire);
  }

  /// Submit one request.  Always returns a valid future; admission failures
  /// complete it before returning — kFailed for a malformed script (the
  /// structured replacement for the old silent per-op failure), kOverloaded
  /// for a queue at high water or a stopped service.  Safe from any number
  /// of producer threads.
  ResponseFuture submit(Request req) {
    Pending* p = Pending::make();
    // One clock read serves the enqueue stamp, the lapsed-deadline test
    // and an admission failure's completion stamp.
    const std::uint64_t now = now_ns();
    const std::size_t n_steps = req.steps.size();
    p->req = std::move(req);
    p->enqueue_ns = now;
    ResponseFuture fut(p);
    if (!validate_script(p->req)) {
      sink_->add(metrics::CounterId::kSvcFailed);
      complete(p, SvcStatus::kFailed, now);
      return fut;
    }
    if (tx::mv_versions() != 0 && is_read_only_script(p->req) &&
        (p->req.deadline_ns == 0 || p->req.deadline_ns >= now)) {
      // Abort-free snapshot route: the script runs inline on the submitting
      // thread against a multi-version snapshot, never consuming a queue
      // slot or a batch transaction.  A live deadline cannot lapse here
      // (execution happens before submit() returns); one already lapsed at
      // submit falls through to the queue path below, whose worker expires
      // it under the normal ledger — so svc_expired keeps balancing against
      // svc_enqueued, and this route is accounted purely by
      // svc_read_only == mv_snapshot_reads + mv_version_misses.
      //
      // Same Dekker handshake as the queue path: the in-flight bracket
      // covers the whole inline execution, so stop() cannot close the WAL
      // or tear down members while submit_read_only still runs here.
      submits_in_flight_.fetch_add(1, std::memory_order_seq_cst);
      if (!accepting_.load(std::memory_order_seq_cst)) {
        submits_in_flight_.fetch_sub(1, std::memory_order_seq_cst);
        sink_->add(metrics::CounterId::kSvcRejected);
        complete(p, SvcStatus::kOverloaded, now);
        return fut;
      }
      submit_read_only(p);
      submits_in_flight_.fetch_sub(1, std::memory_order_seq_cst);
      return fut;
    }
    submits_in_flight_.fetch_add(1, std::memory_order_seq_cst);
    const bool admitted =
        accepting_.load(std::memory_order_seq_cst) && queue_.try_push(p);
    submits_in_flight_.fetch_sub(1, std::memory_order_seq_cst);
    if (!admitted) {
      sink_->add(metrics::CounterId::kSvcRejected);
      complete(p, SvcStatus::kOverloaded, now);
      return fut;
    }
    sink_->add(metrics::CounterId::kSvcEnqueued);
    sink_->add(metrics::CounterId::kSvcScriptSteps, n_steps);
    if (n_steps > 1) sink_->add(metrics::CounterId::kSvcScripts);
    return fut;
  }

  /// Take a checkpoint right now (also what the background thread does):
  /// take the commit gate exclusively, which pauses the workers at an
  /// attempt boundary, snapshot every registered structure + rotate the
  /// log, resume, then durably write the snapshot, repoint the manifest,
  /// and prune obsolete segments.  One checkpoint runs at a time; a
  /// concurrent call waits for it.  False when durability is off or an
  /// I/O step failed (the previous checkpoint stays in force either way).
  bool checkpoint_now() {
    Wal* wal = active_wal();
    if (wal == nullptr) return false;
    // Whole checkpoints serialize: two interleaved tails would share the
    // manifest's temp file, and one's prune could delete the snapshot the
    // other's manifest names.
    std::lock_guard<std::mutex> one_at_a_time(checkpoint_mu_);
    std::vector<CheckpointSlot> slots;
    std::uint64_t seq = 0;
    std::uint64_t live = 0;
    {
      std::unique_lock<std::shared_mutex> gate(gate_);
      // Quiescent: no batch attempt is in flight, so every record with
      // stamp <= the clock is appended and its commit applied.
      seq = wal->clock().load(std::memory_order_acquire);
      capture_slots(&slots);
      std::string err;
      if (!wal->rotate(&err)) {
        std::fprintf(stderr, "otb service: checkpoint rotate failed: %s\n",
                     err.c_str());
        return false;
      }
      live = wal->current_segment();
    }
    // Off the critical path: workers are running again.
    std::string err;
    if (!write_checkpoint(cfg_.wal_dir, seq, slots, &err)) {
      std::fprintf(stderr, "otb service: checkpoint write failed: %s\n",
                   err.c_str());
      return false;
    }
    prune_obsolete(cfg_.wal_dir, live, checkpoint_file_name(seq));
    return true;
  }

  const ServiceConfig& config() const { return cfg_; }
  const Targets& targets() const { return targets_; }
  metrics::MetricsSink& metrics_sink() { return *sink_; }
  std::size_t queue_size() const { return queue_.total_size(); }
  /// The write-ahead log (null when durability is off); tests read its
  /// clock and segment position through it.
  Wal* wal() { return wal_.get(); }

 private:
  /// Thrown by apply() when a script's guard fails: the enclosing batch
  /// transaction must roll back (atomically nothing happened).  Not a
  /// TxAbort — guard failure is a semantic outcome, not contention.
  struct ScriptAbort {
    Pending* victim;
  };

  /// What one drain thread reuses from batch to batch: the WAL redo buffer
  /// and one transaction, created by its first batch, whose descriptors
  /// tx::atomically parks with their capacity after every attempt budget.
  /// Not movable once a batch ran: the commit hook points here.
  struct Worker {
    Worker(unsigned s, Wal* log, const Targets* t)
        : shard(s), wal(log), targets(t) {}
    unsigned shard;  // the queue shard it drains
    // Null when the log was not open as the worker began: a stop()-before-
    // start() drain runs undurable (the service never started, so the
    // acknowledged=>durable contract never began).
    Wal* wal;
    const Targets* targets;
    // The attempt's PQ steps (apply), then, in the commit hook, the
    // committed write-sets: the batch's WAL record.
    std::vector<WalOp> redo;
    std::optional<tx::Transaction> txn;
  };

  enum class BatchOutcome : std::uint8_t {
    kCommitted,    // whole batch committed, complete everyone kOk
    kBudgetSpent,  // attempt budget exhausted on aborts — caller escalates
    kGuardAbort,   // one script's guard failed — caller defers the victim
  };

  /// Attempts a batch gets under the shared gate before its budget is
  /// spent.
  static constexpr unsigned kBatchAttempts = 4;

  static ServiceConfig sanitise(ServiceConfig cfg) {
    if (cfg.workers == 0) cfg.workers = 1;
    if (cfg.batch_max == 0) cfg.batch_max = 1;
    if (cfg.queue_capacity < 2) cfg.queue_capacity = 2;
    if (cfg.max_steps == 0) cfg.max_steps = 1;
    if (cfg.max_steps > kMaxStepsLimit) cfg.max_steps = kMaxStepsLimit;
    return cfg;
  }

  /// Admission-time script validation: structural problems complete as
  /// kFailed before the request consumes a queue slot, so the worker path
  /// never sees a malformed step — there is no per-op "failed" state any
  /// more (SvcStatus is the single source of truth).
  bool validate_script(const Request& req) const {
    if (req.steps.empty() || req.steps.size() > cfg_.max_steps) return false;
    for (std::size_t i = 0; i < req.steps.size(); ++i) {
      const Step& s = req.steps[i];
      if (!targets_.fits(s.structure, s.verb)) return false;
      // Bindings may only reference an earlier step of the same script.
      if (s.key_from < -1 ||
          (s.key_from >= 0 &&
           static_cast<std::size_t>(s.key_from) >= i)) {
        return false;
      }
      if (s.value_from < -1 ||
          (s.value_from >= 0 &&
           static_cast<std::size_t>(s.value_from) >= i)) {
        return false;
      }
    }
    return true;
  }

  /// A script the snapshot route may serve: every step is a read over a
  /// snapshot-capable structure (Targets::reads_at).
  bool is_read_only_script(const Request& req) const {
    for (const Step& s : req.steps) {
      if (!targets_.reads_at(s.structure, s.verb)) return false;
    }
    return true;
  }

  /// Inline execution of a read-only script (submit-time, caller thread).
  /// First choice is the abort-free snapshot path: run_script over the
  /// structures' `*_at` reads, re-run from scratch if tx::snapshot_read
  /// redraws its stamp.  A version miss (chain evicted past the stamp, or
  /// the knob raced to 0) falls back to a validated read-only transaction,
  /// which a read-only script cannot fail semantically — only its guards
  /// can trip, and a guard verdict observed solo is definitive (same rule
  /// as the batch path's solo re-run).  Completes the request kOk either
  /// way.
  void submit_read_only(Pending* p) {
    bool guard_failed = false;
    const bool snapped = tx::snapshot_read(*sink_, [&](tx::SnapshotTx& snap) {
      guard_failed = !run_script(p, [&](const Step& s, std::int64_t key,
                                        std::int64_t value) {
        return targets_.read_at(snap, s.structure, s.verb, key, value,
                                &p->range_out);
      });
    });
    if (!snapped) {
      guard_failed = false;
      try {
        tx::atomically([&](tx::Transaction& t) { apply(t, p, nullptr); });
      } catch (const ScriptAbort&) {
        guard_failed = true;  // results already filled by apply()
      }
    }
    if (guard_failed) sink_->add(metrics::CounterId::kSvcGuardAborts);
    sink_->add(metrics::CounterId::kSvcReadOnly);
    // The values read may depend on commit records another worker appended
    // but has not yet synced; acknowledged => durable also covers what
    // acknowledged *reads* observed.
    sync_log();
    const std::uint64_t done = now_ns();
    sink_->record_phase(metrics::Phase::kService, done - p->enqueue_ns);
    complete(p, SvcStatus::kOk, done);
  }

  void worker_loop(unsigned shard) {
    char name[16];
    std::snprintf(name, sizeof(name), "svc/w%u", shard);
    set_this_thread_name(name);
    Worker w{shard, active_wal(), &targets_};
    std::vector<Pending*> batch;
    batch.reserve(cfg_.batch_max);
    for (;;) {
      const std::uint32_t doorbell = queue_.doorbell(shard);
      // Depth sampled BEFORE popping: the backlog a newly arriving request
      // would queue behind.
      const std::size_t depth = queue_.shard_size(shard);
      batch.clear();
      for (unsigned i = 0; i < cfg_.batch_max; ++i) {
        Pending* p = queue_.try_pop(shard);
        if (p == nullptr) break;
        batch.push_back(p);
      }
      if (batch.empty()) {
        if (!running_.load(std::memory_order_acquire)) break;
        queue_.wait(shard, doorbell);
        continue;
      }
      sink_->record_queue_depth(depth);
      execute_batch(w, batch);
    }
    // Drain sweep: stop() guarantees no push starts after running_ clears,
    // but pushes admitted before it may still sit in the ring.
    drain_shard(w);
  }

  void drain_shard(Worker& w) {
    std::vector<Pending*> batch;
    batch.reserve(cfg_.batch_max);
    for (;;) {
      batch.clear();
      for (unsigned i = 0; i < cfg_.batch_max; ++i) {
        Pending* p = queue_.try_pop(w.shard);
        if (p == nullptr) break;
        batch.push_back(p);
      }
      if (batch.empty()) return;
      execute_batch(w, batch);
    }
  }

  /// Execute one batch: expire stale requests, run the rest in a single
  /// boosted transaction, resolve a spent budget (run_batch).  Every kOk is
  /// acknowledged at one point, the end: after the one sync covering
  /// every record the drained batch produced (commits, adoptions, gated
  /// attempts and solo guard-abort re-runs included), so under the group
  /// fsync policy acknowledged => durable.  Nothing is woken until the
  /// batch is done (request.h `CompletionBatch`): one net-thread eventfd
  /// write per batch.
  void execute_batch(Worker& w, std::vector<Pending*>& batch) {
    CompletionBatch completions;
    // Per-thread scratch: one batch is in flight per worker.
    static thread_local std::vector<Pending*> live;
    static thread_local std::vector<Pending*> acks;
    live.clear();
    acks.clear();
    if (fusion_ != nullptr) {
      // Healthy-worker rescue: a peer stuck on this plane's hot keys may
      // have donated its batch.  Absorbing it at the pop point folds the
      // conflict into this worker's next commit unit before anyone burns
      // more attempt budget — under overload this, not the exhaustion-time
      // hand-off below, is how most donations get placed.
      fusion_->try_adopt(w.shard, batch);
    }
    live.reserve(batch.size());
    const std::uint64_t now = now_ns();
    for (Pending* p : batch) {
      // Deadline check before the batch takes a transaction slot.
      if (p->req.deadline_ns != 0 && p->req.deadline_ns < now) {
        sink_->add(metrics::CounterId::kSvcExpired);
        complete(p, SvcStatus::kExpired, now);
      } else {
        live.push_back(p);
      }
    }
    // Key-sort the batch by each script's FIRST step key (stable:
    // same-key requests keep arrival order, preserving read-after-write
    // for a pipelining client whose ops landed in one batch).  Concurrent
    // requests carry no cross-key ordering obligation, and ascending keys
    // turn the batch's structure traversals into short hint-relative hops
    // instead of full walks from the head — the locality that makes
    // coalescing pay.  Multi-step scripts only benefit from their lead
    // step; their tails touch other structures anyway.
    sort_by_lead_key(live);
    if (!live.empty()) run_with_solo_reruns(w, live, acks);
    // The group-commit flush: the log up to its last append, not just our
    // records — this drain's commits (and the values its reads and guards
    // observed) may depend on records another worker appended but has not
    // yet synced.
    if (!acks.empty()) sync_log();
    const std::uint64_t done = now_ns();
    for (Pending* p : acks) {
      sink_->record_phase(metrics::Phase::kService, done - p->enqueue_ns);
      complete(p, SvcStatus::kOk, done);
    }
  }

  static void sort_by_lead_key(std::vector<Pending*>& batch) {
    if (batch.size() > 1) {
      std::stable_sort(batch.begin(), batch.end(),
                       [](const Pending* a, const Pending* b) {
                         return a->req.steps[0].key < b->req.steps[0].key;
                       });
    }
  }

  void run_with_solo_reruns(Worker& w, std::vector<Pending*>& batch,
                            std::vector<Pending*>& acks) {
    std::vector<Pending*> deferred;
    run_batch(w, batch, deferred, acks, /*fusing=*/fusion_ != nullptr);
    // Guard-abort victims re-run SOLO: inside the coalesced batch their
    // guard may have tripped over a batchmate's rolled-back overlay writes
    // (e.g. another script popped the only element this attempt), which is
    // not a real outcome.  Solo, the verdict is clean — commit or genuine
    // guard failure — and run_batch completes them inline either way, so
    // this loop never grows `deferred`.  Fusion stays off for these runs:
    // adopting a donation would un-solo the batch and cost the victim its
    // definitive verdict.
    for (std::size_t i = 0; i < deferred.size(); ++i) {
      std::vector<Pending*> solo{deferred[i]};
      run_batch(w, solo, deferred, acks, /*fusing=*/false);
    }
  }

  /// Run `batch` until it commits, a peer adopts it, or (on a multi-request
  /// batch) a guard failure defers a victim.  Every attempt holds the
  /// commit gate: shared for kBatchAttempts attempts, then, once that
  /// budget is spent and no peer takes the batch, exclusive with an
  /// unbounded budget.  Under the exclusive gate no other batch attempt is
  /// in flight, so semantic validation cannot fail and the batch commits
  /// unless a fault hook aborts it or a guard trips.
  void run_batch(Worker& w, std::vector<Pending*>& batch,
                 std::vector<Pending*>& deferred,
                 std::vector<Pending*>& acks, bool fusing) {
    bool escalated = false;
    for (;;) {
      Pending* victim = nullptr;
      BatchOutcome out;
      if (escalated) {
        std::unique_lock<std::shared_mutex> gate(gate_);
        out = try_batch_tx(w, batch, &victim, /*attempts=*/0);
      } else {
        std::shared_lock<std::shared_mutex> gate(gate_);
        out = try_batch_tx(w, batch, &victim, kBatchAttempts);
      }
      switch (out) {
        case BatchOutcome::kCommitted:
          // The record (if any) was appended by the commit hook; the ack
          // waits for execute_batch's drain-wide sync.  Read-only batches
          // wait too: a read may have observed a write another worker has
          // appended but not yet fsynced.
          sink_->add(metrics::CounterId::kSvcBatches);
          sink_->record_batch_size(batch.size());
          acks.insert(acks.end(), batch.begin(), batch.end());
          return;
        case BatchOutcome::kGuardAbort: {
          if (batch.size() == 1) {
            // Solo guard failure is definitive: the script linearises as a
            // read-only no-op at the failed guard, and the per-step results
            // (filled by apply before it threw) tell the client where it
            // stopped.  Counted as a batch so the batch-size ledger
            // identity (enqueued == batch totals + expired) still holds.
            sink_->add(metrics::CounterId::kSvcGuardAborts);
            sink_->add(metrics::CounterId::kSvcBatches);
            sink_->record_batch_size(1);
            acks.push_back(victim);
            return;
          }
          batch.erase(std::find(batch.begin(), batch.end(), victim));
          deferred.push_back(victim);
          continue;  // reduced batch retries with a fresh attempt budget
        }
        case BatchOutcome::kBudgetSpent:
          break;
      }
      // The shared-gate budget is spent (a gated attempt never spends one).
      sink_->add(metrics::CounterId::kSvcBatchSplits);
      if (fusing) {
        // Contention manager (fusion.h): absorb a peer's donated batch into
        // this commit unit, or donate ours and wait for a peer to absorb it.
        if (fusion_->try_adopt(w.shard, batch) != 0) {
          sort_by_lead_key(batch);
          continue;  // merged commit unit retries with a fresh budget
        }
        if (fusion_->offer_and_wait(w.shard, batch) == OfferOutcome::kAdopted)
          return;  // a peer owns (and completes) these requests now
      }
      escalated = true;
    }
  }

  /// Run every request of `batch` in one transaction, at most `attempts`
  /// attempts (0 = until it commits) of tx::atomically's retry loop, in the
  /// worker's transaction.  Returns kBudgetSpent when the budget is
  /// exhausted and kGuardAbort with `*victim` set when a script's guard
  /// failed (the attempt rolls back without consuming budget; the caller
  /// decides the victim's fate).  Batch transactions are ordinary boosted
  /// transactions and account through the standard otb.tx sink.
  BatchOutcome try_batch_tx(Worker& w, std::vector<Pending*>& batch,
                            Pending** victim, unsigned attempts) {
    tx::Transaction& t = worker_tx(w);
    std::vector<WalOp>* redo = w.wal != nullptr ? &w.redo : nullptr;
    BatchOutcome out = BatchOutcome::kBudgetSpent;
    try {
      const metrics::AttemptReport report =
          tx::atomically(t, attempts, [&](tx::Transaction&) {
            if (redo != nullptr) redo->clear();
            for (Pending* p : batch) apply(t, p, redo);
            if (cfg_.batch_fault_hook) cfg_.batch_fault_hook(batch.size());
          });
      if (report.commits != 0) out = BatchOutcome::kCommitted;
    } catch (const ScriptAbort& sa) {
      // Left atomically like any user exception: abandoned, kExplicit.
      *victim = sa.victim;
      out = BatchOutcome::kGuardAbort;
    }
    return out;
  }

  /// The worker's transaction, created by its first batch.  With the log
  /// open, the WAL append runs from its commit hook — inside commit(),
  /// BEFORE the semantic locks release — and draws the record's stamp.
  /// That ordering is what makes group commit sound: conflicting commits
  /// stamp in serialization order, and by the time any dependent
  /// transaction can read this batch's writes, its record is in the log,
  /// so the dependent's pre-ack sync covers it.
  ///
  /// The record is the PQ steps in step order, then the write-set of every
  /// map and set slot the batch wrote (Targets::for_each_write: one op per
  /// written key, net of local elimination).  Replay runs it in that order;
  /// the write-set ops touch distinct keys of structures the PQ ops do not
  /// touch, so the order across them does not matter.  A batch with
  /// nothing left to log appends no record.
  static tx::Transaction& worker_tx(Worker& w) {
    if (!w.txn.has_value()) {
      w.txn.emplace();
      if (w.wal != nullptr) {
        w.txn->set_commit_hook(
            [](void* arg) {
              auto* self = static_cast<Worker*>(arg);
              std::vector<WalOp>& rec = self->redo;
              self->targets->for_each_write(
                  *self->txn, [&](StructureId slot, Verb verb,
                                  std::int64_t key, std::int64_t value) {
                    rec.push_back(WalOp{slot, verb, key, value});
                  });
              if (!rec.empty()) self->wal->append(rec.data(), rec.size());
            },
            &w);
      }
    }
    return *w.txn;
  }

  /// One client script: steps run in order, bindings read earlier steps'
  /// result values, and a failed guard fills the remaining results as
  /// not-run and stops the script (returning false).  `run_step(step, key,
  /// value)` executes one binding-resolved step.  Results land directly in
  /// the Pending cell, rebuilt from scratch on every call — a call may be
  /// a retry: only this thread touches the cell until the completing
  /// status store publishes them.
  template <typename RunStep>
  static bool run_script(Pending* p, RunStep&& run_step) {
    const Request& r = p->req;
    p->results.clear();
    p->results.reserve(r.steps.size());
    p->range_out.clear();
    p->ok = true;
    p->value = 0;
    for (std::size_t i = 0; i < r.steps.size(); ++i) {
      const Step& s = r.steps[i];
      const std::int64_t key =
          s.key_from >= 0 ? p->results[s.key_from].value : s.key;
      const std::int64_t value =
          s.value_from >= 0 ? p->results[s.value_from].value : s.value;
      const StepResult res = run_step(s, key, value);
      p->results.push_back(res);
      p->value = res.value;
      if (!res.ok) p->ok = false;
      const bool guard_failed =
          (s.required && !res.ok) ||
          (s.has_expect && (!res.ok || res.value != s.expect));
      if (guard_failed) {
        for (std::size_t j = i + 1; j < r.steps.size(); ++j) {
          p->results.push_back(StepResult{});  // ran = false
        }
        p->ok = false;
        return false;
      }
    }
    return true;
  }

  /// One client script inside the batch transaction; a failed guard throws
  /// ScriptAbort.  With durability on (`redo` non-null), every PQ step that
  /// took effect is appended to the attempt's redo buffer under wal.h's
  /// step rule (took_effect / wal_op); map and set steps are not, since
  /// the commit hook appends those structures' write-sets.  The buffer
  /// becomes the batch's WAL record if this attempt commits.
  void apply(tx::Transaction& t, Pending* p, std::vector<WalOp>* redo) {
    const bool finished = run_script(p, [&](const Step& s, std::int64_t key,
                                           std::int64_t value) {
      const StepResult res =
          targets_.run(t, s.structure, s.verb, key, value, &p->range_out);
      if (redo != nullptr && targets_.logs_steps(s.structure) &&
          took_effect(s.verb, res)) {
        redo->push_back(wal_op(s.structure, s.verb, key, res));
      }
      return res;
    });
    if (!finished) throw ScriptAbort{p};
  }

  /// The WAL once it is appendable.  Null before start() opens it (a
  /// stop()-before-start drain therefore completes requests without
  /// logging: the service never ran, nothing was acknowledged as durable).
  Wal* active_wal() const {
    return wal_ != nullptr && wal_->is_open() ? wal_.get() : nullptr;
  }

  /// Flush the log before an acknowledgement; nothing to do under the
  /// `off` policy or without an open WAL.
  void sync_log() {
    if (Wal* wal = active_wal()) wal->sync();
  }

  /// Copy every registered structure's contents (under the exclusive gate
  /// only — Targets::capture needs quiescence).
  void capture_slots(std::vector<CheckpointSlot>* out) const {
    for (std::size_t i = 0; i < targets_.count; ++i) {
      const auto id = static_cast<StructureId>(i);
      if (targets_.slots[id].ds == nullptr) continue;
      out->push_back(
          CheckpointSlot{id, targets_.slots[id].kind, targets_.capture(id)});
    }
  }

  void checkpoint_loop() {
    set_this_thread_name("svc/ckpt");
    const auto interval = std::chrono::milliseconds(cfg_.wal_checkpoint_ms);
    auto next = std::chrono::steady_clock::now() + interval;
    while (!ckpt_stop_.load(std::memory_order_acquire)) {
      if (std::chrono::steady_clock::now() >= next) {
        checkpoint_now();
        next = std::chrono::steady_clock::now() + interval;
      }
      // Short sleep slices keep stop() latency bounded without a CV.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  Targets targets_;
  ServiceConfig cfg_;
  ShardedQueue queue_;
  metrics::MetricsSink* sink_;
  std::unique_ptr<Wal> wal_;
  // Contention manager (fusion.h); null on single-worker planes.
  std::unique_ptr<FusionPlane> fusion_;
  // The commit gate: every batch attempt holds it shared, including solo
  // guard re-runs and the stop()-before-start() drain; a gated attempt
  // after a spent budget and checkpoint_now's capture-and-rotate hold it
  // exclusive.  Inline snapshot reads bypass it: they are read-only and
  // abort-free, so they can neither invalidate the holder nor be hurt by
  // it.  Lock order: checkpoint_mu_ -> gate_ -> semantic locks.
  std::shared_mutex gate_;
  std::mutex checkpoint_mu_;  // one checkpoint at a time
  std::thread ckpt_thread_;
  std::atomic<bool> ckpt_stop_{false};
  bool recovered_ = false;
  std::vector<std::thread> workers_;
  // Admission opens at construction (not start()) so tests can pre-load
  // queues before any worker runs; only stop() closes it.
  std::atomic<bool> accepting_{true};
  std::atomic<bool> running_{false};
  std::atomic<bool> started_{false};
  std::atomic<std::uint32_t> submits_in_flight_{0};
};

}  // namespace otb::service
