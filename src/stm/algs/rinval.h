// RInval — Remote Invalidation (Chapter 6).
//
// Combines the two ideas the paper builds on:
//   * like InvalSTM, validation is replaced by commit-time invalidation, so
//     a read costs O(1) (snapshot the clock, check the own `invalidated`
//     flag) and total validation work is linear in the read-set instead of
//     NOrec's quadratic incremental scheme (§6.2);
//   * like RTC, the commit routine runs in a dedicated *commit server*
//     reached through a cache-aligned request array, removing all client
//     CAS/spinning on shared locks (§6.2.1, "V1").
//
// With Config::rinval_parallel_invalidation (the paper's V2), the
// invalidation scan runs in a second *invalidation server* concurrently with
// the commit server's write-back of the same transaction; the commit window
// (odd clock) closes only after both finish, which preserves InvalSTM's
// opacity argument while overlapping the two halves of the commit.
#pragma once

#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/bloom_filter.h"
#include "common/platform.h"
#include "common/spinlock.h"
#include "stm/algs/commit_request.h"
#include "stm/algs/invalstm.h"
#include "stm/runtime.h"

namespace otb::stm {

class RInvalClientTx;

struct RInvalGlobal final : AlgoGlobal {
  using Request = CommitRequest<RInvalClientTx>;

  SeqLock clock;
  Config cfg;
  unsigned nslots;
  std::unique_ptr<InvalRecord[]> records;
  std::unique_ptr<Request[]> requests;

  std::atomic<bool> stop{false};
  std::vector<std::thread> servers;

  // Commit→invalidation server handoff (V2): one job at a time, owned by
  // exactly one server.  The commit server fills the two fields below while
  // the job word is kIdle, then stores kIssued (release); whichever server
  // moves kIssued → kClaimed by CAS reads them and scans.  The fields are
  // the requester's, and the requester may free its filter as soon as its
  // request completes, so the commit server completes it only after the
  // owner's scan is over (kDone, or its own scan).
  enum JobState : int { kIdle = 0, kIssued = 1, kClaimed = 2, kDone = 3 };
  std::atomic<int> inval_job{kIdle};
  const TxFilter* inval_filter = nullptr;  // write filter of the job
  unsigned inval_requester = 0;            // slot to skip

  explicit RInvalGlobal(const Config& config)
      : cfg(config),
        nslots(config.max_threads),
        records(std::make_unique<InvalRecord[]>(config.max_threads)),
        requests(std::make_unique<Request[]>(config.max_threads)) {
    servers.emplace_back([this] { commit_server_loop(); });
    if (cfg.rinval_parallel_invalidation) {
      servers.emplace_back([this] { invalidation_server_loop(); });
    }
  }

  ~RInvalGlobal() override {
    stop.store(true, std::memory_order_release);
    for (auto& t : servers) t.join();
    // Nobody should be left, but never strand a client.
    for (unsigned i = 0; i < nslots; ++i) requests[i].abort_if_pending();
  }

  std::unique_ptr<Tx> make_tx(unsigned slot) override;

  /// Spins the commit server grants the invalidation server before helping
  /// with the scan itself (matters only when servers share a core).
  static constexpr int kHelpThreshold = 256;

  /// CM input: how many active transactions `write_filter` would doom.
  unsigned count_conflicting(const TxFilter& write_filter, unsigned requester) {
    unsigned doomed = 0;
    for (unsigned i = 0; i < nslots; ++i) {
      if (i == requester) continue;
      InvalRecord& other = records[i];
      if (!other.active.load(std::memory_order_acquire)) continue;
      std::lock_guard<SpinLock> lk(other.filter_lock);
      if (other.read_filter.intersects(write_filter)) ++doomed;
    }
    return doomed;
  }

  /// InvalSTM-style scan: doom every active transaction whose read filter
  /// intersects `write_filter`, except the committing slot.
  void invalidate_conflicting(const TxFilter& write_filter, unsigned requester) {
    for (unsigned i = 0; i < nslots; ++i) {
      if (i == requester) continue;
      InvalRecord& other = records[i];
      if (!other.active.load(std::memory_order_acquire)) continue;
      std::lock_guard<SpinLock> lk(other.filter_lock);
      if (other.read_filter.intersects(write_filter)) {
        other.invalidated.store(true, std::memory_order_release);
      }
    }
  }

 private:
  void commit_server_loop();
  void invalidation_server_loop();
};

class RInvalClientTx final : public Tx {
 public:
  RInvalClientTx(RInvalGlobal& global, unsigned slot)
      : global_(global), rec_(global.records[slot]), slot_(slot) {
    global_.requests[slot_].tx = this;
  }

  ~RInvalClientTx() override {
    rec_.active.store(false, std::memory_order_release);
    global_.requests[slot_].tx = nullptr;
  }

  void begin() override {
    writes_.clear();
    write_filter_.clear();
    {
      std::lock_guard<SpinLock> lk(rec_.filter_lock);
      rec_.read_filter.clear();
    }
    rec_.invalidated.store(false, std::memory_order_release);
    rec_.active.store(true, std::memory_order_release);
  }

  Word read_word(const TWord* addr) override {
    stats_.reads += 1;
    Word buffered;
    if (writes_.lookup(addr, &buffered)) return buffered;
    for (;;) {
      const std::uint64_t s1 = global_.clock.wait_even();
      const Word value = addr->load(std::memory_order_acquire);
      {
        std::lock_guard<SpinLock> lk(rec_.filter_lock);
        rec_.read_filter.add(addr);
      }
      if (global_.clock.load() != s1) {
        stats_.lock_spins += 1;
        continue;
      }
      if (rec_.invalidated.load(std::memory_order_acquire)) {
        throw TxAbort{metrics::AbortReason::kInvalidated};
      }
      return value;
    }
  }

  void write_word(TWord* addr, Word value) override {
    stats_.writes += 1;
    writes_.put(addr, value);
    write_filter_.add(addr);
  }

  void commit() override {
    if (writes_.empty()) {
      if (rec_.invalidated.load(std::memory_order_acquire)) {
        throw TxAbort{metrics::AbortReason::kInvalidated};
      }
      rec_.active.store(false, std::memory_order_release);
      return;
    }
    const int state = global_.requests[slot_].post_and_wait();
    rec_.active.store(false, std::memory_order_release);
    if (state == RInvalGlobal::Request::kAborted) {
      // The server either saw us doomed or the CM refused the commit; both
      // trace back to an invalidation-scan decision.
      throw TxAbort{metrics::AbortReason::kInvalidated};
    }
  }

  void rollback() override { rec_.active.store(false, std::memory_order_release); }

  // Server-side accessors.
  bool doomed() const { return rec_.invalidated.load(std::memory_order_acquire); }
  void server_publish() const { writes_.publish(); }
  const TxFilter& w_filter() const { return write_filter_; }

 private:
  RInvalGlobal& global_;
  InvalRecord& rec_;
  unsigned slot_;
  RedoWriteSet writes_;
  TxFilter write_filter_;
};

inline std::unique_ptr<Tx> RInvalGlobal::make_tx(unsigned slot) {
  return std::make_unique<RInvalClientTx>(*this, slot);
}

// ---- servers ---------------------------------------------------------------

inline void RInvalGlobal::commit_server_loop() {
  if (cfg.pin_servers) pin_this_thread(0);
  while (!stop.load(std::memory_order_acquire)) {
    bool worked = false;
    for (unsigned i = 0; i < nslots; ++i) {
      Request& req = requests[i];
      if (!req.pending()) continue;
      RInvalClientTx* tx = req.tx;
      if (tx == nullptr) continue;
      worked = true;
      if (tx->doomed()) {
        req.complete(Request::kAborted);
        continue;
      }
      // Contention manager (§7.1.3): the server, which can see every
      // in-flight transaction, aborts the requester when its commit would
      // doom more readers than the policy allows.
      if (cfg.inval_cm_max_doomed > 0 &&
          count_conflicting(tx->w_filter(), i) > cfg.inval_cm_max_doomed) {
        req.complete(Request::kAborted);
        continue;
      }
      clock.server_increment();  // odd: readers and committers are held off
      if (cfg.rinval_parallel_invalidation) {
        // V2: hand the scan to the invalidation server and write back
        // concurrently; the window closes when both are done.
        inval_filter = &tx->w_filter();
        inval_requester = i;
        inval_job.store(kIssued, std::memory_order_release);
        tx->server_publish();
        int spins = 0;
        for (int s = inval_job.load(std::memory_order_acquire); s != kDone;
             s = inval_job.load(std::memory_order_acquire)) {
          if (++spins <= kHelpThreshold) {
            cpu_relax();
            continue;
          }
          // Help-first fallback: when the invalidation server is not being
          // scheduled (oversubscribed hosts), claim the job and scan here.
          // If the server claimed it first, wait for its scan to end.
          int issued = kIssued;
          if (s == kIssued && inval_job.compare_exchange_strong(
                                  issued, kClaimed, std::memory_order_acq_rel)) {
            invalidate_conflicting(tx->w_filter(), i);
            break;
          }
          std::this_thread::yield();
        }
        inval_job.store(kIdle, std::memory_order_relaxed);
      } else {
        // V1: this server does both halves sequentially.
        tx->server_publish();
        invalidate_conflicting(tx->w_filter(), i);
      }
      clock.server_increment();  // even
      req.complete(Request::kReady);
    }
    if (!worked) std::this_thread::yield();  // oversubscribed hosts
  }
}

inline void RInvalGlobal::invalidation_server_loop() {
  if (cfg.pin_servers) pin_this_thread(1);
  while (!stop.load(std::memory_order_acquire)) {
    int issued = kIssued;
    if (inval_job.load(std::memory_order_relaxed) != kIssued ||
        !inval_job.compare_exchange_strong(issued, kClaimed,
                                           std::memory_order_acq_rel)) {
      std::this_thread::yield();
      continue;
    }
    invalidate_conflicting(*inval_filter, inval_requester);
    inval_job.store(kDone, std::memory_order_release);
  }
}

}  // namespace otb::stm
