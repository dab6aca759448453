// RTC — Remote Transaction Commit (Chapter 5).
//
// Clients execute NOrec-style transactions (value-based validation, lazy
// redo logs) but never touch the global lock themselves: at commit they
// post a request into a cache-aligned request array and spin on their own
// entry.  A dedicated *main server* thread scans the array, validates and
// publishes write-sets on the clients' behalf (it is the only writer of the
// global timestamp, so it needs no CAS), and — when the write-set is large
// enough to enable dependency detection (§5.1.1) — *secondary servers*
// concurrently commit requests whose read/write bloom filter is disjoint
// from the write filter of the in-flight main commit (§5.2.3, Fig 5.4).
//
// The servers and the `servers_lock` handshake implement exactly the
// Algorithm 10/11 protocol, including the "secondary is an extension of the
// main commit" rule: the main server cannot move the timestamp back to even
// while a secondary holds the lock, and a secondary commits at most one
// request per main-commit window.
#pragma once

#include <memory>
#include <thread>
#include <vector>

#include "common/bloom_filter.h"
#include "common/platform.h"
#include "common/spinlock.h"
#include "stm/algs/commit_request.h"
#include "stm/algs/norec.h"
#include "stm/runtime.h"

namespace otb::stm {

class RtcClientTx;

struct RtcGlobal final : AlgoGlobal {
  using Request = CommitRequest<RtcClientTx>;

  NOrecGlobal norec;  // shared timestamp + timing flag for the client side
  Config cfg;
  std::unique_ptr<Request[]> requests;
  unsigned nslots;

  std::atomic<bool> stop{false};
  std::atomic<bool> dd_enabled{false};
  std::atomic<Request*> main_request{nullptr};
  SpinLock servers_lock;
  std::vector<std::thread> servers;

  explicit RtcGlobal(const Config& config)
      : norec(config),
        cfg(config),
        requests(std::make_unique<Request[]>(config.max_threads)),
        nslots(config.max_threads) {
    servers.emplace_back([this] { main_server_loop(); });
    for (unsigned s = 0; s < cfg.rtc_secondary_servers; ++s) {
      servers.emplace_back([this, s] { secondary_server_loop(s); });
    }
  }

  ~RtcGlobal() override {
    stop.store(true, std::memory_order_release);
    for (auto& t : servers) t.join();
    // Nobody should be left, but never strand a client.
    for (unsigned i = 0; i < nslots; ++i) requests[i].abort_if_pending();
  }

  std::unique_ptr<Tx> make_tx(unsigned slot) override;

 private:
  void main_server_loop();
  void secondary_server_loop(unsigned id);
};

class RtcClientTx final : public NOrecTx {
 public:
  RtcClientTx(RtcGlobal& rtc, unsigned slot)
      : NOrecTx(rtc.norec), rtc_(rtc), slot_(slot) {
    track_filters_ = true;
    rtc_.requests[slot_].tx = this;
  }

  ~RtcClientTx() override { rtc_.requests[slot_].tx = nullptr; }

  void commit() override {
    if (writes_.empty()) return;
    validate();  // pre-flight client validation (Algorithm 9); may abort
    if (rtc_.requests[slot_].post_and_wait() == RtcGlobal::Request::kAborted) {
      // The server refused the request after value-based re-validation.
      throw TxAbort{metrics::AbortReason::kValidation};
    }
  }

  // Server-side accessors.
  bool server_validate() const { return reads_.values_match(); }
  void server_publish() const { writes_.publish(); }
  std::size_t write_set_size() const { return writes_.size(); }
  const TxFilter& rw_filter() const { return read_filter_; }
  const TxFilter& w_filter() const { return write_filter_; }

 private:
  RtcGlobal& rtc_;
  unsigned slot_;
};

inline std::unique_ptr<Tx> RtcGlobal::make_tx(unsigned slot) {
  return std::make_unique<RtcClientTx>(*this, slot);
}

// ---- server loops ----------------------------------------------------------

inline void RtcGlobal::main_server_loop() {
  if (cfg.pin_servers) pin_this_thread(0);
  const bool has_secondary = cfg.rtc_secondary_servers > 0;
  while (!stop.load(std::memory_order_acquire)) {
    bool worked = false;
    for (unsigned i = 0; i < nslots; ++i) {
      Request& req = requests[i];
      if (!req.pending()) continue;
      RtcClientTx* tx = req.tx;
      if (tx == nullptr) continue;
      worked = true;
      // Only this thread moves the timestamp, so it is even here and the
      // validation below runs against quiescent shared memory.
      if (!tx->server_validate()) {
        req.complete(Request::kAborted);
        continue;
      }
      if (!has_secondary || tx->write_set_size() < cfg.rtc_dd_threshold) {
        // Fast path: dependency detection disabled (Algorithm 10, left).
        norec.clock.server_increment();  // odd
        tx->server_publish();
        norec.clock.server_increment();  // even
        req.complete(Request::kReady);
      } else {
        // DD path (Algorithm 10, right): let secondaries piggy-back.
        main_request.store(&req, std::memory_order_release);
        dd_enabled.store(true, std::memory_order_release);
        norec.clock.server_increment();  // odd
        tx->server_publish();
        // The window closes only when no secondary is mid-commit.
        servers_lock.lock();
        norec.clock.server_increment();  // even
        servers_lock.unlock();
        dd_enabled.store(false, std::memory_order_release);
        main_request.store(nullptr, std::memory_order_release);
        req.complete(Request::kReady);
      }
    }
    if (!worked) std::this_thread::yield();  // oversubscribed hosts
  }
}

inline void RtcGlobal::secondary_server_loop(unsigned id) {
  if (cfg.pin_servers) pin_this_thread(1 + id);
  while (!stop.load(std::memory_order_acquire)) {
    if (!dd_enabled.load(std::memory_order_acquire)) {
      std::this_thread::yield();
      continue;
    }
    for (unsigned i = 0; i < nslots && !stop.load(std::memory_order_relaxed); ++i) {
      if (!dd_enabled.load(std::memory_order_acquire)) continue;
      const std::uint64_t s = norec.clock.load();
      if ((s & 1) == 0) continue;  // main server not inside a commit window
      Request& req = requests[i];
      Request* main_req = main_request.load(std::memory_order_acquire);
      if (&req == main_req || main_req == nullptr) continue;
      if (!req.pending()) continue;
      RtcClientTx* tx = req.tx;
      RtcClientTx* main_tx = main_req->tx;
      if (tx == nullptr || main_tx == nullptr) continue;
      // Independence test (§5.1.1): rwf(candidate) ∩ wf(main) must be empty.
      if (tx->rw_filter().intersects(main_tx->w_filter())) continue;
      if (!servers_lock.try_lock()) continue;
      if (norec.clock.load() != s) {  // main finished while we decided
        servers_lock.unlock();
        continue;
      }
      // Validate under the lock: main's writes cannot touch our read-set
      // (independence), and any earlier secondary commit of this window is
      // fully published, so value-based validation is exact.
      if (!tx->server_validate()) {
        req.complete(Request::kAborted);
        servers_lock.unlock();
        continue;
      }
      tx->server_publish();
      req.complete(Request::kReady);
      servers_lock.unlock();
      // One request per commit window: wait until the main server closes it.
      SpinWait waiter;
      while (norec.clock.load() == s && !stop.load(std::memory_order_acquire)) {
        waiter.spin();
      }
    }
  }
}

}  // namespace otb::stm
