// Bounded MPSC ring buffers for the service plane's ingestion path.
//
// `RequestRing` is the classic sequence-numbered bounded queue (Vyukov):
// each cell carries a sequence counter that encodes whether it is free for
// the producer generation or full for the consumer generation, so producers
// synchronise only on a single fetch-add'd head and consumers (one per ring
// here) on a plain tail.  Push fails — it never blocks — when the ring is
// at `high_water`; admission control is the *caller's* decision to complete
// the request as Overloaded instead of waiting, which is what keeps
// enqueue-to-completion latency of admitted requests bounded under
// overload.
//
// `ShardedQueue` is one ring per worker with round-robin producer
// placement, plus a per-ring doorbell (`signal`, a `WaitWord`) the consumer
// parks on when its ring runs dry; a push makes a wake syscall only when
// that consumer is parked.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/platform.h"
#include "common/wait_word.h"
#include "service/request.h"

namespace otb::service {

class RequestRing {
 public:
  /// `capacity` is rounded up to a power of two; `high_water` (0 = use
  /// capacity) is the admission limit: try_push fails once the ring holds
  /// that many undelivered requests.
  explicit RequestRing(std::size_t capacity, std::size_t high_water = 0) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    cells_ = std::make_unique<Cell[]>(cap);
    mask_ = cap - 1;
    high_water_ = (high_water == 0 || high_water > cap) ? cap : high_water;
    for (std::size_t i = 0; i <= mask_; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  /// Multi-producer push; false when at high-water (admission reject).
  bool try_push(Pending* p) {
    std::uint64_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      if (pos - tail_.load(std::memory_order_acquire) >= high_water_) {
        return false;
      }
      Cell& cell = cells_[pos & mask_];
      const std::uint64_t seq = cell.seq.load(std::memory_order_acquire);
      const std::int64_t diff =
          static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos);
      if (diff == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          cell.req = p;
          cell.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
        // pos reloaded by the failed CAS; retry.
      } else if (diff < 0) {
        return false;  // a full generation behind: ring is full
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Single-consumer pop; nullptr when empty.
  Pending* try_pop() {
    const std::uint64_t pos = tail_.load(std::memory_order_relaxed);
    Cell& cell = cells_[pos & mask_];
    const std::uint64_t seq = cell.seq.load(std::memory_order_acquire);
    if (static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos + 1) < 0) {
      return nullptr;  // producer has not published this cell yet
    }
    Pending* p = cell.req;
    cell.seq.store(pos + mask_ + 1, std::memory_order_release);
    tail_.store(pos + 1, std::memory_order_release);
    return p;
  }

  /// Approximate occupancy (racy by design; metrics and admission only).
  std::size_t size() const {
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    const std::uint64_t t = tail_.load(std::memory_order_acquire);
    return h >= t ? static_cast<std::size_t>(h - t) : 0;
  }

  std::size_t capacity() const { return mask_ + 1; }
  std::size_t high_water() const { return high_water_; }

 private:
  struct alignas(kCacheLine) Cell {
    std::atomic<std::uint64_t> seq{0};
    Pending* req = nullptr;
  };

  std::unique_ptr<Cell[]> cells_;
  std::size_t mask_ = 0;
  std::size_t high_water_ = 0;
  alignas(kCacheLine) std::atomic<std::uint64_t> head_{0};
  alignas(kCacheLine) std::atomic<std::uint64_t> tail_{0};
};

/// One ring per worker.  Producers place round-robin (cheap global counter;
/// per-request cost is one relaxed fetch-add) and ring a doorbell the
/// owning consumer sleeps on when dry.
class ShardedQueue {
 public:
  ShardedQueue(unsigned shards, std::size_t capacity_per_shard,
               std::size_t high_water_per_shard) {
    shards_.reserve(shards);
    for (unsigned i = 0; i < shards; ++i) {
      shards_.push_back(std::make_unique<Shard>(capacity_per_shard,
                                                high_water_per_shard));
    }
  }

  unsigned shard_count() const { return static_cast<unsigned>(shards_.size()); }

  /// Admit to some shard (single rotation; a full shard falls through to
  /// the next so one stalled worker does not reject the whole service).
  bool try_push(Pending* p) {
    const unsigned n = shard_count();
    const unsigned start =
        next_.fetch_add(1, std::memory_order_relaxed) % n;
    for (unsigned i = 0; i < n; ++i) {
      Shard& s = *shards_[(start + i) % n];
      if (s.ring.try_push(p)) {
        s.signal.fetch_add(1);
        s.signal.wake();
        return true;
      }
    }
    return false;
  }

  Pending* try_pop(unsigned shard) { return shards_[shard]->ring.try_pop(); }

  /// Block shard `shard`'s consumer until its doorbell moves past `seen`.
  /// Returns the fresh doorbell value.
  std::uint32_t wait(unsigned shard, std::uint32_t seen) {
    return shards_[shard]->signal.wait(seen);
  }

  std::uint32_t doorbell(unsigned shard) const {
    return shards_[shard]->signal.load();
  }

  /// Wake every consumer (stop()/drain).
  void wake_all() {
    for (auto& s : shards_) {
      s->signal.fetch_add(1);
      s->signal.wake();
    }
  }

  std::size_t shard_size(unsigned shard) const {
    return shards_[shard]->ring.size();
  }

  std::size_t total_size() const {
    std::size_t n = 0;
    for (const auto& s : shards_) n += s->ring.size();
    return n;
  }

 private:
  struct Shard {
    Shard(std::size_t cap, std::size_t hw) : ring(cap, hw) {}
    RequestRing ring;
    WaitWord signal;
  };

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint32_t> next_{0};
};

}  // namespace otb::service
