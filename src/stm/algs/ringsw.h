// RingSTM, single-writer variant (Spear et al.) — §2.1.3.
//
// Committed writers append their write bloom filter to a fixed ring stamped
// with a commit timestamp.  Readers validate by intersecting their read
// filter with every ring entry newer than their start time; writers
// serialize on a global commit lock (the "SW" flavour), re-validate, then
// publish their ring entry, write back, and finally bump a write-back-
// complete counter.  Transactions start from that counter, not from the
// ring index, and a reader moves its start past an entry only once that
// entry's write-back is complete — otherwise it could read around a write-
// back in progress without ever validating against its entry.  A reader
// that falls so far behind that the ring has wrapped over its start
// position aborts.
#pragma once

#include <array>

#include "common/bloom_filter.h"
#include "common/platform.h"
#include "common/spinlock.h"
#include "stm/read_write_sets.h"
#include "stm/runtime.h"

namespace otb::stm {

struct RingSwGlobal final : AlgoGlobal {
  static constexpr std::size_t kRingSize = 1024;

  struct alignas(kCacheLine) RingEntry {
    std::atomic<std::uint64_t> timestamp{0};  // 0 = never used
    TxFilter filter;
  };

  /// Newest committed timestamp; entry i lives at ring[i % kRingSize].
  std::atomic<std::uint64_t> ring_index{0};
  /// Newest timestamp whose write-back has finished (<= ring_index).
  std::atomic<std::uint64_t> last_complete{0};
  /// Serializes writers (single-writer ring).
  SpinLock commit_lock;
  std::array<RingEntry, kRingSize> ring;

  explicit RingSwGlobal(const Config&) {}

  std::unique_ptr<Tx> make_tx(unsigned) override;
};

class RingSwTx final : public Tx {
 public:
  explicit RingSwTx(RingSwGlobal& global) : global_(global) {}

  void begin() override {
    read_filter_.clear();
    writes_.clear();
    write_filter_.clear();
    start_ = global_.last_complete.load(std::memory_order_acquire);
  }

  Word read_word(const TWord* addr) override {
    stats_.reads += 1;
    Word buffered;
    if (writes_.lookup(addr, &buffered)) return buffered;
    const Word value = addr->load(std::memory_order_acquire);
    read_filter_.add(addr);
    check_ring_suffix();
    return value;
  }

  void write_word(TWord* addr, Word value) override {
    stats_.writes += 1;
    writes_.put(addr, value);
    write_filter_.add(addr);
  }

  void commit() override {
    if (writes_.empty()) return;
    std::lock_guard<SpinLock> lk(global_.commit_lock);
    check_ring_suffix();  // final validation against writers we missed
    const std::uint64_t ts = global_.ring_index.load(std::memory_order_acquire) + 1;
    auto& entry = global_.ring[ts % RingSwGlobal::kRingSize];
    entry.filter = write_filter_;
    entry.timestamp.store(ts, std::memory_order_release);
    // Publish the ring entry *before* the write-back: a reader that observes
    // any of our new values is then guaranteed to also observe the entry and
    // abort on filter intersection (bloom filters have no false negatives).
    global_.ring_index.store(ts, std::memory_order_release);
    writes_.publish();
    global_.last_complete.store(ts, std::memory_order_release);
  }

  void rollback() override {}

 private:
  /// Intersect our read filter with every ring entry committed after we
  /// started; advance `start_` past validated entries once their write-
  /// backs are complete, so later reads see those writes.
  void check_ring_suffix() {
    const std::uint64_t newest = global_.ring_index.load(std::memory_order_acquire);
    if (newest == start_) return;
    stats_.validations += 1;
    if (newest - start_ >= RingSwGlobal::kRingSize) {
      throw TxAbort{metrics::AbortReason::kRingWrap};  // wrapped
    }
    for (std::uint64_t i = start_ + 1; i <= newest; ++i) {
      const auto& entry = global_.ring[i % RingSwGlobal::kRingSize];
      if (entry.timestamp.load(std::memory_order_acquire) != i) {
        // The entry was overwritten under us — equivalent to a wrap.
        throw TxAbort{metrics::AbortReason::kRingWrap};
      }
      if (entry.filter.intersects(read_filter_)) {
        throw TxAbort{metrics::AbortReason::kValidation};
      }
    }
    SpinWait wait;
    while (global_.last_complete.load(std::memory_order_acquire) < newest) {
      wait.spin();
    }
    start_ = newest;
  }

  RingSwGlobal& global_;
  TxFilter read_filter_;
  TxFilter write_filter_;
  RedoWriteSet writes_;
  std::uint64_t start_ = 0;
};

inline std::unique_ptr<Tx> RingSwGlobal::make_tx(unsigned) {
  return std::make_unique<RingSwTx>(*this);
}

}  // namespace otb::stm
