// TL2 (Dice, Shalev, Shavit) — §4.2.3's fine-grained baseline.
//
// A global version clock plus a hashed table of ownership records
// (versioned locks).  Reads sample the covering orec before and after the
// load; commit locks the write orecs, takes a write version, re-validates
// the read orecs, publishes, and releases the orecs stamped with the write
// version.  Mixin over its base class for the same reason as NOrec (the
// OTB-TL2 integration context).
#pragma once

#include <algorithm>
#include <vector>

#include "common/hash.h"
#include "common/platform.h"
#include "common/spinlock.h"
#include "stm/read_write_sets.h"
#include "stm/runtime.h"

namespace otb::stm {

struct Tl2Global final : AlgoGlobal {
  static constexpr std::size_t kOrecCount = 1 << 20;

  std::atomic<std::uint64_t> clock{0};
  std::unique_ptr<VersionedLock[]> orecs =
      std::make_unique<VersionedLock[]>(kOrecCount);
  bool collect_timing = false;

  explicit Tl2Global(const Config& cfg) : collect_timing(cfg.collect_timing) {}

  VersionedLock& orec_for(const TWord* addr) {
    return orecs[hash_addr(addr) & (kOrecCount - 1)];
  }

  std::unique_ptr<Tx> make_tx(unsigned) override;
};

template <typename Base = Tx>
class Tl2TxT : public Base {
 public:
  explicit Tl2TxT(Tl2Global& global) : global_(global) {}

  void begin() override {
    reads_.clear();
    writes_.clear();
    rv_ = global_.clock.load(std::memory_order_acquire);
  }

  Word read_word(const TWord* addr) override {
    this->stats_.reads += 1;
    Word buffered;
    if (writes_.lookup(addr, &buffered)) return buffered;
    VersionedLock& orec = global_.orec_for(addr);
    const std::uint64_t pre = orec.load();
    const Word value = addr->load(std::memory_order_acquire);
    const std::uint64_t post = orec.load();
    if (VersionedLock::is_locked(pre) || pre != post ||
        VersionedLock::version_of(pre) > rv_) {
      throw TxAbort{metrics::AbortReason::kValidation};
    }
    reads_.push_back(&orec);
    return value;
  }

  void write_word(TWord* addr, Word value) override {
    this->stats_.writes += 1;
    writes_.put(addr, value);
  }

  void commit() override {
    if (writes_.empty()) return;  // read-only: per-read validation suffices
    lock_write_orecs();
    this->stats_.lock_acquisitions += locked_.size();
    const std::uint64_t wv = global_.clock.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (wv != rv_ + 1 && !validate_reads()) {
      release_locked(/*stamp=*/false, 0);
      throw TxAbort{metrics::AbortReason::kValidation};
    }
    writes_.publish();
    release_locked(/*stamp=*/true, wv);
  }

  void rollback() override { release_locked(/*stamp=*/false, 0); }

 protected:
  void lock_write_orecs() {
    for (const auto& e : writes_.entries()) {
      VersionedLock& orec = global_.orec_for(e.addr);
      if (holds(&orec)) continue;
      const std::uint64_t w = orec.load();
      if (VersionedLock::is_locked(w) || VersionedLock::version_of(w) > rv_ ||
          !orec.try_lock_from(w)) {
        this->stats_.lock_cas_failures += 1;
        release_locked(/*stamp=*/false, 0);
        throw TxAbort{metrics::AbortReason::kLockFail};
      }
      locked_.push_back(&orec);
    }
  }

  bool validate_reads() {
    this->stats_.validations += 1;
    const std::uint64_t t0 = global_.collect_timing ? now_ns() : 0;
    bool ok = true;
    for (VersionedLock* orec : reads_) {
      const std::uint64_t w = orec->load();
      if (VersionedLock::version_of(w) > rv_ ||
          (VersionedLock::is_locked(w) && !holds(orec))) {
        ok = false;
        break;
      }
    }
    if (global_.collect_timing) this->stats_.ns_validation += now_ns() - t0;
    return ok;
  }

  bool holds(const VersionedLock* orec) const {
    return std::find(locked_.begin(), locked_.end(), orec) != locked_.end();
  }

  void release_locked(bool stamp, std::uint64_t wv) {
    for (VersionedLock* orec : locked_) {
      if (stamp) {
        orec->unlock_with_version(wv);
      } else {
        orec->unlock_same_version();
      }
    }
    locked_.clear();
  }

  Tl2Global& global_;
  std::vector<VersionedLock*> reads_;
  RedoWriteSet writes_;
  std::vector<VersionedLock*> locked_;
  std::uint64_t rv_ = 0;
};

using Tl2Tx = Tl2TxT<Tx>;

inline std::unique_ptr<Tx> Tl2Global::make_tx(unsigned) {
  return std::make_unique<Tl2Tx>(*this);
}

}  // namespace otb::stm
