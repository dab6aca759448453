// NOrec (Dalessandro, Spear, Scott) — §2.1.1.
//
// One global timestamped lock; lazy redo-log writes; *value-based*
// incremental validation: after any read that observes a moved timestamp,
// the whole read-set is re-checked against memory, making validation cost
// quadratic in the read-set size in the worst case (the overhead RInval
// attacks).  Commit CASes the timestamp odd, publishes, then bumps it even.
//
// The context is a mixin over its base class so that the Chapter-4
// integration layer can instantiate it over a joint (stm::Tx + OTB TxHost)
// base; `NOrecTx` is the plain instantiation.  The contexts also maintain
// read/write bloom filters when requested — RTC reuses this context family
// for its clients' dependency signatures.
#pragma once

#include "common/bloom_filter.h"
#include "common/platform.h"
#include "common/spinlock.h"
#include "stm/read_write_sets.h"
#include "stm/runtime.h"

namespace otb::stm {

struct NOrecGlobal final : AlgoGlobal {
  SeqLock clock;
  bool collect_timing = false;

  explicit NOrecGlobal(const Config& cfg) : collect_timing(cfg.collect_timing) {}

  std::unique_ptr<Tx> make_tx(unsigned slot) override;
};

template <typename Base = Tx>
class NOrecTxT : public Base {
 public:
  explicit NOrecTxT(NOrecGlobal& global) : global_(global) {}

  void begin() override {
    reads_.clear();
    writes_.clear();
    read_filter_.clear();
    write_filter_.clear();
    snapshot_ = global_.clock.wait_even();
  }

  Word read_word(const TWord* addr) override {
    this->stats_.reads += 1;
    Word buffered;
    if (writes_.lookup(addr, &buffered)) return buffered;
    Word value = addr->load(std::memory_order_acquire);
    // Re-validate until the value provably belongs to our snapshot.
    while (global_.clock.load() != snapshot_) {
      snapshot_ = validate();
      value = addr->load(std::memory_order_acquire);
    }
    reads_.record(addr, value);
    if (track_filters_) read_filter_.add(addr);
    return value;
  }

  void write_word(TWord* addr, Word value) override {
    this->stats_.writes += 1;
    writes_.put(addr, value);
    if (track_filters_) {
      write_filter_.add(addr);
      read_filter_.add(addr);  // read_filter_ doubles as the RW filter (§5.1.1)
    }
  }

  void commit() override {
    if (writes_.empty()) return;
    while (!global_.clock.try_acquire(snapshot_)) {
      this->stats_.lock_cas_failures += 1;
      snapshot_ = validate();
    }
    this->stats_.lock_acquisitions += 1;
    writes_.publish();
    global_.clock.release();
  }

  void rollback() override {}

  const ValueReadSet& read_set() const { return reads_; }
  const RedoWriteSet& write_set() const { return writes_; }

 protected:
  /// NOrec validation: spin to an even timestamp, compare every logged value
  /// with memory, re-check the timestamp.  Returns the validated snapshot.
  /// Virtual so the OTB-NOrec context can fold semantic validation in.
  virtual std::uint64_t validate() {
    this->stats_.validations += 1;
    const std::uint64_t t0 = global_.collect_timing ? now_ns() : 0;
    Backoff backoff;
    for (;;) {
      const std::uint64_t t = global_.clock.load();
      if ((t & 1) != 0) {
        this->stats_.lock_spins += 1;
        backoff.pause();
        continue;
      }
      if (!reads_.values_match()) {
        if (global_.collect_timing) this->stats_.ns_validation += now_ns() - t0;
        throw TxAbort{metrics::AbortReason::kValidation};
      }
      if (global_.clock.load() == t) {
        if (global_.collect_timing) this->stats_.ns_validation += now_ns() - t0;
        return t;
      }
    }
  }

  NOrecGlobal& global_;
  ValueReadSet reads_;
  RedoWriteSet writes_;
  TxFilter read_filter_;
  TxFilter write_filter_;
  std::uint64_t snapshot_ = 0;
  bool track_filters_ = false;  // enabled by the RTC client subclass
};

using NOrecTx = NOrecTxT<Tx>;

inline std::unique_ptr<Tx> NOrecGlobal::make_tx(unsigned) {
  return std::make_unique<NOrecTx>(*this);
}

}  // namespace otb::stm
