// CommitSeq: per-structure commit-sequence word pair for the O(1)
// post-validation fast path (DESIGN.md "Commit-sequence fast path").
//
// Writers bracket every *publication* (the on_commit → post_commit window,
// the only phase that mutates the shared structure) with
// `publish_begin()` / `publish_end()`.  Unlike a SeqLock there can be
// several concurrent publishers (semantic locks are per-node, so disjoint
// write-sets commit in parallel), so instead of one even/odd word we keep
// two monotone counters:
//
//   begin_  — publications started
//   end_    — publications finished        (begin_ >= end_ always)
//
// A reader that previously full-validated at begin-count B knows the
// structure is untouched iff the begin count is still B: no publication has
// started since, and B was recorded only while the structure was quiescent
// (begin == end) and stable across the full validation.  That single
// acquire load replaces the O(read-set) semantic re-scan.
//
// Memory-model argument: publication stores are release and traversal loads
// acquire; `publish_begin` is an acq_rel RMW sequenced before the first
// publication store.  If a reader's traversal observed any published node,
// the writer's begin bump happens-before the reader's subsequent loads, so
// the reader's next `begin_count()` must observe the bump and the fast path
// correctly misses.  Writers that merely *hold* semantic locks without
// having published yet do not invalidate the fast path — holding a lock
// mutates nothing a past validation depended on yet.  That suffices for a
// reader only: a writer's commit-time validation must treat a read node
// another committer holds as a pending write, or two writers that each
// read what the other writes both commit (OtbDs::enter_locked).
#pragma once

#include <atomic>
#include <cstdint>

#include "common/platform.h"

namespace otb {

class alignas(kCacheLine) CommitSeq {
 public:
  /// Sentinel "no snapshot recorded" value — never equals a live begin
  /// count, so a fresh descriptor always takes the full-validation path.
  static constexpr std::uint64_t kNoSnapshot = ~std::uint64_t{0};

  /// Publications started so far (acquire: pairs with publish_end's release
  /// so a quiescence check that reads end_ then begin_ is conservative).
  std::uint64_t begin_count() const noexcept {
    return begin_.load(std::memory_order_acquire);
  }

  /// Publications finished so far.
  std::uint64_t end_count() const noexcept {
    return end_.load(std::memory_order_acquire);
  }

  /// Called by a committer immediately before its first publication store.
  /// Returns the publication's *commit stamp* — the post-increment begin
  /// count — which doubles as the multi-version timestamp for version
  /// chains (src/otb/mv.h): any snapshot drawn at a quiescent instant T
  /// sees exactly the versions with stamp <= T.
  std::uint64_t publish_begin() noexcept {
    return begin_.fetch_add(1, std::memory_order_acq_rel) + 1;
  }

  /// Called by a committer after its last publication store (and after its
  /// semantic locks are released — the structure is fully at rest again).
  void publish_end() noexcept { end_.fetch_add(1, std::memory_order_release); }

  /// Called by a committer once it holds all its semantic locks: true when
  /// another committer is counted (OtbDs::enter_locked).
  bool enter_locked() noexcept {
    return lockers_.fetch_add(1, std::memory_order_acq_rel) != 0;
  }

  /// Called by a counted committer after its unlock.
  void leave_locked() noexcept { lockers_.fetch_sub(1, std::memory_order_acq_rel); }

 private:
  // Same cache line on purpose: committers write all three, readers read
  // the first two; the class-level alignment keeps unrelated structures
  // off this line.
  std::atomic<std::uint64_t> begin_{0};
  std::atomic<std::uint64_t> end_{0};
  std::atomic<std::uint32_t> lockers_{0};
};

}  // namespace otb
