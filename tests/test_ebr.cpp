// Tier-1 test of the EBR announcement (src/common/epoch.h): a collect() on
// another thread between enter()'s load of the global epoch and its
// announcement must not leave the entering thread announcing a stale
// epoch, or the traversal-hint cache's age gate (otb/traversal_hints.h)
// admits an entry whose node may already be freed.
//
// The interleaving is forced through epoch.h's test hook, which must be
// defined before the header is first included; this binary is the only
// one that defines it.
#include <cstdint>
#include <functional>
#include <thread>
#include <utility>

namespace otb_test {
void before_announce();
}  // namespace otb_test
#define OTB_EBR_BEFORE_ANNOUNCE() ::otb_test::before_announce()

#include <gtest/gtest.h>

#include "common/epoch.h"
#include "otb/traversal_hints.h"

namespace otb_test {
namespace {
// Runs once, at the next enter() of the thread that armed it.
thread_local std::function<void()> armed;
}  // namespace

void before_announce() {
  if (armed) std::exchange(armed, nullptr)();
}
}  // namespace otb_test

namespace otb {
namespace {

std::uint64_t global_epoch() {
  return ebr::detail::Global::instance().epoch.load();
}

/// A collect() on a thread of its own, started and joined at once.
void collect_elsewhere() {
  std::thread([] { ebr::collect(); }).join();
}

TEST(EbrAnnounce, EnterAnnouncesAnEpochACollectRaisedMeanwhile) {
  otb_test::armed = collect_elsewhere;
  ebr::Guard g;
  EXPECT_FALSE(otb_test::armed);  // the hook ran inside enter()
  EXPECT_EQ(ebr::announced_epoch(), global_epoch());
}

TEST(EbrAnnounce, HintStoredTwoEpochsBackMissesAfterARacedEnter) {
  using tx::PredCache;
  constexpr std::uint64_t kOwner = 0x5eed;  // no real structure has this id
  int node = 0;                             // never dereferenced
  PredCache::clear_this_thread();
  std::uint64_t stored_at = 0;
  {
    ebr::Guard g;
    stored_at = ebr::announced_epoch();
    PredCache::store(kOwner, /*key=*/10, &node);
    ASSERT_NE(PredCache::lookup(kOwner, 11), nullptr);
  }
  ebr::collect();  // one epoch on, the entry is still young enough
  {
    ebr::Guard g;
    ASSERT_EQ(ebr::announced_epoch(), stored_at + 1);
    EXPECT_NE(PredCache::lookup(kOwner, 11), nullptr);
  }
  // This enter loads stored_at + 1; the hook's collect then raises the
  // epoch to stored_at + 2 while this thread's slot still reads idle, so
  // that collect may free a node retired at stored_at.  The entry is two
  // epochs old and must miss.
  otb_test::armed = collect_elsewhere;
  ebr::Guard g;
  EXPECT_EQ(global_epoch(), stored_at + 2);
  EXPECT_EQ(ebr::announced_epoch(), stored_at + 2);
  EXPECT_EQ(PredCache::lookup(kOwner, 11), nullptr);
}

}  // namespace
}  // namespace otb
