// Tests for the adaptive stop-the-world runtime: mid-run algorithm
// switches must preserve every invariant, thread handles must survive
// switches, and the §5.4.1 policy must pick NOrec for traversal-dominated
// shapes and RTC for commit-bound shapes.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "stm/adaptive.h"

namespace otb::stm {
namespace {

TEST(Adaptive, PolicyMatchesPaperHeuristic) {
  AdaptiveRuntime rt(AlgoKind::kNOrec);
  // Linked-list shape: hundreds of reads, ~2 writes -> NOrec (§5.4.1).
  EXPECT_EQ(rt.recommend(250.0, 2.0), AlgoKind::kNOrec);
  // Read-only shape -> NOrec.
  EXPECT_EQ(rt.recommend(50.0, 0.0), AlgoKind::kNOrec);
  // Commit-bound shape (ssca2-like): few reads, many writes -> RTC.
  EXPECT_EQ(rt.recommend(16.0, 24.0), AlgoKind::kRTC);
}

TEST(Adaptive, ManualSwitchPreservesCounter) {
  AdaptiveRuntime rt(AlgoKind::kNOrec);
  TVar<std::int64_t> counter{0};
  constexpr int kThreads = 4, kIters = 400;
  std::atomic<bool> stop_switching{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      AdaptiveThread th(rt);
      for (int i = 0; i < kIters; ++i) {
        rt.atomically(th, [&](Tx& tx) { tx.write(counter, tx.read(counter) + 1); });
      }
    });
  }
  // Cycle through algorithms (including the server-based ones) while the
  // workers hammer the counter.
  std::thread switcher([&] {
    const AlgoKind cycle[] = {AlgoKind::kTL2, AlgoKind::kRTC, AlgoKind::kNOrec,
                              AlgoKind::kRInval, AlgoKind::kTinySTM};
    unsigned i = 0;
    while (!stop_switching.load()) {
      rt.switch_to(cycle[i++ % 5]);
      std::this_thread::yield();
    }
  });
  for (auto& th : threads) th.join();
  stop_switching = true;
  switcher.join();
  EXPECT_EQ(counter.load_direct(), std::int64_t(kThreads) * kIters);
}

TEST(Adaptive, SwitchToSameKindIsNoOp) {
  AdaptiveRuntime rt(AlgoKind::kTL2);
  rt.switch_to(AlgoKind::kTL2);
  EXPECT_EQ(rt.kind(), AlgoKind::kTL2);
}

TEST(Adaptive, MaybeAdaptSwitchesOnObservedShape) {
  AdaptiveRuntime rt(AlgoKind::kRTC);
  AdaptiveThread th(rt);
  TArray<std::int64_t> chain(64, 1);
  // Traversal-heavy, write-light transactions.
  for (int i = 0; i < 20; ++i) {
    rt.atomically(th, [&](Tx& tx) {
      std::int64_t sum = 0;
      for (std::size_t w = 0; w < 64; ++w) sum += tx.read(chain[w]);
      tx.write(chain[0], sum % 7 + 1);
    });
  }
  EXPECT_TRUE(rt.maybe_adapt(th.tally()));
  EXPECT_EQ(rt.kind(), AlgoKind::kNOrec);
  // Adapting again with the same shape is a no-op.
  EXPECT_FALSE(rt.maybe_adapt(th.tally()));
}

TEST(Adaptive, StatsAccumulateAcrossGenerations) {
  AdaptiveRuntime rt(AlgoKind::kNOrec);
  AdaptiveThread th(rt);
  TVar<std::int64_t> x{0};
  for (int i = 0; i < 10; ++i) {
    rt.atomically(th, [&](Tx& tx) { tx.write(x, tx.read(x) + 1); });
  }
  rt.switch_to(AlgoKind::kTL2);
  for (int i = 0; i < 10; ++i) {
    rt.atomically(th, [&](Tx& tx) { tx.write(x, tx.read(x) + 1); });
  }
  EXPECT_EQ(th.tally().commits, 20u);
  EXPECT_EQ(x.load_direct(), 20);
}

TEST(Adaptive, BankInvariantAcrossSwitches) {
  AdaptiveRuntime rt(AlgoKind::kNOrec);
  constexpr std::size_t kAccounts = 16;
  TArray<std::int64_t> balance(kAccounts, 100);
  constexpr int kThreads = 3, kIters = 300;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      AdaptiveThread th(rt);
      Xorshift rng{std::uint64_t(t) + 9};
      for (int i = 0; i < kIters; ++i) {
        const auto from = rng.next_bounded(kAccounts);
        const auto to = rng.next_bounded(kAccounts);
        rt.atomically(th, [&](Tx& tx) {
          tx.write(balance[from], tx.read(balance[from]) - 3);
          tx.write(balance[to], tx.read(balance[to]) + 3);
        });
        if (i % 50 == 25) rt.maybe_adapt(th.tally());
      }
    });
  }
  for (auto& th : threads) th.join();
  std::int64_t total = 0;
  for (std::size_t a = 0; a < kAccounts; ++a) total += balance[a].load_direct();
  EXPECT_EQ(total, std::int64_t(kAccounts) * 100);
}

}  // namespace
}  // namespace otb::stm
