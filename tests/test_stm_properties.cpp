// Property-based STM tests, parameterized over every algorithm:
//   * single-threaded random programs must be bit-equivalent to a plain
//     sequential interpreter;
//   * concurrent random programs must be *serializable*: a global invariant
//     function of the state is preserved by construction of the ops;
//   * user-thrown aborts at random points must leave no trace (lazy algos);
//   * snapshot consistency: a reader never observes a mix of two commits.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "stm/stm.h"

namespace otb::stm {
namespace {

class StmPropertyTest : public ::testing::TestWithParam<AlgoKind> {};

INSTANTIATE_TEST_SUITE_P(AllAlgos, StmPropertyTest,
                         ::testing::Values(AlgoKind::kNOrec, AlgoKind::kTML,
                                           AlgoKind::kTL2, AlgoKind::kRingSW,
                                           AlgoKind::kInvalSTM, AlgoKind::kRTC,
                                           AlgoKind::kRInval, AlgoKind::kCGL,
                                           AlgoKind::kTinySTM),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST_P(StmPropertyTest, RandomProgramsMatchSequentialInterpreter) {
  Runtime rt(GetParam());
  constexpr std::size_t kWords = 24;
  TArray<std::int64_t> mem(kWords, 0);
  std::vector<std::int64_t> model(kWords, 0);
  TxThread th(rt);
  Xorshift rng{GetParam() == AlgoKind::kTML ? 11u : 13u};
  for (int round = 0; round < 300; ++round) {
    // Random straight-line program: mixture of copies, sums, constants.
    struct Step {
      unsigned op, a, b, c;
      std::int64_t imm;
    };
    std::vector<Step> prog;
    const unsigned len = 1 + rng.next_bounded(6);
    for (unsigned i = 0; i < len; ++i) {
      prog.push_back({unsigned(rng.next_bounded(3)),
                      unsigned(rng.next_bounded(kWords)),
                      unsigned(rng.next_bounded(kWords)),
                      unsigned(rng.next_bounded(kWords)),
                      std::int64_t(rng.next_bounded(100))});
    }
    rt.atomically(th, [&](Tx& tx) {
      for (const Step& s : prog) {
        switch (s.op) {
          case 0:
            tx.write(mem[s.a], s.imm);
            break;
          case 1:
            tx.write(mem[s.a], tx.read(mem[s.b]));
            break;
          default:
            tx.write(mem[s.a], tx.read(mem[s.b]) + tx.read(mem[s.c]));
            break;
        }
      }
    });
    for (const Step& s : prog) {
      switch (s.op) {
        case 0:
          model[s.a] = s.imm;
          break;
        case 1:
          model[s.a] = model[s.b];
          break;
        default:
          model[s.a] = model[s.b] + model[s.c];
          break;
      }
    }
    for (std::size_t w = 0; w < kWords; ++w) {
      ASSERT_EQ(mem[w].load_direct(), model[w]) << "round " << round;
    }
  }
}

TEST_P(StmPropertyTest, UserAbortLeavesNoTrace) {
  if (GetParam() == AlgoKind::kTML || GetParam() == AlgoKind::kCGL) {
    GTEST_SKIP() << "irrevocable writers by design";
  }
  Runtime rt(GetParam());
  TArray<std::int64_t> mem(8, 7);
  TxThread th(rt);
  Xorshift rng{3};
  for (int round = 0; round < 200; ++round) {
    int attempts = 0;
    rt.atomically(th, [&](Tx& tx) {
      Xorshift inner = rng;
      for (int w = 0; w < 4; ++w) {
        const auto slot = inner.next_bounded(8);
        tx.write(mem[slot], tx.read(mem[slot]) + 1000);
      }
      if (++attempts == 1) throw TxAbort{};  // first attempt always aborts
      // Second attempt: undo the +1000s so the quiescent state is stable.
      Xorshift redo = rng;
      for (int w = 0; w < 4; ++w) {
        const auto slot = redo.next_bounded(8);
        tx.write(mem[slot], tx.read(mem[slot]) - 1000);
      }
    });
    rng.next();
    for (std::size_t i = 0; i < 8; ++i) {
      ASSERT_EQ(mem[i].load_direct(), 7) << "round " << round;
    }
  }
}

TEST_P(StmPropertyTest, ReadersNeverObserveHalfACommit) {
  Runtime rt(GetParam());
  constexpr std::size_t kWords = 16;
  TArray<std::int64_t> mem(kWords, 0);
  std::atomic<bool> stop{false};
  // Writer publishes generation g to every word in one transaction.
  std::thread writer([&] {
    TxThread th(rt);
    for (std::int64_t g = 1; g <= 250; ++g) {
      rt.atomically(th, [&](Tx& tx) {
        for (std::size_t w = 0; w < kWords; ++w) tx.write(mem[w], g);
      });
    }
    stop = true;
  });
  std::thread reader([&] {
    TxThread th(rt);
    while (!stop.load()) {
      std::int64_t first = -1;
      bool uniform = true;
      rt.atomically(th, [&](Tx& tx) {
        first = tx.read(mem[0]);
        uniform = true;
        for (std::size_t w = 1; w < kWords; ++w) {
          if (tx.read(mem[w]) != first) uniform = false;
        }
      });
      EXPECT_TRUE(uniform) << "torn snapshot at generation " << first;
    }
  });
  writer.join();
  reader.join();
}

// A write-back long enough for readers to begin in the middle of it: a
// reader that starts there must still see the first and the last word of
// one generation.  (A RingSW transaction that starts from the ring index,
// which a commit bumps before its write-back, reads around it unvalidated.)
TEST_P(StmPropertyTest, ReadersNeverObserveHalfALargeCommit) {
  Runtime rt(GetParam());
  constexpr std::size_t kWords = 4096;
  TArray<std::int64_t> mem(kWords, 0);
  std::atomic<bool> reading{false}, stop{false};
  std::thread writer([&] {
    TxThread th(rt);
    while (!reading.load()) std::this_thread::yield();
    for (std::int64_t g = 1; g <= 200; ++g) {
      rt.atomically(th, [&](Tx& tx) {
        for (std::size_t w = 0; w < kWords; ++w) tx.write(mem[w], g);
      });
    }
    stop = true;
  });
  std::uint64_t torn = 0;
  std::thread reader([&] {
    TxThread th(rt);
    reading = true;
    while (!stop.load()) {
      std::int64_t first = 0, last = 0;
      rt.atomically(th, [&](Tx& tx) {
        first = tx.read(mem[0]);
        last = tx.read(mem[kWords - 1]);
      });
      if (first != last) ++torn;
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(torn, 0u);
}

TEST_P(StmPropertyTest, ConcurrentRandomTransfersPreserveInvariant) {
  Runtime rt(GetParam());
  constexpr std::size_t kWords = 12;
  constexpr std::int64_t kEach = 50;
  TArray<std::int64_t> mem(kWords, kEach);
  constexpr int kThreads = 3, kIters = 250;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      TxThread th(rt);
      Xorshift rng{std::uint64_t(t) * 7 + 1};
      for (int i = 0; i < kIters; ++i) {
        // Rotate a random amount around a random 3-cycle: sum invariant.
        const auto a = rng.next_bounded(kWords);
        const auto b = rng.next_bounded(kWords);
        const auto c = rng.next_bounded(kWords);
        const auto amt = std::int64_t(rng.next_bounded(5));
        rt.atomically(th, [&](Tx& tx) {
          tx.write(mem[a], tx.read(mem[a]) - amt);
          tx.write(mem[b], tx.read(mem[b]) + amt);
          tx.write(mem[b], tx.read(mem[b]) - amt / 2);
          tx.write(mem[c], tx.read(mem[c]) + amt / 2);
        });
      }
    });
  }
  for (auto& th : threads) th.join();
  std::int64_t total = 0;
  for (std::size_t w = 0; w < kWords; ++w) total += mem[w].load_direct();
  EXPECT_EQ(total, std::int64_t(kWords) * kEach);
}

TEST_P(StmPropertyTest, WriteSetOverwritesInsideOneTransaction) {
  Runtime rt(GetParam());
  TVar<std::int64_t> x{0};
  TxThread th(rt);
  rt.atomically(th, [&](Tx& tx) {
    for (std::int64_t i = 1; i <= 50; ++i) tx.write(x, i);
    EXPECT_EQ(tx.read(x), 50);
  });
  EXPECT_EQ(x.load_direct(), 50);
}

}  // namespace
}  // namespace otb::stm
