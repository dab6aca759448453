// Bank ledger on the raw STM API — demonstrates selecting an algorithm at
// runtime (including the server-based RTC and RInval) behind one unchanged
// application, and verifies the conservation invariant.
//   ./build/examples/bank_stm [norec|tml|tl2|ringsw|invalstm|rtc|rinval]
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "stm/stm.h"

using namespace otb;

static stm::AlgoKind parse_algo(const char* s) {
  if (s == nullptr) return stm::AlgoKind::kNOrec;
  const std::pair<const char*, stm::AlgoKind> table[] = {
      {"norec", stm::AlgoKind::kNOrec},     {"tml", stm::AlgoKind::kTML},
      {"tl2", stm::AlgoKind::kTL2},         {"ringsw", stm::AlgoKind::kRingSW},
      {"invalstm", stm::AlgoKind::kInvalSTM}, {"rtc", stm::AlgoKind::kRTC},
      {"rinval", stm::AlgoKind::kRInval},
  };
  for (const auto& [name, kind] : table) {
    if (std::strcmp(s, name) == 0) return kind;
  }
  return stm::AlgoKind::kNOrec;
}

int main(int argc, char** argv) {
  const stm::AlgoKind kind = parse_algo(argc > 1 ? argv[1] : nullptr);
  std::printf("algorithm: %s\n", std::string(stm::to_string(kind)).c_str());

  stm::Runtime rt(kind);
  constexpr std::size_t kAccounts = 64;
  constexpr std::int64_t kInitial = 1000;
  stm::TArray<std::int64_t> balance(kAccounts, kInitial);

  std::vector<std::thread> tellers;
  for (int t = 0; t < 4; ++t) {
    tellers.emplace_back([&, t] {
      stm::TxThread th(rt);
      Xorshift rng{std::uint64_t(t) + 40};
      for (int i = 0; i < 1000; ++i) {
        const std::size_t from = rng.next_bounded(kAccounts);
        const std::size_t to = rng.next_bounded(kAccounts);
        const std::int64_t amount = 1 + std::int64_t(rng.next_bounded(20));
        rt.atomically(th, [&](stm::Tx& tx) {
          tx.write(balance[from], tx.read(balance[from]) - amount);
          tx.write(balance[to], tx.read(balance[to]) + amount);
        });
      }
      std::printf("teller %d: commits=%llu aborts=%llu\n", t,
                  (unsigned long long)th.tx().tally().commits,
                  (unsigned long long)th.tx().tally().aborts);
    });
  }
  for (auto& th : tellers) th.join();

  std::int64_t total = 0;
  for (std::size_t a = 0; a < kAccounts; ++a) total += balance[a].load_direct();
  std::printf("total=%lld (expected %lld) — %s\n", (long long)total,
              (long long)(kAccounts * kInitial),
              total == std::int64_t(kAccounts) * kInitial ? "CONSERVED"
                                                          : "LOST MONEY");
  return total == std::int64_t(kAccounts) * kInitial ? 0 : 1;
}
