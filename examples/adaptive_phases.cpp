// Phase-changing workload on the adaptive runtime (§5.4.1): the program
// alternates between a traversal-dominated phase (long read chains, tiny
// write-sets — NOrec territory) and a commit-bound phase (small
// transactions, fat write-sets — RTC territory), and lets the runtime's
// policy re-select the algorithm between phases.
#include <cstdio>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "stm/adaptive.h"

using namespace otb;

int main() {
  stm::AdaptiveRuntime rt(stm::AlgoKind::kNOrec);
  stm::TArray<std::int64_t> chain(256, 1);   // traversal phase data
  stm::TArray<std::int64_t> counters(64, 0);  // commit-bound phase data

  for (int phase = 0; phase < 4; ++phase) {
    const bool traversal = (phase % 2 == 0);
    std::vector<std::thread> workers;
    std::atomic<std::uint64_t> reads{0}, writes{0}, commits{0};
    for (int w = 0; w < 3; ++w) {
      workers.emplace_back([&, w] {
        stm::AdaptiveThread th(rt);
        Xorshift rng{std::uint64_t(phase * 10 + w)};
        for (int i = 0; i < 300; ++i) {
          if (traversal) {
            rt.atomically(th, [&](stm::Tx& tx) {
              std::int64_t sum = 0;
              for (std::size_t c = 0; c < chain.size(); ++c) {
                sum += tx.read(chain[c]);
              }
              tx.write(chain[rng.next_bounded(chain.size())], sum % 5 + 1);
            });
          } else {
            rt.atomically(th, [&](stm::Tx& tx) {
              for (int k = 0; k < 12; ++k) {
                auto& c = counters[rng.next_bounded(counters.size())];
                tx.write(c, tx.read(c) + 1);
              }
            });
          }
        }
        reads += th.tally().reads;
        writes += th.tally().writes;
        commits += th.tally().commits;
      });
    }
    for (auto& t : workers) t.join();
    metrics::TxTally observed{};
    observed.commits = commits;
    observed.reads = reads;
    observed.writes = writes;
    const bool switched = rt.maybe_adapt(observed);
    std::printf(
        "phase %d (%s): avg reads/tx=%.1f writes/tx=%.1f -> running %s%s\n",
        phase, traversal ? "traversal " : "commit-bound",
        double(reads) / double(commits), double(writes) / double(commits),
        std::string(stm::to_string(rt.kind())).c_str(),
        switched ? "  [switched]" : "");
  }
  return 0;
}
