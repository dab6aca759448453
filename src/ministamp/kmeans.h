// mini-kmeans: iterative clustering with transactional accumulator updates —
// short transactions, high commit-time ratio (Table 5.1 lists kmeans among
// the most commit-bound STAMP apps).
#pragma once

#include "common/rng.h"
#include "ministamp/app.h"

namespace otb::ministamp {

class KMeansApp final : public App {
 public:
  const char* name() const override { return "kmeans"; }

  AppResult run(stm::Runtime& rt, unsigned threads) const override {
    const unsigned scale = stamp_scale();
    const std::size_t npoints = 1024 * scale;
    constexpr std::size_t kClusters = 8;
    constexpr unsigned kPasses = 3;
    constexpr std::size_t kChunk = 4;

    // Deterministic point cloud.
    std::vector<std::int64_t> px(npoints), py(npoints);
    Xorshift rng{42};
    for (std::size_t i = 0; i < npoints; ++i) {
      px[i] = std::int64_t(rng.next_bounded(1000));
      py[i] = std::int64_t(rng.next_bounded(1000));
    }

    stm::TArray<std::int64_t> cx(kClusters), cy(kClusters);
    stm::TArray<std::int64_t> sum_x(kClusters, 0), sum_y(kClusters, 0),
        count(kClusters, 0);
    for (std::size_t c = 0; c < kClusters; ++c) {
      cx[c].store_direct(std::int64_t(c * 1000 / kClusters));
      cy[c].store_direct(std::int64_t(c * 1000 / kClusters));
    }

    AppResult total;
    const std::uint64_t t0 = now_ns();
    const std::uint64_t chunks = (npoints + kChunk - 1) / kChunk;
    for (unsigned pass = 0; pass < kPasses; ++pass) {
      AppResult phase = run_tasks(rt, threads, chunks, [&](stm::TxThread& th,
                                                           std::uint64_t task) {
        const std::size_t begin = std::size_t(task) * kChunk;
        const std::size_t end = std::min(begin + kChunk, npoints);
        rt.atomically(th, [&](stm::Tx& tx) {
          std::array<std::int64_t, kClusters> lx{}, ly{}, lc{};
          std::array<std::int64_t, kClusters> ccx, ccy;
          for (std::size_t c = 0; c < kClusters; ++c) {
            ccx[c] = tx.read(cx[c]);
            ccy[c] = tx.read(cy[c]);
          }
          for (std::size_t i = begin; i < end; ++i) {
            std::size_t best = 0;
            std::int64_t best_d = -1;
            for (std::size_t c = 0; c < kClusters; ++c) {
              const std::int64_t dx = px[i] - ccx[c];
              const std::int64_t dy = py[i] - ccy[c];
              const std::int64_t d = dx * dx + dy * dy;
              if (best_d < 0 || d < best_d) {
                best_d = d;
                best = c;
              }
            }
            lx[best] += px[i];
            ly[best] += py[i];
            lc[best] += 1;
          }
          for (std::size_t c = 0; c < kClusters; ++c) {
            if (lc[c] == 0) continue;
            tx.write(sum_x[c], tx.read(sum_x[c]) + lx[c]);
            tx.write(sum_y[c], tx.read(sum_y[c]) + ly[c]);
            tx.write(count[c], tx.read(count[c]) + lc[c]);
          }
        });
      });
      total.stats += phase.stats;
      // Single transaction: fold the accumulators into the next centroids.
      stm::TxThread th(rt);
      rt.atomically(th, [&](stm::Tx& tx) {
        for (std::size_t c = 0; c < kClusters; ++c) {
          const std::int64_t n = tx.read(count[c]);
          if (n > 0) {
            tx.write(cx[c], tx.read(sum_x[c]) / n);
            tx.write(cy[c], tx.read(sum_y[c]) / n);
          }
          tx.write(sum_x[c], std::int64_t{0});
          tx.write(sum_y[c], std::int64_t{0});
          tx.write(count[c], std::int64_t{0});
        }
      });
      total.stats += th.tx().tally();
    }
    total.exec_ms = double(now_ns() - t0) * 1e-6;
    std::uint64_t sum = 0;
    for (std::size_t c = 0; c < kClusters; ++c) {
      sum = sum * 31 + std::uint64_t(cx[c].load_direct()) * 7 +
            std::uint64_t(cy[c].load_direct());
    }
    total.checksum = sum;
    return total;
  }
};

}  // namespace otb::ministamp
