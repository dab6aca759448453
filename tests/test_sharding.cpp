// Tier-1 tests of key-space sharding (src/service/sharding.h): hash
// stability and spread, single-shard passthrough, owner-shard landing
// verified against the shards' actual map contents, the fail-closed router
// (cross-shard keys, runtime-bound keys, keyless and range verbs) with its
// svc_cross_shard accounting, the per-shard + aggregate ledger identities,
// and per-shard WAL recovery out of the shard-<i> directory layout.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "metrics/registry.h"
#include "metrics/sink.h"
#include "otb/mv.h"
#include "otb/otb_list_map.h"
#include "service/service.h"
#include "service/sharding.h"

namespace otb {
namespace {

using metrics::CounterId;
using service::Request;
using service::ResponseFuture;
using service::ServiceConfig;
using service::ShardedService;
using service::shard_of_key;
using service::Step;
using service::SvcStatus;
using service::Targets;

using service::map_erase;
using service::map_get;
using service::map_put;
using service::map_range;
using service::sl_pop_min;

/// Fixture owning one map per shard (shards share no structures) and the
/// global-registry snapshots needed to assert counter DELTAS — the global
/// domains accumulate across tests in this binary.
class ShardingTest : public ::testing::Test {
 protected:
  std::vector<Targets> make_targets(unsigned shards) {
    maps_.clear();
    std::vector<Targets> t;
    for (unsigned i = 0; i < shards; ++i) {
      maps_.push_back(std::make_unique<tx::OtbListMap>());
      t.push_back(Targets::standard(maps_.back().get()));
    }
    return t;
  }

  static ServiceConfig config() {
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.batch_max = 4;
    cfg.queue_capacity = 256;
    return cfg;
  }

  static metrics::SinkSnapshot domain(const std::string& name) {
    return metrics::Registry::global().sink(name).snapshot();
  }

  /// Two keys guaranteed to live on different shards (exists for any
  /// shards >= 2 within the first few integers).
  static std::pair<std::int64_t, std::int64_t> cross_pair(unsigned shards) {
    for (std::int64_t a = 0; a < 64; ++a) {
      for (std::int64_t b = a + 1; b < 64; ++b) {
        if (shard_of_key(a, shards) != shard_of_key(b, shards)) return {a, b};
      }
    }
    ADD_FAILURE() << "no cross-shard pair in [0, 64)";
    return {0, 0};
  }

  std::vector<std::unique_ptr<tx::OtbListMap>> maps_;
};

TEST_F(ShardingTest, ShardOfKeyIsStableAndSpreads) {
  for (std::int64_t k = -100; k < 100; ++k) {
    EXPECT_EQ(shard_of_key(k, 8), shard_of_key(k, 8));  // pure function
    EXPECT_EQ(shard_of_key(k, 1), 0u);
    EXPECT_LT(shard_of_key(k, 8), 8u);
  }
  // The splitmix64 finalizer spreads a contiguous key range about evenly:
  // with 8000 keys over 8 shards, each shard gets 1000 ± a wide margin.
  std::vector<int> hits(8, 0);
  for (std::int64_t k = 0; k < 8000; ++k) hits[shard_of_key(k, 8)] += 1;
  for (int h : hits) {
    EXPECT_GT(h, 700);
    EXPECT_LT(h, 1300);
  }
}

TEST_F(ShardingTest, SingleShardPassesEverythingThrough) {
  const auto before = domain("otb.service.router");
  ShardedService svc(make_targets(1), config());
  svc.start();
  // Everything the service supports — ranges and runtime bindings included
  // — is single-shard by definition with one plane.
  EXPECT_EQ(svc.submit(map_put(1, 10)).wait(), SvcStatus::kOk);
  EXPECT_EQ(svc.submit(map_put(2, 20)).wait(), SvcStatus::kOk);
  ResponseFuture range = svc.submit(map_range(0, 10));
  EXPECT_EQ(range.wait(), SvcStatus::kOk);
  EXPECT_EQ(range.range().size(), 2u);
  EXPECT_EQ(
      svc.submit(Request{map_get(1), map_get(2).key_from_step(0)}).wait(),
      SvcStatus::kOk);
  svc.stop();
  const auto after = domain("otb.service.router");
  EXPECT_EQ(after.counter(CounterId::kSvcCrossShard),
            before.counter(CounterId::kSvcCrossShard));
}

TEST_F(ShardingTest, ScriptsLandOnTheOwnerShard) {
  constexpr unsigned kShards = 4;
  ShardedService svc(make_targets(kShards), config());
  svc.start();
  for (std::int64_t k = 0; k < 64; ++k) {
    EXPECT_EQ(svc.submit(map_put(k, k * 3)).wait(), SvcStatus::kOk);
  }
  // Ask each shard DIRECTLY: only the hash owner holds the key.
  for (std::int64_t k = 0; k < 64; ++k) {
    const unsigned owner = shard_of_key(k, kShards);
    for (unsigned s = 0; s < kShards; ++s) {
      ResponseFuture fut = svc.shard(s).submit(map_get(k));
      ASSERT_EQ(fut.wait(), SvcStatus::kOk);
      EXPECT_EQ(fut.ok(), s == owner) << "key " << k << " shard " << s;
      if (s == owner) {
        EXPECT_EQ(fut.value(), k * 3);
      }
    }
  }
  // A multi-step script whose keys share one owner routes there whole.
  std::int64_t a = -1, b = -1;
  for (std::int64_t k = 0; k < 64 && b < 0; ++k) {
    if (shard_of_key(k, kShards) != shard_of_key(0, kShards)) continue;
    if (a < 0) {
      a = k;
    } else if (k != a) {
      b = k;
    }
  }
  ASSERT_GE(b, 0);
  ResponseFuture script = svc.submit(Request{map_get(a), map_get(b)});
  EXPECT_EQ(script.wait(), SvcStatus::kOk);
  EXPECT_TRUE(script.ok());
  svc.stop();
}

TEST_F(ShardingTest, CrossShardScriptsFailClosed) {
  constexpr unsigned kShards = 4;
  const auto router0 = domain("otb.service.router");
  std::vector<metrics::SinkSnapshot> shard0;
  for (unsigned s = 0; s < kShards; ++s) {
    shard0.push_back(domain("otb.service.s" + std::to_string(s)));
  }
  ShardedService svc(make_targets(kShards), config());
  svc.start();
  const auto [a, b] = cross_pair(kShards);

  // Literal keys spanning shards.
  EXPECT_EQ(svc.submit(Request{map_put(a, 1), map_put(b, 2)}).wait(),
            SvcStatus::kFailed);
  // Runtime-bound key: the owner is unknowable at submit time.
  EXPECT_EQ(
      svc.submit(Request{map_get(a), map_get(a).key_from_step(0)}).wait(),
      SvcStatus::kFailed);
  // Range scans span the key space by construction.
  EXPECT_EQ(svc.submit(map_range(0, 100)).wait(), SvcStatus::kFailed);
  // Keyless verbs: the minimum lives wherever it lives.
  EXPECT_EQ(svc.submit(sl_pop_min()).wait(), SvcStatus::kFailed);

  svc.stop();
  const auto router1 = domain("otb.service.router");
  EXPECT_EQ(router1.counter(CounterId::kSvcCrossShard) -
                router0.counter(CounterId::kSvcCrossShard),
            4u);
  // Router rejections never touch a shard's ledger: no shard saw a submit,
  // a failure, or an enqueue from any of the four.
  for (unsigned s = 0; s < kShards; ++s) {
    const auto now = domain("otb.service.s" + std::to_string(s));
    EXPECT_EQ(now.counter(CounterId::kSvcFailed),
              shard0[s].counter(CounterId::kSvcFailed));
    EXPECT_EQ(now.counter(CounterId::kSvcRejected),
              shard0[s].counter(CounterId::kSvcRejected));
    EXPECT_EQ(now.counter(CounterId::kSvcEnqueued),
              shard0[s].counter(CounterId::kSvcEnqueued));
  }
}

TEST_F(ShardingTest, PerShardAndAggregateLedgersHold) {
  constexpr unsigned kShards = 3;
  // The gets below take the snapshot route only with version chains on,
  // and a node's chain is sized when the node is built.
  const unsigned previous_k = tx::mv_versions();
  tx::set_mv_versions(4);
  std::vector<metrics::SinkSnapshot> before;
  for (unsigned s = 0; s < kShards; ++s) {
    before.push_back(domain("otb.service.s" + std::to_string(s)));
  }
  ShardedService svc(make_targets(kShards), config());
  svc.start();
  std::vector<ResponseFuture> futs;
  for (std::int64_t k = 0; k < 200; ++k) {
    futs.push_back(svc.submit(map_put(k, k)));
    futs.push_back(svc.submit(map_get(k)));  // inline read-only route
  }
  for (auto& f : futs) f.wait();
  svc.stop();

  std::uint64_t agg_enq = 0, agg_batch = 0, agg_exp = 0;
  std::uint64_t agg_ro = 0, agg_snap = 0, agg_miss = 0;
  for (unsigned s = 0; s < kShards; ++s) {
    const auto now = domain("otb.service.s" + std::to_string(s));
    const auto d = [&](CounterId id) {
      return now.counter(id) - before[s].counter(id);
    };
    const std::uint64_t batch_total =
        now.batch_size.total - before[s].batch_size.total;
    // Every admitted request lands in exactly one batch or expires.
    EXPECT_EQ(d(CounterId::kSvcEnqueued),
              batch_total + d(CounterId::kSvcExpired))
        << "shard " << s;
    // Every read-only request resolves via snapshot or falls back.
    EXPECT_EQ(d(CounterId::kSvcReadOnly),
              d(CounterId::kMvSnapshotReads) + d(CounterId::kMvVersionMisses))
        << "shard " << s;
    EXPECT_GT(d(CounterId::kSvcEnqueued), 0u) << "shard " << s;
    agg_enq += d(CounterId::kSvcEnqueued);
    agg_batch += batch_total;
    agg_exp += d(CounterId::kSvcExpired);
    agg_ro += d(CounterId::kSvcReadOnly);
    agg_snap += d(CounterId::kMvSnapshotReads);
    agg_miss += d(CounterId::kMvVersionMisses);
  }
  // The identities are linear, so the per-shard sums satisfy them too —
  // this is what metrics_check --validate asserts for the aggregate.
  EXPECT_EQ(agg_enq, agg_batch + agg_exp);
  EXPECT_EQ(agg_ro, agg_snap + agg_miss);
  EXPECT_EQ(agg_enq, 200u);  // every put routed somewhere, none rejected
  EXPECT_EQ(agg_ro, 200u);
  tx::set_mv_versions(previous_k);
}

TEST_F(ShardingTest, RecoversEachShardFromItsOwnWalDirectory) {
  constexpr unsigned kShards = 3;
  char tmpl[] = "/tmp/otb_shard_wal_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  ServiceConfig cfg = config();
  cfg.wal_dir = dir;

  {
    ShardedService svc(make_targets(kShards), cfg);
    svc.start();
    for (std::int64_t k = 0; k < 30; ++k) {
      ASSERT_EQ(svc.submit(map_put(k, k * 7)).wait(), SvcStatus::kOk);
    }
    svc.stop();
  }
  for (unsigned s = 0; s < kShards; ++s) {
    struct stat st{};
    EXPECT_EQ(::stat((dir + "/shard-" + std::to_string(s)).c_str(), &st), 0)
        << "missing per-shard WAL dir " << s;
  }

  // Fresh structures, same directories: replay restores each shard.
  ShardedService svc(make_targets(kShards), cfg);
  const auto reports = svc.recover();
  ASSERT_EQ(reports.size(), static_cast<std::size_t>(kShards));
  for (const auto& r : reports) EXPECT_TRUE(r.ok()) << r.detail;
  svc.start();
  for (std::int64_t k = 0; k < 30; ++k) {
    ResponseFuture fut = svc.submit(map_get(k));
    ASSERT_EQ(fut.wait(), SvcStatus::kOk);
    EXPECT_TRUE(fut.ok()) << "key " << k;
    EXPECT_EQ(fut.value(), k * 7);
  }
  svc.stop();

  const std::string cmd = "rm -rf '" + dir + "'";
  ASSERT_EQ(std::system(cmd.c_str()), 0);
}

}  // namespace
}  // namespace otb
