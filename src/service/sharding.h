// Key-space sharding: S independent service planes behind
// one submit() front door.
//
// Each shard is a full Service — its own Targets (distinct structure
// instances), its own worker threads and queues, its own WAL directory —
// so shards share no transactional state at all: the partitioning is by
// key hash (`shard_of_key`, the splitmix64 finalizer mod the shard count),
// which scales with the *semantic* conflict granularity the paper argues
// for rather than any memory-level one — two scripts on different shards
// cannot conflict even in principle.
//
// Routing (docs/SERVICE.md "Network server & sharding"): a script routes
// to the shard owning its key set.  That owner exists only when every step
// carries a submit-time-known key hashing to the same shard, so the router
// FAILS CLOSED — completes the request `kFailed` without touching any
// shard — for:
//   * steps whose key is bound at runtime (`key_from` >= 0),
//   * keyless verbs (kPopMin / kMin — the minimum lives wherever it lives),
//   * range scans (kRange spans the whole key space by construction),
//   * scripts whose literal keys hash to different shards.
// Each rejection bumps `svc_cross_shard` in the "otb.service.router"
// domain; it deliberately does NOT touch any shard's svc_* ledger, so the
// per-shard identities (svc_enqueued == batch_size.total + svc_expired,
// svc_read_only == mv_snapshot_reads + mv_version_misses) keep holding per
// shard — and, the identities being linear, in aggregate across shards.
// With a single shard the router steps aside entirely (everything the
// service supports today is single-shard by definition, ranges and pops
// included), so one shard behaves byte-for-byte like a plain
// Service.
//
// Durability layout: with S > 1 each shard appends under
// `<wal_dir>/shard-<i>` (own manifest, segments, checkpoint, single-owner
// flock); recovery is per shard and composes trivially because no commit
// ever spans directories.  With S == 1 the directory layout is exactly the
// unsharded one — existing logs recover unchanged.
//
// Metrics: shard i reports through "otb.service.s<i>" when S > 1 (plain
// "otb.service" when S == 1), the router through "otb.service.router".
// `metrics_check --validate` checks every service domain individually and
// the aggregate sum.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#if defined(__linux__) || defined(__APPLE__)
#include <sys/stat.h>
#endif

#include "common/hash.h"
#include "metrics/registry.h"
#include "service/recovery.h"
#include "service/request.h"
#include "service/service.h"
#include "service/targets.h"

namespace otb::service {

/// Which shard owns a literal key.  Hash, not modulo-of-key: adjacent keys
/// spread across shards, so a contiguous hot range still parallelises.
inline unsigned shard_of_key(std::int64_t key, unsigned shards) {
  if (shards <= 1) return 0;
  return static_cast<unsigned>(mix64(static_cast<std::uint64_t>(key)) %
                               shards);
}

class ShardedService {
 public:
  /// One Targets per shard, each registering DISTINCT structure instances
  /// (shards share nothing).  `base` configures every shard identically
  /// except for the derived wal_dir / metrics domain.  The structure
  /// instances outlive the ShardedService, exactly as with Service.
  ShardedService(std::vector<Targets> shard_targets, ServiceConfig base)
      : router_sink_(&metrics::Registry::global().sink("otb.service.router")) {
    if (shard_targets.empty()) shard_targets.push_back(Targets{});
    const std::size_t n = shard_targets.size();
    if (n > 1 && !base.wal_dir.empty()) {
      // Wal::open_for_append mkdirs one level; the shared base must exist
      // before any shard opens `<base>/shard-<i>`.
      ::mkdir(base.wal_dir.c_str(), 0755);
    }
    shards_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      ServiceConfig cfg = base;
      if (n > 1) {
        if (!cfg.wal_dir.empty()) {
          cfg.wal_dir += "/shard-" + std::to_string(i);
        }
        if (cfg.metrics == nullptr) {
          cfg.metrics = &metrics::Registry::global().sink(
              "otb.service.s" + std::to_string(i));
        }
      }
      shards_.push_back(
          std::make_unique<Service>(shard_targets[i], std::move(cfg)));
    }
  }

  ShardedService(const ShardedService&) = delete;
  ShardedService& operator=(const ShardedService&) = delete;

  /// A net thread's burst over every shard: one Service::Burst, with its
  /// own batch context, per shard.
  class Burst {
   public:
    explicit Burst(ShardedService& svc) {
      shards_.reserve(svc.shards_.size());
      for (auto& s : svc.shards_) {
        shards_.push_back(std::make_unique<Service::Burst>(*s));
      }
    }

   private:
    friend class ShardedService;
    std::vector<std::unique_ptr<Service::Burst>> shards_;
  };

  std::size_t shard_count() const { return shards_.size(); }
  Service& shard(std::size_t i) { return *shards_[i]; }

  /// Owner shard of `req`, or -1 when no single shard owns its key set
  /// (see the fail-closed routing rules above).  Single-shard services
  /// never reject: shard 0 owns everything.
  int route(const Request& req) const {
    if (shards_.size() == 1) return 0;
    if (req.steps.empty()) return 0;  // shard 0 fails it as malformed
    int owner = -1;
    for (const Step& s : req.steps) {
      if (s.key_from >= 0) return -1;  // key bound at runtime: unroutable
      switch (s.verb) {
        case Verb::kPopMin:
        case Verb::kMin:
        case Verb::kRange:
          return -1;  // keyless or key-space-spanning
        default:
          break;
      }
      const int o = static_cast<int>(
          shard_of_key(s.key, static_cast<unsigned>(shards_.size())));
      if (owner == -1) owner = o;
      if (owner != o) return -1;  // literal keys span shards
    }
    return owner;
  }

  /// Submit through the router.  Same contract as Service::submit — always
  /// returns a valid future; unroutable scripts complete kFailed before
  /// returning (and bump svc_cross_shard in "otb.service.router").
  ResponseFuture submit(Request req) {
    const int owner = route(req);
    if (owner < 0) return fail_unroutable(std::move(req));
    return shards_[static_cast<std::size_t>(owner)]->submit(std::move(req));
  }

  /// Service::submit(Request, Burst&) through the router: the script joins
  /// its owner shard's part of the burst.
  ResponseFuture submit(Request req, Burst& burst) {
    const int owner = route(req);
    if (owner < 0) return fail_unroutable(std::move(req));
    const auto o = static_cast<std::size_t>(owner);
    return shards_[o]->submit(std::move(req), *burst.shards_[o]);
  }

  /// Service::run on every shard's part of the burst: one batch per shard
  /// with writes in it (per `batch_max` chunk), each with its own sync.
  void run(Burst& burst) {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      shards_[i]->run(*burst.shards_[i]);
    }
  }

  /// Per-shard recovery, before start() (same rule as Service::recover).
  /// `seed_shard` re-runs the crashed run's deterministic pre-seeding for
  /// one shard (it receives the shard index).  Returns one report per
  /// shard, in shard order.
  std::vector<RecoveryReport> recover(
      const std::function<void(std::size_t)>& seed_shard = {}) {
    std::vector<RecoveryReport> reports;
    reports.reserve(shards_.size());
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      reports.push_back(shards_[i]->recover(
          seed_shard ? std::function<void()>([&, i] { seed_shard(i); })
                     : std::function<void()>{}));
    }
    return reports;
  }

  void start() {
    for (auto& s : shards_) s->start();
  }

  /// Stops every shard (full drain each).  Idempotent, like Service::stop.
  void stop() {
    for (auto& s : shards_) s->stop();
  }

  /// True while every shard accepts — the sharded analogue of
  /// Service::accepting() (shards only disagree transiently during stop()).
  bool accepting() const {
    for (const auto& s : shards_) {
      if (!s->accepting()) return false;
    }
    return true;
  }

 private:
  ResponseFuture fail_unroutable(Request&& req) {
    router_sink_->add(metrics::CounterId::kSvcCrossShard);
    Pending* p = Pending::make();
    p->req = std::move(req);
    p->enqueue_ns = now_ns();
    ResponseFuture fut(p);
    complete(p, SvcStatus::kFailed, p->enqueue_ns);
    return fut;
  }

  std::vector<std::unique_ptr<Service>> shards_;
  metrics::MetricsSink* router_sink_;
};

}  // namespace otb::service
