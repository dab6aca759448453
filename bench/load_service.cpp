// Load harness for the transactional service plane (src/service).
//
// Two driving disciplines:
//
//   closed-loop (--mode=closed): each client keeps a fixed window of
//     requests outstanding (submit until full, then wait the oldest), so
//     concurrency — not rate — is the controlled variable.  This is the
//     discipline that exposes batch amortisation: with a deep window the
//     workers always find full batches, and the committed-ops/sec ratio of
//     batch_max=16 over batch_max=1 is the subsystem's headline number
//     (EXPERIMENTS.md).
//
//   open-loop (--mode=open): a Poisson arrival process at --rate req/s
//     submits regardless of completions (the "offered load" discipline, no
//     coordinated omission).  Sweeping --rate past saturation shows the
//     admission-control story: committed throughput plateaus, p99 latency
//     of ADMITTED requests stays bounded by queue depth, and the excess is
//     reported as Overloaded (reject-at-admission) or Expired (deadline
//     lapsed in queue) — never silently dropped.
//
// Output: one summary line per run (CSV-ish, stable field order) plus an
// optional --metrics-json dump of every metrics domain (otb.service +
// otb.tx), which CI's service-smoke step validates with metrics_check.
//
// Flags (all optional):
//   --mode=closed|open        default closed
//   --scenario=S              kv|scheduler|session|orderbook (default kv)
//   --script-len=N            steps per kv script            (default 1)
//   --workers=N               service worker threads        (default 4)
//   --clients=N               client threads / connections  (default 2)
//   --shards=S                independent service planes    (default 1)
//   --processes=M             fork M client processes driving the epoll
//                             server over real loopback sockets (v2 wire
//                             protocol); 0 = in-process futures (default 0)
//   --net-threads=N           epoll net threads (net mode)  (default 1)
//   --port=P                  listen port, 0 = ephemeral    (default 0)
//   --window=N                closed-loop in-flight/client  (default 256)
//   --rate=R                  open-loop offered req/s       (default 20000)
//   --duration-ms=D           measured run length           (default 2000)
//   --batch-max=B             requests per transaction      (default 16)
//   --queue-cap=C             per-shard ring capacity       (default 4096)
//   --high-water=H            per-shard admission limit     (default C)
//   --deadline-ms=D           per-request deadline, 0=none  (default 0)
//   --key-range=K             map key universe              (default 256)
//   --read-pct=N              kv get share of the mix       (default 60)
//   --scan-pct=N              kv 16-key range-scan share    (default 0)
//   --seed=S                  arrival/keystream seed        (default 42)
//   --metrics-json=PATH       dump metrics registry on exit
//   --wal-dir=PATH            durable WAL directory, empty=off (default off)
//   --wal-fsync=M             off|group                     (default group)
//   --ckpt-ms=N               checkpoint interval, 0=never  (default 0)
//   --recover                 replay --wal-dir before serving; exits with
//                             the documented recovery code (docs/DURABILITY.md)
//                             if the log or checkpoint is corrupt
//
// The crash-recovery CI job drives the kill/restart cycle: run with
// --wal-dir under load, SIGKILL at a random point, rerun with --recover
// on the same directory, and require the replayed service to serve a
// second measured phase with a clean metrics dump.
//
// --script-len > 1 turns each kv request into an N-step atomic script over
// the same key distribution — the composition-overhead axis charted in
// EXPERIMENTS.md.  --script-len=1 submits the identical single-step request
// the PR 5 harness did, so the baseline closed-loop numbers stay directly
// comparable.  The scenario workloads drive the cross-structure scripts
// from src/service/scenarios.h under load (guard aborts there are benign
// contention outcomes, reported inside ok=).
//
// --processes=M forks a real client fleet BEFORE the service threads start
// (forking after would copy a running process's lock states): each child
// opens its share of --clients loopback connections, drives the v2 wire
// protocol through a nonblocking poll() loop (a blocking client would
// deadlock against server-side backpressure: both ends stuck in send), and
// reports its tally + a mergeable log2×linear latency histogram back over
// a pipe.  Latency is client-observed RTT — encode-to-decode — which is
// the number a network client actually experiences.
//
// --shards=S > 1 runs S independent service planes behind the key-hash
// router (src/service/sharding.h).  Sharded runs are kv-only and require
// --scan-pct=0 (range scans are cross-shard by construction and would just
// measure the router's fail-closed path); multi-step scripts draw their
// 2nd..Nth keys from the first key's shard so every script stays
// single-shard, mirroring how a sharding-aware client would batch.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "benchlib/driver.h"
#include "common/rng.h"
#include "otb/otb_list_map.h"
#include "service/net.h"
#include "service/scenarios.h"
#include "service/service.h"
#include "service/sharding.h"

namespace {

using otb::now_ns;
using otb::service::Request;
using otb::service::ResponseFuture;
using otb::service::Service;
using otb::service::ServiceConfig;
using otb::service::ShardedService;
using otb::service::SvcStatus;
using otb::service::map_erase;
using otb::service::map_get;
using otb::service::map_put;
using otb::service::shard_of_key;

struct Flags {
  std::string mode = "closed";
  std::string scenario = "kv";
  unsigned script_len = 1;
  unsigned workers = 4;
  unsigned clients = 2;
  unsigned shards = 1;
  unsigned processes = 0;  // 0 = in-process futures, >0 = socket fleet
  unsigned net_threads = 1;
  unsigned port = 0;
  unsigned window = 256;
  double rate = 20000;
  unsigned duration_ms = 2000;
  unsigned batch_max = 16;
  std::size_t queue_cap = 4096;
  std::size_t high_water = 0;
  unsigned deadline_ms = 0;
  std::int64_t key_range = 256;
  unsigned read_pct = 60;
  unsigned scan_pct = 0;
  unsigned hot_pct = 0;  // % of key draws confined to the hot set (0 = uniform)
  std::int64_t hot_keys = 16;  // hot-set size: keys [0, hot_keys)
  std::uint64_t seed = 42;
  std::string wal_dir;
  std::string wal_fsync = "group";
  unsigned ckpt_ms = 0;
  bool recover = false;
};

bool parse_flag(const char* arg, const char* name, std::string& out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  out = arg + n + 1;
  return true;
}

Flags parse(int argc, char** argv) {
  Flags f;
  std::string v;
  for (int i = 1; i < argc; ++i) {
    if (parse_flag(argv[i], "--mode", v)) f.mode = v;
    else if (parse_flag(argv[i], "--scenario", v)) f.scenario = v;
    else if (parse_flag(argv[i], "--script-len", v)) f.script_len = std::stoul(v);
    else if (parse_flag(argv[i], "--workers", v)) f.workers = std::stoul(v);
    else if (parse_flag(argv[i], "--clients", v)) f.clients = std::stoul(v);
    else if (parse_flag(argv[i], "--shards", v)) f.shards = std::stoul(v);
    else if (parse_flag(argv[i], "--processes", v)) f.processes = std::stoul(v);
    else if (parse_flag(argv[i], "--net-threads", v)) f.net_threads = std::stoul(v);
    else if (parse_flag(argv[i], "--port", v)) f.port = std::stoul(v);
    else if (parse_flag(argv[i], "--window", v)) f.window = std::stoul(v);
    else if (parse_flag(argv[i], "--rate", v)) f.rate = std::stod(v);
    else if (parse_flag(argv[i], "--duration-ms", v)) f.duration_ms = std::stoul(v);
    else if (parse_flag(argv[i], "--batch-max", v)) f.batch_max = std::stoul(v);
    else if (parse_flag(argv[i], "--queue-cap", v)) f.queue_cap = std::stoul(v);
    else if (parse_flag(argv[i], "--high-water", v)) f.high_water = std::stoul(v);
    else if (parse_flag(argv[i], "--deadline-ms", v)) f.deadline_ms = std::stoul(v);
    else if (parse_flag(argv[i], "--key-range", v)) f.key_range = std::stol(v);
    else if (parse_flag(argv[i], "--read-pct", v)) f.read_pct = std::stoul(v);
    else if (parse_flag(argv[i], "--scan-pct", v)) f.scan_pct = std::stoul(v);
    else if (parse_flag(argv[i], "--hot-pct", v)) f.hot_pct = std::stoul(v);
    else if (parse_flag(argv[i], "--hot-keys", v)) f.hot_keys = std::stol(v);
    else if (parse_flag(argv[i], "--seed", v)) f.seed = std::stoull(v);
    else if (parse_flag(argv[i], "--wal-dir", v)) f.wal_dir = v;
    else if (parse_flag(argv[i], "--wal-fsync", v)) f.wal_fsync = v;
    else if (parse_flag(argv[i], "--ckpt-ms", v)) f.ckpt_ms = std::stoul(v);
    else if (std::strcmp(argv[i], "--recover") == 0) f.recover = true;
    else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      std::exit(2);
    }
  }
  if (f.read_pct + f.scan_pct > 100) {
    std::fprintf(stderr, "--read-pct + --scan-pct must be <= 100\n");
    std::exit(2);
  }
  if (f.hot_pct > 100) {
    std::fprintf(stderr, "--hot-pct must be <= 100\n");
    std::exit(2);
  }
  if (f.hot_keys < 1 || f.hot_keys > f.key_range) {
    std::fprintf(stderr, "--hot-keys must be in [1, --key-range]\n");
    std::exit(2);
  }
  if (f.shards == 0) f.shards = 1;
  if (f.shards > 1 && f.scenario != "kv") {
    std::fprintf(stderr, "--shards > 1 supports --scenario=kv only\n");
    std::exit(2);
  }
  if (f.shards > 1 && f.scan_pct != 0) {
    std::fprintf(stderr,
                 "--scan-pct requires --shards=1 (range scans are "
                 "cross-shard and fail closed at the router)\n");
    std::exit(2);
  }
  if (f.processes != 0 && f.scenario != "kv") {
    std::fprintf(stderr, "--processes supports --scenario=kv only\n");
    std::exit(2);
  }
  if (f.processes > f.clients) f.processes = f.clients;
  return f;
}

/// Request generator: per-client callable producing the next script.
using RequestGen = std::function<Request(otb::Xorshift&)>;

/// One kv step over [0, key_range): --scan-pct 16-key range scans, then
/// --read-pct gets, with the remainder split 3:1 put:erase.  The defaults
/// (scan 0, read 60) reproduce the PR 5 harness's 60/30/10 get/put/erase
/// mix exactly; --read-pct=90 is the read-mostly arm and a high --scan-pct
/// the scan-heavy arm of the multi-version sweeps (EXPERIMENTS.md).
otb::service::Step kv_verb_step(std::uint64_t pick, const Flags& f,
                                std::int64_t key) {
  if (pick < f.scan_pct) return otb::service::map_range(key, key + 15);
  if (pick < f.scan_pct + f.read_pct) return map_get(key);
  const std::uint64_t rest = pick - f.scan_pct - f.read_pct;
  const unsigned writes = 100 - f.scan_pct - f.read_pct;
  if (rest < writes - writes / 4) return map_put(key, key * 3 + 1);
  return map_erase(key);
}

/// One key draw: uniform over [0, key_range) by default; with --hot-pct,
/// that fraction of draws is confined to the hot set [0, hot_keys) — the
/// skewed regime the transaction-fusion contention manager targets (e.g.
/// --hot-pct=90 --hot-keys=16 puts 90% of ops on 16 keys; ISSUE 10).
std::int64_t kv_key(otb::Xorshift& rng, const Flags& f) {
  if (f.hot_pct != 0 && rng.next_bounded(100) < f.hot_pct) {
    return static_cast<std::int64_t>(
        rng.next_bounded(static_cast<std::uint64_t>(f.hot_keys)));
  }
  return static_cast<std::int64_t>(
      rng.next_bounded(static_cast<std::uint64_t>(f.key_range)));
}

otb::service::Step kv_step(otb::Xorshift& rng, const Flags& f) {
  const std::uint64_t pick = rng.next_bounded(100);
  return kv_verb_step(pick, f, kv_key(rng, f));
}

/// The kv workload: --script-len independent steps per atomic script.
Request next_kv_request(otb::Xorshift& rng, const Flags& f) {
  Request req{kv_step(rng, f)};
  for (unsigned i = 1; i < f.script_len; ++i) req.steps.push_back(kv_step(rng, f));
  return req;
}

/// Key pools per shard: pools[s] holds every key of [0, key_range) whose
/// hash owner is shard s.  Deterministic, so server, in-process clients,
/// and forked net clients all agree without coordination.
std::vector<std::vector<std::int64_t>> shard_key_pools(const Flags& f) {
  std::vector<std::vector<std::int64_t>> pools(f.shards);
  for (std::int64_t k = 0; k < f.key_range; ++k) {
    pools[shard_of_key(k, f.shards)].push_back(k);
  }
  return pools;
}

/// Sharded kv script: the first key picks the owner shard, the rest of the
/// script draws from that shard's pool so the script stays single-shard.
Request sharded_kv_request(otb::Xorshift& rng, const Flags& f,
                           const std::vector<std::vector<std::int64_t>>& pools) {
  if (f.shards <= 1) return next_kv_request(rng, f);
  const std::int64_t k0 = kv_key(rng, f);
  const auto& pool = pools[shard_of_key(k0, f.shards)];
  Request req{kv_verb_step(rng.next_bounded(100), f, k0)};
  for (unsigned i = 1; i < f.script_len; ++i) {
    const std::int64_t k =
        pool.empty() ? k0 : pool[rng.next_bounded(pool.size())];
    req.steps.push_back(kv_verb_step(rng.next_bounded(100), f, k));
  }
  return req;
}

/// Everything a workload needs to run: registered targets, a generator,
/// and ownership of whichever structures back them.
struct Workload {
  otb::service::Targets targets;
  RequestGen gen;
  std::function<void()> seed;  // deterministic baseline (recovery re-runs it)
  std::unique_ptr<otb::tx::OtbListMap> map;  // kv only
  std::unique_ptr<otb::service::scenarios::JobScheduler> sched;
  std::unique_ptr<otb::service::scenarios::SessionStore> store;
  std::unique_ptr<otb::service::scenarios::OrderBook> book;
};

Workload make_workload(const Flags& f) {
  Workload w;
  w.seed = [] {};
  const auto range = static_cast<std::uint64_t>(f.key_range);
  if (f.scenario == "kv") {
    w.map = std::make_unique<otb::tx::OtbListMap>();
    auto* map = w.map.get();
    w.seed = [map, &f] {
      for (std::int64_t k = 0; k < f.key_range; k += 2) map->put_seq(k, k);
    };
    w.targets = otb::service::Targets::standard(w.map.get());
    w.gen = [&f](otb::Xorshift& rng) { return next_kv_request(rng, f); };
  } else if (f.scenario == "scheduler") {
    // Claims race releases over a seeded job pool; guard aborts (empty
    // queue, job not leased) are benign contention outcomes.
    w.sched = std::make_unique<otb::service::scenarios::JobScheduler>();
    auto* sched0 = w.sched.get();
    w.seed = [sched0, &f] {
      for (std::int64_t j = 1; j <= f.key_range; ++j) sched0->seed_job(j);
    };
    w.targets = w.sched->targets();
    auto* sched = w.sched.get();
    w.gen = [sched, range](otb::Xorshift& rng) {
      const std::uint64_t pick = rng.next_bounded(100);
      if (pick < 50) {
        return sched->claim(static_cast<std::int64_t>(rng.next_bounded(64)));
      }
      const auto job = static_cast<std::int64_t>(1 + rng.next_bounded(range));
      return sched->release(job);
    };
  } else if (f.scenario == "session") {
    // rank == sid (one expiry bucket): create and expire stay symmetric, so
    // the sessions/TTL bijection holds throughout the run.
    w.store = std::make_unique<otb::service::scenarios::SessionStore>();
    w.targets = w.store->targets();
    auto* store = w.store.get();
    w.gen = [store, range](otb::Xorshift& rng) {
      const std::uint64_t pick = rng.next_bounded(100);
      const auto sid = static_cast<std::int64_t>(rng.next_bounded(range));
      if (pick < 45) return store->create(sid, sid * 7, /*expiry_rank=*/sid);
      if (pick < 90) return store->expire(/*rank=*/sid, sid);
      return store->scan_ttl(sid, sid + 16);
    };
  } else if (f.scenario == "orderbook") {
    // Makers dominate; match attempts use the optimistic expect-guarded
    // script against a guessed top of book, so most abort under drift —
    // exactly the contention profile the scenario exists to measure.
    w.book = std::make_unique<otb::service::scenarios::OrderBook>();
    w.targets = w.book->targets();
    auto* book = w.book.get();
    w.gen = [book, range](otb::Xorshift& rng) {
      const std::uint64_t pick = rng.next_bounded(100);
      const auto price = static_cast<std::int64_t>(100 + rng.next_bounded(range));
      if (pick < 35) return book->place_ask(price, /*qty=*/1);
      if (pick < 70) return book->place_bid(price, /*qty=*/1);
      if (pick < 85) return (pick & 1) ? book->best_ask() : book->best_bid();
      return book->match(price, price);
    };
  } else {
    std::fprintf(stderr, "unknown --scenario: %s\n", f.scenario.c_str());
    std::exit(2);
  }
  if (f.deadline_ms != 0) {
    RequestGen inner = std::move(w.gen);
    w.gen = [inner, &f](otb::Xorshift& rng) {
      Request req = inner(rng);
      req.deadline_ns = now_ns() + std::uint64_t{f.deadline_ms} * 1'000'000ull;
      return req;
    };
  }
  return w;
}

struct Tally {
  std::uint64_t ok = 0, overloaded = 0, expired = 0, failed = 0;
  std::vector<std::uint64_t> latencies_ns;  // kOk requests only

  void account(const ResponseFuture& fut) {
    switch (fut.status()) {
      case SvcStatus::kOk:
        ok += 1;
        latencies_ns.push_back(fut.latency_ns());
        break;
      case SvcStatus::kOverloaded: overloaded += 1; break;
      case SvcStatus::kExpired: expired += 1; break;
      default: failed += 1; break;
    }
  }

  void merge(Tally&& o) {
    ok += o.ok;
    overloaded += o.overloaded;
    expired += o.expired;
    failed += o.failed;
    latencies_ns.insert(latencies_ns.end(), o.latencies_ns.begin(),
                        o.latencies_ns.end());
  }
};

std::uint64_t percentile_ns(std::vector<std::uint64_t>& v, double p) {
  if (v.empty()) return 0;
  const auto idx = static_cast<std::size_t>(
      std::min<double>(double(v.size()) - 1, p * double(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

/// Closed loop: --clients threads, each with --window requests in flight.
/// Templated on the service type so the same driver runs a plain Service
/// or a ShardedService (router in front) with zero indirection.
template <typename Svc>
Tally run_closed(Svc& svc, const Flags& f, const RequestGen& gen) {
  std::atomic<bool> stop{false};
  std::vector<Tally> tallies(f.clients);
  std::vector<std::thread> pool;
  for (unsigned c = 0; c < f.clients; ++c) {
    pool.emplace_back([&, c] {
      otb::Xorshift rng{f.seed * 977 + c + 1};
      Tally& t = tallies[c];
      std::deque<ResponseFuture> window;
      while (!stop.load(std::memory_order_acquire)) {
        while (window.size() < f.window) {
          window.push_back(svc.submit(gen(rng)));
        }
        window.front().wait();
        t.account(window.front());
        window.pop_front();
      }
      for (ResponseFuture& fut : window) {
        fut.wait();
        t.account(fut);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(f.duration_ms));
  stop.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();
  Tally total;
  for (auto& t : tallies) total.merge(std::move(t));
  return total;
}

/// Open loop: Poisson arrivals at --rate across --clients submitter
/// threads (each runs an independent process at rate/clients, which
/// superposes back to a Poisson process at the full rate).
template <typename Svc>
Tally run_open(Svc& svc, const Flags& f, const RequestGen& gen) {
  std::vector<Tally> tallies(f.clients);
  std::vector<std::thread> pool;
  const double per_thread_rate = f.rate / double(f.clients);
  for (unsigned c = 0; c < f.clients; ++c) {
    pool.emplace_back([&, c] {
      otb::Xorshift rng{f.seed * 31 + c + 1};
      Tally& t = tallies[c];
      std::vector<ResponseFuture> inflight;
      const std::uint64_t t_end =
          now_ns() + std::uint64_t{f.duration_ms} * 1'000'000ull;
      double next_arrival = double(now_ns());
      while (true) {
        // Exponential inter-arrival via inverse transform; u in (0,1].
        const double u =
            (double(rng.next_bounded(1u << 30)) + 1.0) / double(1u << 30);
        next_arrival += -std::log(u) / per_thread_rate * 1e9;
        if (next_arrival > double(t_end)) break;
        while (double(now_ns()) < next_arrival) {
          // Sub-ms gaps: yield rather than sleep to keep arrival jitter
          // below the service's batching timescale.
          std::this_thread::yield();
        }
        inflight.push_back(svc.submit(gen(rng)));
        // Opportunistically retire completed heads to bound memory.
        while (!inflight.empty() && inflight.front().done()) {
          t.account(inflight.front());
          inflight.erase(inflight.begin());
        }
      }
      for (ResponseFuture& fut : inflight) {
        fut.wait();
        t.account(fut);
      }
    });
  }
  for (auto& th : pool) th.join();
  Tally total;
  for (auto& t : tallies) total.merge(std::move(t));
  return total;
}

// ---- multi-process socket fleet (--processes) -------------------------------

/// Mergeable latency histogram: log2 exponent × 32 linear sub-buckets
/// (~3% relative resolution).  Children ship it over a pipe as plain
/// bytes, the parent merges and reads percentiles — exact percentiles
/// across processes without shipping every sample.
struct LatHist {
  static constexpr unsigned kExp = 40;  // up to 2^40 ns ≈ 18 min
  static constexpr unsigned kSub = 32;
  std::uint64_t count = 0;
  std::uint64_t buckets[kExp][kSub] = {};

  void add(std::uint64_t ns) {
    count += 1;
    if (ns <= 1) {
      buckets[0][0] += 1;
      return;
    }
    const auto e = 64u - static_cast<unsigned>(__builtin_clzll(ns));  // 2..64
    if (e > kExp) {
      buckets[kExp - 1][kSub - 1] += 1;
      return;
    }
    const std::uint64_t lo = 1ull << (e - 1);
    const auto sub = e >= 7 ? static_cast<unsigned>((ns - lo) >> (e - 6))
                            : static_cast<unsigned>(ns - lo);
    buckets[e - 1][sub] += 1;
  }

  void merge(const LatHist& o) {
    count += o.count;
    for (unsigned e = 0; e < kExp; ++e)
      for (unsigned s = 0; s < kSub; ++s) buckets[e][s] += o.buckets[e][s];
  }

  std::uint64_t percentile(double p) const {
    if (count == 0) return 0;
    const std::uint64_t rank = std::min<std::uint64_t>(
        count - 1, static_cast<std::uint64_t>(p * double(count)));
    std::uint64_t cum = 0;
    for (unsigned e = 0; e < kExp; ++e) {
      for (unsigned s = 0; s < kSub; ++s) {
        cum += buckets[e][s];
        if (cum > rank) {
          if (e == 0) return s;
          const std::uint64_t lo = 1ull << e;
          if (e < 6) return lo + s;
          const std::uint64_t w = lo >> 5;
          return lo + s * w + w / 2;
        }
      }
    }
    return 0;
  }
};

/// What one child process reports back over its pipe (POD, fixed size).
struct NetReport {
  std::uint64_t ok = 0, overloaded = 0, expired = 0, failed = 0;
  std::uint64_t elapsed_ns = 0;
  LatHist hist;
};

void encode_request_v2(std::vector<std::uint8_t>& out, const Request& req,
                       std::uint64_t id, unsigned deadline_ms) {
  namespace wire = otb::service::wire;
  wire::put<std::uint32_t>(
      out, static_cast<std::uint32_t>(otb::service::kNetWireV2HeaderLen +
                                      req.steps.size() *
                                          otb::service::kNetWireStepLen));
  wire::put<std::uint8_t>(out, otb::service::kNetWireV2);
  wire::put<std::uint8_t>(out, static_cast<std::uint8_t>(req.steps.size()));
  wire::put<std::uint32_t>(out, deadline_ms);
  wire::put<std::uint64_t>(out, id);
  for (const otb::service::Step& s : req.steps) {
    wire::put<std::uint8_t>(out, s.structure);
    wire::put<std::uint8_t>(out, static_cast<std::uint8_t>(s.verb));
    wire::put<std::uint8_t>(out, static_cast<std::uint8_t>(
                                     (s.required ? 1u : 0u) |
                                     (s.has_expect ? 2u : 0u)));
    wire::put<std::uint8_t>(out, static_cast<std::uint8_t>(s.key_from));
    wire::put<std::uint8_t>(out, static_cast<std::uint8_t>(s.value_from));
    wire::put<std::int64_t>(out, s.key);
    wire::put<std::int64_t>(out, s.value);
    wire::put<std::int64_t>(out, s.expect);
  }
}

/// One connection of the fleet.  `sent_ns` carries send timestamps in FIFO
/// order — the server guarantees per-connection response order, so RTT
/// matching is a pop from the front.
struct FleetConn {
  int fd = -1;
  std::vector<std::uint8_t> out;
  std::size_t out_off = 0;
  std::vector<std::uint8_t> in;
  std::deque<std::uint64_t> sent_ns;
  double next_arrival = 0;  // open mode
  bool submitting = true;
};

/// Child-process body: drive `nconns` loopback connections through a
/// nonblocking poll() loop for --duration-ms, then drain and report.
/// Sockets must be nonblocking: under server backpressure a blocking
/// client deadlocks (client stuck in send, server not reading).
int net_child(const Flags& f, std::uint16_t port, unsigned proc,
              unsigned nconns, int pipe_fd) {
  const auto pools = shard_key_pools(f);
  otb::Xorshift rng{f.seed * 7919 + proc * 131 + 1};
  std::vector<FleetConn> conns(nconns);
  for (auto& c : conns) {
    c.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (c.fd < 0) return 3;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    // Blocking connect completes out of the listen backlog even before the
    // server's accept loop first runs (the fleet forks pre-start).
    if (::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      return 3;
    }
    int one = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const int fl = ::fcntl(c.fd, F_GETFL);
    ::fcntl(c.fd, F_SETFL, fl | O_NONBLOCK);
  }

  NetReport rep;
  std::uint64_t next_id = 1;
  const bool open = f.mode == "open";
  const double per_conn_rate = f.rate / double(f.clients);
  const std::uint64_t t0 = now_ns();
  const std::uint64_t t_end = t0 + std::uint64_t{f.duration_ms} * 1'000'000ull;
  for (auto& c : conns) c.next_arrival = double(t0);

  const auto submit_one = [&](FleetConn& c) {
    encode_request_v2(c.out, sharded_kv_request(rng, f, pools), next_id++,
                      f.deadline_ms);
    c.sent_ns.push_back(now_ns());
  };
  const auto top_up = [&](FleetConn& c) {
    if (!c.submitting) return;
    const std::uint64_t now = now_ns();
    if (now >= t_end) {
      c.submitting = false;
      return;
    }
    if (open) {
      while (c.next_arrival <= double(now)) {
        submit_one(c);
        const double u =
            (double(rng.next_bounded(1u << 30)) + 1.0) / double(1u << 30);
        c.next_arrival += -std::log(u) / per_conn_rate * 1e9;
        if (c.next_arrival > double(t_end)) {
          c.submitting = false;
          break;
        }
      }
    } else {
      while (c.sent_ns.size() < f.window) submit_one(c);
    }
  };
  const auto flush = [&](FleetConn& c) -> bool {
    while (c.out_off < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                               c.out.size() - c.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      return false;
    }
    if (c.out_off == c.out.size()) {
      c.out.clear();
      c.out_off = 0;
    }
    return true;
  };
  const auto drain_in = [&](FleetConn& c) -> bool {
    std::uint8_t buf[16384];
    for (;;) {
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        c.in.insert(c.in.end(), buf, buf + n);
        continue;
      }
      if (n == 0) return false;  // server closed on us
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
    namespace wire = otb::service::wire;
    std::size_t off = 0;
    while (c.in.size() - off >= 4) {
      const std::uint32_t len = wire::get<std::uint32_t>(c.in.data() + off);
      if (c.in.size() - off < 4 + len) break;
      const std::uint8_t* p = c.in.data() + off + 4;
      if (len < 16 || p[0] != otb::service::kNetWireV2) return false;
      if (!c.sent_ns.empty()) {
        const std::uint64_t rtt = now_ns() - c.sent_ns.front();
        c.sent_ns.pop_front();
        switch (static_cast<SvcStatus>(p[9])) {
          case SvcStatus::kOk:
            rep.ok += 1;
            rep.hist.add(rtt);
            break;
          case SvcStatus::kOverloaded: rep.overloaded += 1; break;
          case SvcStatus::kExpired: rep.expired += 1; break;
          default: rep.failed += 1; break;
        }
      }
      off += 4 + len;
    }
    c.in.erase(c.in.begin(), c.in.begin() + static_cast<std::ptrdiff_t>(off));
    return true;
  };

  std::vector<pollfd> fds;
  for (;;) {
    bool idle = true;
    for (auto& c : conns) {
      if (c.fd < 0) continue;
      top_up(c);
      if (!flush(c)) {
        rep.failed += c.sent_ns.size();  // responses lost with the socket
        ::close(c.fd);
        c.fd = -1;
        continue;
      }
      if (c.submitting || !c.sent_ns.empty() || c.out_off < c.out.size()) {
        idle = false;
      }
    }
    if (idle) break;
    if (now_ns() > t_end + 30'000'000'000ull) break;  // shutdown safety net
    fds.clear();
    for (auto& c : conns) {
      if (c.fd < 0) continue;
      short ev = POLLIN;
      if (c.out_off < c.out.size()) ev |= POLLOUT;
      fds.push_back({c.fd, ev, 0});
    }
    int timeout_ms = 100;
    if (open) {
      // Wake for the earliest pending arrival instead of spinning.
      double next = double(t_end);
      for (const auto& c : conns) {
        if (c.fd >= 0 && c.submitting) next = std::min(next, c.next_arrival);
      }
      const double now = double(now_ns());
      timeout_ms = next <= now
                       ? 0
                       : std::min(100, static_cast<int>((next - now) / 1e6) + 1);
    }
    ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);
    std::size_t i = 0;
    for (auto& c : conns) {
      if (c.fd < 0) continue;
      const short re = fds[i++].revents;
      if ((re & (POLLIN | POLLHUP | POLLERR)) != 0) {
        if (!drain_in(c)) {
          rep.failed += c.sent_ns.size();
          ::close(c.fd);
          c.fd = -1;
          continue;
        }
      }
      if ((re & POLLOUT) != 0) {
        if (!flush(c)) {
          rep.failed += c.sent_ns.size();
          ::close(c.fd);
          c.fd = -1;
        }
      }
    }
  }
  rep.elapsed_ns = now_ns() - t0;
  for (auto& c : conns) {
    if (c.fd >= 0) ::close(c.fd);
  }
  std::size_t put = 0;
  const char* bytes = reinterpret_cast<const char*>(&rep);
  while (put < sizeof(rep)) {
    const ssize_t n = ::write(pipe_fd, bytes + put, sizeof(rep) - put);
    if (n <= 0) return 4;
    put += static_cast<std::size_t>(n);
  }
  return 0;
}

void print_summary(const Flags& f, const ServiceConfig& cfg,
                   const char* transport, std::uint64_t ok,
                   std::uint64_t overloaded, std::uint64_t expired,
                   std::uint64_t failed, double secs, std::uint64_t p50_ns,
                   std::uint64_t p99_ns) {
  const std::uint64_t total = ok + overloaded + expired + failed;
  std::printf(
      "mode=%s scenario=%s script_len=%u workers=%u clients=%u batch_max=%u "
      "rate=%.0f window=%u "
      "deadline_ms=%u duration_s=%.2f requests=%llu ok=%llu overloaded=%llu "
      "expired=%llu failed=%llu ok_per_sec=%.0f p50_us=%.1f p99_us=%.1f "
      "wal=%s shards=%u processes=%u net_threads=%u transport=%s\n",
      f.mode.c_str(), f.scenario.c_str(), f.script_len, f.workers, f.clients,
      f.batch_max, f.rate, f.window, f.deadline_ms, secs,
      static_cast<unsigned long long>(total),
      static_cast<unsigned long long>(ok),
      static_cast<unsigned long long>(overloaded),
      static_cast<unsigned long long>(expired),
      static_cast<unsigned long long>(failed),
      secs > 0 ? double(ok) / secs : 0.0, double(p50_ns) * 1e-3,
      double(p99_ns) * 1e-3,
      f.wal_dir.empty()
          ? "off"
          : std::string(otb::service::to_string(cfg.wal_fsync)).c_str(),
      f.shards, f.processes, f.processes != 0 ? f.net_threads : 0, transport);
}

/// Net mode: bind, fork the fleet, start the service, serve, aggregate.
/// The fork MUST precede svc.start() — forking a process with running
/// threads can copy a held malloc/futex lock into the child.
template <typename Svc>
int run_net(Svc& svc, const Flags& f, const ServiceConfig& cfg) {
  otb::service::NetServerConfig ncfg;
  ncfg.net_threads = f.net_threads;
  otb::service::BasicNetServer<Svc> server(
      svc, static_cast<std::uint16_t>(f.port), ncfg);
  if (!server.listening()) {
    std::fprintf(stderr, "cannot bind 127.0.0.1:%u\n", f.port);
    return 1;
  }
  const std::uint16_t port = server.bound_port();
  const unsigned procs = std::max(1u, f.processes);
  std::vector<pid_t> pids;
  std::vector<int> rfds;
  for (unsigned p = 0; p < procs; ++p) {
    const unsigned nconns =
        f.clients / procs + (p < f.clients % procs ? 1 : 0);
    if (nconns == 0) continue;
    int pfd[2];
    if (::pipe(pfd) != 0) {
      std::perror("pipe");
      return 1;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("fork");
      return 1;
    }
    if (pid == 0) {
      // Drop every inherited descriptor except stdio and the report pipe:
      // the child must not keep the parent's WAL-directory flock (or its
      // listen socket) alive past a SIGKILL of the server — the crash-cycle
      // recover would find the lock still held by the orphaned fleet.
      DIR* fds = ::opendir("/proc/self/fd");
      if (fds != nullptr) {
        const int dfd = ::dirfd(fds);
        std::vector<int> doomed;  // close after the walk: closing mutates
        while (dirent* e = ::readdir(fds)) {  // the very directory iterated
          char* end = nullptr;
          const long fd = std::strtol(e->d_name, &end, 10);
          if (end == e->d_name || *end != '\0') continue;
          if (fd > 2 && fd != pfd[1] && fd != dfd) {
            doomed.push_back(static_cast<int>(fd));
          }
        }
        ::closedir(fds);
        for (const int fd : doomed) ::close(fd);
      }
      ::_exit(net_child(f, port, p, nconns, pfd[1]));
    }
    ::close(pfd[1]);
    pids.push_back(pid);
    rfds.push_back(pfd[0]);
  }
  svc.start();
  std::thread server_thread([&] { server.run(); });
  bool trouble = false;
  for (const pid_t pid : pids) {
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) trouble = true;
  }
  server.request_stop();
  server_thread.join();  // run() drains and stops the service

  NetReport agg;
  for (const int fd : rfds) {
    NetReport r;
    std::size_t got = 0;
    char* bytes = reinterpret_cast<char*>(&r);
    while (got < sizeof(r)) {
      const ssize_t n = ::read(fd, bytes + got, sizeof(r) - got);
      if (n <= 0) break;
      got += static_cast<std::size_t>(n);
    }
    ::close(fd);
    if (got != sizeof(r)) {
      trouble = true;
      continue;
    }
    agg.ok += r.ok;
    agg.overloaded += r.overloaded;
    agg.expired += r.expired;
    agg.failed += r.failed;
    agg.elapsed_ns = std::max(agg.elapsed_ns, r.elapsed_ns);
    agg.hist.merge(r.hist);
  }
  print_summary(f, cfg, "net", agg.ok, agg.overloaded, agg.expired, agg.failed,
                double(agg.elapsed_ns) * 1e-9, agg.hist.percentile(0.50),
                agg.hist.percentile(0.99));
  if (trouble) {
    std::fprintf(stderr, "net fleet: a child process failed\n");
    return 1;
  }
  return agg.ok == 0 ? 1 : 0;
}

/// Drive one configured service (plain or sharded) to completion and print
/// the summary line.  In-process unless --processes says socket fleet.
template <typename Svc>
int drive(Svc& svc, const Flags& f, const RequestGen& gen,
          const ServiceConfig& cfg) {
  if (f.processes != 0) return run_net(svc, f, cfg);
  svc.start();
  const std::uint64_t t0 = now_ns();
  Tally t =
      f.mode == "open" ? run_open(svc, f, gen) : run_closed(svc, f, gen);
  const double secs = double(now_ns() - t0) * 1e-9;
  svc.stop();
  print_summary(f, cfg, "inproc", t.ok, t.overloaded, t.expired, t.failed,
                secs, percentile_ns(t.latencies_ns, 0.50),
                percentile_ns(t.latencies_ns, 0.99));
  return t.ok == 0 ? 1 : 0;  // a load run that commits nothing is broken
}

}  // namespace

namespace {

void print_recovery_line(const otb::service::RecoveryReport& r, int shard) {
  if (shard >= 0) std::printf("recover shard=%d ", shard);
  else std::printf("recover ");
  std::printf(
      "status=%s checkpoint_seq=%llu last_seq=%llu records=%llu "
      "ops=%llu segments=%llu truncated_tail=%d detail=\"%s\"\n",
      std::string(otb::service::to_string(r.status)).c_str(),
      static_cast<unsigned long long>(r.checkpoint_seq),
      static_cast<unsigned long long>(r.last_seq),
      static_cast<unsigned long long>(r.records_replayed),
      static_cast<unsigned long long>(r.ops_replayed),
      static_cast<unsigned long long>(r.segments_scanned),
      r.truncated_tail ? 1 : 0, r.detail.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  otb::bench::install_metrics_json_exporter(argc, argv);
  const Flags f = parse(argc, argv);

  ServiceConfig cfg;
  cfg.workers = f.workers;
  cfg.batch_max = f.batch_max;
  cfg.queue_capacity = f.queue_cap;
  cfg.high_water = f.high_water;
  cfg.wal_dir = f.wal_dir;
  cfg.wal_checkpoint_ms = f.ckpt_ms;
  if (!otb::service::parse_wal_fsync(f.wal_fsync.c_str(), &cfg.wal_fsync)) {
    std::fprintf(stderr, "bad --wal-fsync: %s (off|group)\n",
                 f.wal_fsync.c_str());
    return 2;
  }

  if (f.shards > 1) {
    // Sharded planes: kv only (parse() enforces it) with every script
    // confined to one shard's key pool, so the router never rejects and
    // the run measures plane parallelism, not rejection throughput.
    std::vector<std::unique_ptr<otb::tx::OtbListMap>> maps;
    std::vector<otb::service::Targets> targets;
    for (unsigned s = 0; s < f.shards; ++s) {
      maps.push_back(std::make_unique<otb::tx::OtbListMap>());
      targets.push_back(otb::service::Targets::standard(maps.back().get()));
    }
    const auto pools = shard_key_pools(f);
    const auto seed_shard = [&](std::size_t s) {
      for (std::int64_t k = 0; k < f.key_range; k += 2) {
        if (shard_of_key(k, f.shards) == s) maps[s]->put_seq(k, k);
      }
    };
    ShardedService svc(std::move(targets), cfg);
    if (f.recover) {
      const auto reports = svc.recover(seed_shard);
      for (std::size_t i = 0; i < reports.size(); ++i) {
        print_recovery_line(reports[i], static_cast<int>(i));
      }
      for (const auto& r : reports) {
        if (!r.ok()) return otb::service::recovery_exit_code(r.status);
      }
    } else {
      for (std::size_t s = 0; s < f.shards; ++s) seed_shard(s);
    }
    const RequestGen gen = [&f, &pools](otb::Xorshift& rng) {
      Request req = sharded_kv_request(rng, f, pools);
      if (f.deadline_ms != 0) {
        req.deadline_ns =
            now_ns() + std::uint64_t{f.deadline_ms} * 1'000'000ull;
      }
      return req;
    };
    return drive(svc, f, gen, cfg);
  }

  Workload w = make_workload(f);
  Service svc(w.targets, cfg);
  if (f.recover) {
    // Structures start empty; recovery re-seeds through the same closure
    // the fresh run used, then replays the log tail on top.
    const otb::service::RecoveryReport r = svc.recover(w.seed);
    print_recovery_line(r, -1);
    if (!r.ok()) return otb::service::recovery_exit_code(r.status);
  } else {
    w.seed();
  }
  return drive(svc, f, w.gen, cfg);
}
