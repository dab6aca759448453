// Durability walkthrough: write-ahead logging and crash recovery for the
// transactional service plane (docs/DURABILITY.md).
//
// Phase 1 starts a durable service (`ServiceConfig::wal_dir`),
// commits a mixed batch of map writes and priority-queue pushes, takes an
// explicit checkpoint, commits more on top, and stops WITHOUT any clean
// shutdown ceremony beyond stop() — the log and checkpoint on disk are the
// only carriers of state.  Phase 2 builds empty structures, replays the
// directory through Service::recover(), serves new traffic on top, and
// self-checks that the recovered+continued state matches the oracle.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build && ./build/examples/durable_service
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <unistd.h>

#include "otb/otb_heap_pq.h"
#include "otb/otb_list_map.h"
#include "service/recovery.h"
#include "service/service.h"

using otb::service::Request;
using otb::service::Service;
using otb::service::ServiceConfig;
using otb::service::SvcStatus;
using otb::service::Targets;

namespace {

int fail(const char* what) {
  std::fprintf(stderr, "durable_service: FAILED: %s\n", what);
  return 1;
}

/// The pre-seeded baseline is NOT in the log (it predates start()), so the
/// same deterministic closure runs before a fresh start and before replay.
void seed(otb::tx::OtbListMap& map) {
  for (std::int64_t k = 0; k < 4; ++k) map.put_seq(k, k * 100);
}

}  // namespace

int main() {
  char tmpl[] = "/tmp/otb_durable_example_XXXXXX";
  if (::mkdtemp(tmpl) == nullptr) return fail("mkdtemp");
  const std::string wal_dir = tmpl;

  std::map<std::int64_t, std::int64_t> oracle;  // expected final map rows
  for (std::int64_t k = 0; k < 4; ++k) oracle[k] = k * 100;

  // ---- Phase 1: a durable service takes writes, checkpoints, crashes. --
  {
    otb::tx::OtbListMap map;
    otb::tx::OtbHeapPQ heap;
    seed(map);
    ServiceConfig cfg;
    cfg.workers = 2;
    cfg.wal_dir = wal_dir;
    // group = one fsync per drained batch, before any acknowledgement
    cfg.wal_fsync = otb::service::WalFsync::kGroup;
    Service svc(Targets::standard(&map, nullptr, &heap), cfg);
    svc.start();

    for (int i = 0; i < 50; ++i) {
      const std::int64_t k = 10 + i % 8;
      if (svc.submit(Request(otb::service::map_put(k, i))).wait() !=
          SvcStatus::kOk) {
        return fail("phase-1 put");
      }
      oracle[k] = i;
      svc.submit(Request(otb::service::heap_push(1000 + i))).wait();
    }
    // Snapshot + manifest + prefix truncation; recovery will start from
    // this checkpoint and replay only the records logged after it.
    if (!svc.checkpoint_now()) return fail("checkpoint_now");
    for (int i = 0; i < 10; ++i) {
      if (svc.submit(Request(otb::service::map_erase(i % 4))).wait() !=
          SvcStatus::kOk) {
        return fail("phase-1 erase");
      }
      oracle.erase(i % 4);
    }
    svc.stop();
    // The structures die with this scope: disk is all that remains.
  }

  // ---- Phase 2: empty structures + recover() + serve on top. ----------
  otb::tx::OtbListMap map;
  otb::tx::OtbHeapPQ heap;
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.wal_dir = wal_dir;
  Service svc(Targets::standard(&map, nullptr, &heap), cfg);
  const otb::service::RecoveryReport report =
      svc.recover([&map] { seed(map); });
  if (!report.ok()) return fail(report.detail.c_str());
  std::printf(
      "recovered: checkpoint_seq=%llu last_seq=%llu records=%llu ops=%llu\n",
      static_cast<unsigned long long>(report.checkpoint_seq),
      static_cast<unsigned long long>(report.last_seq),
      static_cast<unsigned long long>(report.records_replayed),
      static_cast<unsigned long long>(report.ops_replayed));

  svc.start();  // new commits continue the recovered log
  if (svc.submit(Request(otb::service::map_put(99, 9900))).wait() !=
      SvcStatus::kOk) {
    return fail("phase-2 put");
  }
  oracle[99] = 9900;
  svc.stop();

  std::map<std::int64_t, std::int64_t> got;
  for (const auto& [k, v] : map.snapshot_unsafe()) got[k] = v;
  if (got != oracle) return fail("recovered map diverges from oracle");
  if (heap.snapshot_unsafe().size() != 50) {
    return fail("recovered heap lost pushes");
  }

  std::printf("durable_service: OK — %zu map rows and %zu queued keys "
              "survived the restart\n",
              got.size(), heap.snapshot_unsafe().size());
  std::system(("rm -rf '" + wal_dir + "'").c_str());
  return 0;
}
