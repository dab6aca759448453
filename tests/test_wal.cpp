// Tier-1 tests of the durability layer (service/wal.h + recovery.h):
// record encode/decode round-trips, torn-tail truncation vs mid-log
// corruption (fail closed), checkpoint + manifest compaction, the one
// stream's stamp order and its one fsync per group sync, and
// recover-then-serve equivalence — a recovered service is
// indistinguishable from one that never crashed.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "metrics/sink.h"
#include "otb/mv.h"
#include "otb/otb_heap_pq.h"
#include "otb/otb_list_map.h"
#include "otb/otb_list_set.h"
#include "otb/otb_skiplist_pq.h"
#include "service/recovery.h"
#include "service/service.h"
#include "service/wal.h"

namespace otb {
namespace {

using metrics::CounterId;
using service::CheckpointSlot;
using service::RecoveryReport;
using service::RecoveryStatus;
using service::Request;
using service::Service;
using service::ServiceConfig;
using service::Targets;
using service::Verb;
using service::Wal;
using service::WalFsync;
using service::WalOp;
using service::WalOptions;
using service::WalRecord;
using service::WalScan;

using service::heap_pop_min;
using service::heap_push;
using service::map_contains;
using service::map_erase;
using service::map_get;
using service::map_put;
using service::map_range;
using service::set_add;
using service::set_contains;
using service::set_remove;
using service::sl_pop_min;
using service::sl_push;

/// Fresh temp directory per test; removed with its contents on teardown.
class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/otb_wal_test_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }

  void TearDown() override {
    const std::string cmd = "rm -rf '" + dir_ + "'";
    ASSERT_EQ(std::system(cmd.c_str()), 0);
  }

  std::string read_file(const std::string& name) {
    std::string out;
    EXPECT_TRUE(service::recovery_detail::read_file(dir_ + "/" + name, &out));
    return out;
  }

  void write_file(const std::string& name, const std::string& data) {
    std::FILE* f = std::fopen((dir_ + "/" + name).c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), f), data.size());
    std::fclose(f);
  }

  bool exists(const std::string& name) {
    struct stat st{};
    return ::stat((dir_ + "/" + name).c_str(), &st) == 0;
  }

  std::string dir_;
};

std::vector<WalOp> sample_ops() {
  return {WalOp{0, Verb::kPut, 7, 70}, WalOp{1, Verb::kAdd, 8, 0},
          WalOp{2, Verb::kPush, 9, 0}, WalOp{0, Verb::kErase, -3, 0},
          WalOp{3, Verb::kPopMin, 5, 0}};
}

TEST_F(WalTest, EncodeDecodeRoundTrip) {
  std::string buf;
  const std::vector<WalOp> ops = sample_ops();
  service::encode_record(42, ops.data(), ops.size(), &buf);
  service::encode_record(43, ops.data(), 1, &buf);
  service::encode_record(44, nullptr, 0, &buf);  // read-only record is legal

  const WalScan scan = service::scan_wal_buffer(buf);
  EXPECT_TRUE(scan.clean);
  EXPECT_EQ(scan.tail_offset, buf.size());
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.records[0].seq, 42u);
  EXPECT_EQ(scan.records[0].ops, ops);
  EXPECT_EQ(scan.records[1].seq, 43u);
  ASSERT_EQ(scan.records[1].ops.size(), 1u);
  EXPECT_EQ(scan.records[1].ops[0], ops[0]);
  EXPECT_TRUE(scan.records[2].ops.empty());
}

std::string from_hex(std::string_view hex) {
  std::string out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

TEST_F(WalTest, GoldenRecordPinsTheOnDiskFormat) {
  // sample_ops() at seq 0x0102030405060708, framed as written by a
  // little-endian host; the CRC field was computed with zlib.crc32.  Any
  // change to the layout or the checksum breaks every existing log.
  const std::string golden = from_hex(
      "66000000" "e940942a"                        // payload_len, crc32
      "0807060504030201" "05000000"                // seq, n_ops
      "00" "01" "0700000000000000" "4600000000000000"  // slot verb key value
      "01" "05" "0800000000000000" "0000000000000000"
      "02" "07" "0900000000000000" "0000000000000000"
      "00" "02" "fdffffffffffffff" "0000000000000000"
      "03" "08" "0500000000000000" "0000000000000000");
  ASSERT_EQ(golden.size(), service::kWalFrameBytes + 102);

  const std::vector<WalOp> ops = sample_ops();
  std::string buf;
  service::encode_record(0x0102030405060708ull, ops.data(), ops.size(), &buf);
  EXPECT_EQ(buf, golden);

  WalRecord rec;
  EXPECT_EQ(service::wal_detail::decode_at(golden, 0, &rec), golden.size());
  EXPECT_EQ(rec.seq, 0x0102030405060708ull);
  EXPECT_EQ(rec.ops, ops);
}

TEST_F(WalTest, ScanEmptyBufferIsClean) {
  const WalScan scan = service::scan_wal_buffer("");
  EXPECT_TRUE(scan.clean);
  EXPECT_TRUE(scan.records.empty());
}

TEST_F(WalTest, TornTailStopsAtLastValidBoundary) {
  std::string buf;
  const std::vector<WalOp> ops = sample_ops();
  service::encode_record(1, ops.data(), ops.size(), &buf);
  const std::size_t boundary = buf.size();
  service::encode_record(2, ops.data(), ops.size(), &buf);
  buf.resize(boundary + 11);  // record 2 torn mid-frame

  const WalScan scan = service::scan_wal_buffer(buf);
  EXPECT_FALSE(scan.clean);
  EXPECT_FALSE(scan.valid_after_damage);
  EXPECT_EQ(scan.tail_offset, boundary);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].seq, 1u);
}

TEST_F(WalTest, BitFlipIsDamageAndLaterValidRecordIsDetected) {
  std::string buf;
  const std::vector<WalOp> ops = sample_ops();
  service::encode_record(1, ops.data(), ops.size(), &buf);
  const std::size_t boundary = buf.size();
  service::encode_record(2, ops.data(), ops.size(), &buf);
  buf[boundary / 2] ^= 0x40;  // flip a bit inside record 1's payload

  const WalScan scan = service::scan_wal_buffer(buf);
  EXPECT_FALSE(scan.clean);
  EXPECT_TRUE(scan.valid_after_damage);  // record 2 still parses => corrupt
  EXPECT_EQ(scan.tail_offset, 0u);
  EXPECT_TRUE(scan.records.empty());
}

TEST_F(WalTest, AppendReadBackWithCountersAndRotation) {
  metrics::MetricsSink sink;
  Wal wal(WalOptions{dir_, WalFsync::kGroup, &sink});
  std::string err;
  ASSERT_TRUE(wal.open_for_append(&err)) << err;
  const std::vector<WalOp> ops = sample_ops();
  // Each append draws the clock's next stamp.
  EXPECT_EQ(wal.append(ops.data(), ops.size()), 1u);
  EXPECT_EQ(wal.append(ops.data(), 2), 2u);
  ASSERT_TRUE(wal.rotate(&err)) << err;
  EXPECT_EQ(wal.current_segment(), 1u);
  EXPECT_EQ(wal.append(ops.data(), 1), 3u);
  EXPECT_EQ(wal.clock().load(), 3u);
  wal.close();

  const WalScan s0 =
      service::scan_wal_buffer(read_file(service::wal_segment_name(0)));
  const WalScan s1 =
      service::scan_wal_buffer(read_file(service::wal_segment_name(1)));
  ASSERT_TRUE(s0.clean && s1.clean);
  ASSERT_EQ(s0.records.size(), 2u);
  EXPECT_EQ(s0.records[0].seq, 1u);
  EXPECT_EQ(s0.records[0].ops, ops);
  EXPECT_EQ(s0.records[1].seq, 2u);
  ASSERT_EQ(s1.records.size(), 1u);
  EXPECT_EQ(s1.records[0].seq, 3u);

  const auto snap = sink.snapshot();
  EXPECT_EQ(snap.counter(CounterId::kWalAppends), 3u);
  // Rotation and close each flush the dirty log once.
  EXPECT_EQ(snap.counter(CounterId::kWalFsyncs), 2u);
  EXPECT_GT(snap.counter(CounterId::kWalBytes), 0u);
  EXPECT_EQ(snap.phase(metrics::Phase::kWalFsync).count,
            snap.counter(CounterId::kWalFsyncs));
}

/// Lower this process's RLIMIT_NOFILE to the smallest limit that leaves
/// exactly `n` descriptors free below it, so the (n+1)-th open fails with
/// EMFILE.  As root, permission changes cannot make an open fail.  Death-
/// test children only: the limit is never restored.
void leave_free_descriptors(int n) {
  int limit = 0;
  for (int fd = 0, seen_free = 0; seen_free <= n; ++fd) {
    if (::fcntl(fd, F_GETFD) == -1) ++seen_free;
    limit = fd;
  }
  struct rlimit rl{};
  ::getrlimit(RLIMIT_NOFILE, &rl);
  rl.rlim_cur = static_cast<rlim_t>(limit);
  ::setrlimit(RLIMIT_NOFILE, &rl);
}

TEST_F(WalTest, FailedDirectorySyncStopsTheAppendPath) {
  // A rotation makes a new segment; if its directory entry cannot be made
  // durable, acknowledging records in it would break acknowledged =>
  // durable, so the process stops as on a failed write or fsync.  The
  // child leaves one descriptor free: rotate opens the new segment in it
  // before it syncs the directory, so the directory open fails.
  EXPECT_DEATH(
      {
        Wal wal(WalOptions{dir_, WalFsync::kGroup, nullptr});
        std::string err;
        if (wal.open_for_append(&err)) {
          leave_free_descriptors(1);
          wal.rotate(&err);
        }
      },
      "directory sync failed.*Too many open files");
  // With no descriptor free the new segment cannot open: the rotation
  // fails, and appends go on in the current segment.
  EXPECT_EXIT(
      {
        Wal wal(WalOptions{dir_ + "/full", WalFsync::kGroup, nullptr});
        std::string err;
        if (!wal.open_for_append(&err)) std::_Exit(2);
        leave_free_descriptors(0);
        const bool rotated = wal.rotate(&err);
        const std::vector<WalOp> ops = sample_ops();
        wal.append(ops.data(), ops.size());
        wal.sync();
        std::fprintf(stderr, "%s\n", err.c_str());
        std::_Exit(rotated || wal.current_segment() != 0 ? 1 : 0);
      },
      ::testing::ExitedWithCode(0),
      "open .*wal-00000001.log.*Too many open files");
  // Opening for append reports the same failure instead of dying: two
  // descriptors free are the lock and the one segment, not the directory.
  EXPECT_EXIT(
      {
        Wal wal(WalOptions{dir_ + "/fresh", WalFsync::kGroup, nullptr});
        leave_free_descriptors(2);
        std::string err;
        const bool opened = wal.open_for_append(&err);
        std::fprintf(stderr, "%s\n", err.c_str());
        std::_Exit(opened ? 1 : 0);
      },
      ::testing::ExitedWithCode(0), "sync directory .*Too many open files");
}

TEST_F(WalTest, RecoverNoStateOnMissingOrEmptyDir) {
  tx::OtbListMap map;
  Targets t = Targets::standard(&map);
  RecoveryReport r = service::recover_into(dir_ + "/nonexistent", t);
  EXPECT_EQ(r.status, RecoveryStatus::kNoState);
  r = service::recover_into(dir_, t);
  EXPECT_EQ(r.status, RecoveryStatus::kNoState);
  EXPECT_TRUE(r.ok());
}

/// Drive a deterministic script mix through a durable service, stop it,
/// and return the WAL dir's contents for recovery tests.
struct DurableRun {
  std::vector<std::pair<std::int64_t, std::int64_t>> map_state;
  std::vector<std::int64_t> set_state, heap_state, slpq_state;
  std::uint64_t clock = 0;
};

DurableRun run_durable_workload(const std::string& dir, WalFsync mode,
                                metrics::MetricsSink* sink,
                                bool checkpoint_midway = false) {
  tx::OtbListMap map;
  tx::OtbListSet set;
  tx::OtbHeapPQ heap;
  tx::OtbSkipListPQ slpq;
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.batch_max = 4;
  cfg.metrics = sink;
  cfg.wal_dir = dir;
  cfg.wal_fsync = mode;
  Service svc(Targets::standard(&map, &set, &heap, &slpq), cfg);
  svc.start();
  std::vector<service::ResponseFuture> futs;
  for (int i = 0; i < 40; ++i) {
    futs.push_back(svc.submit(Request(map_put(i % 16, i * 10))));
    futs.push_back(svc.submit(Request(set_add(i % 8))));
    futs.push_back(svc.submit(Request(heap_push(100 - i))));
    futs.push_back(svc.submit(Request(sl_push(200 + i))));
    if (i % 5 == 0) futs.push_back(svc.submit(Request(map_erase(i % 16))));
    if (checkpoint_midway && i == 20) {
      for (auto& f : futs) f.wait();
      EXPECT_TRUE(svc.checkpoint_now());
    }
  }
  for (auto& f : futs) EXPECT_EQ(f.wait(), service::SvcStatus::kOk);
  DurableRun out;
  out.clock = svc.wal()->clock().load();
  svc.stop();
  out.map_state = map.snapshot_unsafe();
  out.set_state = set.snapshot_unsafe();
  out.heap_state = heap.snapshot_unsafe();
  std::sort(out.heap_state.begin(), out.heap_state.end());
  out.slpq_state = slpq.snapshot_unsafe();
  return out;
}

void expect_recovered_equal(const DurableRun& ran, const Targets& t) {
  EXPECT_EQ(service::Targets(t).map(0)->snapshot_unsafe(), ran.map_state);
  EXPECT_EQ(service::Targets(t).set(1)->snapshot_unsafe(), ran.set_state);
  auto heap = service::Targets(t).heap_pq(2)->snapshot_unsafe();
  std::sort(heap.begin(), heap.end());
  EXPECT_EQ(heap, ran.heap_state);
  EXPECT_EQ(service::Targets(t).sl_pq(3)->snapshot_unsafe(), ran.slpq_state);
}

/// A map, set, heap PQ and skip-list PQ in the standard slot layout (the
/// map is built first, so a transaction pre-commits it first).
struct Structures {
  tx::OtbListMap map;
  tx::OtbListSet set;
  tx::OtbHeapPQ heap;
  tx::OtbSkipListPQ slpq;

  Targets targets() { return Targets::standard(&map, &set, &heap, &slpq); }
};

TEST_F(WalTest, RecoverReplaysLogIntoEmptyStructures) {
  metrics::MetricsSink sink;
  const DurableRun ran = run_durable_workload(dir_, WalFsync::kGroup, &sink);
  EXPECT_GT(sink.snapshot().counter(CounterId::kWalAppends), 0u);

  tx::OtbListMap map;
  tx::OtbListSet set;
  tx::OtbHeapPQ heap;
  tx::OtbSkipListPQ slpq;
  Targets t = Targets::standard(&map, &set, &heap, &slpq);
  const RecoveryReport r = service::recover_into(dir_, t);
  ASSERT_EQ(r.status, RecoveryStatus::kOk) << r.detail;
  EXPECT_EQ(r.last_seq, ran.clock);
  EXPECT_GT(r.records_replayed, 0u);
  EXPECT_EQ(r.checkpoint_seq, 0u);  // no checkpoint ran
  expect_recovered_equal(ran, t);
}

TEST_F(WalTest, RecoverTruncatesTornTailAndContinues) {
  metrics::MetricsSink sink;
  const DurableRun ran = run_durable_workload(dir_, WalFsync::kGroup, &sink);
  // Tear the end of the one segment: append half a record.
  std::string torn;
  const std::vector<WalOp> ops = sample_ops();
  service::encode_record(9999, ops.data(), ops.size(), &torn);
  torn.resize(torn.size() / 2);
  const std::string seg0 = service::wal_segment_name(0);
  write_file(seg0, read_file(seg0) + torn);

  tx::OtbListMap map;
  tx::OtbListSet set;
  tx::OtbHeapPQ heap;
  tx::OtbSkipListPQ slpq;
  Targets t = Targets::standard(&map, &set, &heap, &slpq);
  const RecoveryReport r = service::recover_into(dir_, t);
  ASSERT_EQ(r.status, RecoveryStatus::kOk) << r.detail;
  EXPECT_TRUE(r.truncated_tail);
  expect_recovered_equal(ran, t);
  // The torn bytes are physically gone: a second recovery is clean.
  tx::OtbListMap map2;
  tx::OtbListSet set2;
  tx::OtbHeapPQ heap2;
  tx::OtbSkipListPQ slpq2;
  Targets t2 = Targets::standard(&map2, &set2, &heap2, &slpq2);
  const RecoveryReport r2 = service::recover_into(dir_, t2);
  ASSERT_EQ(r2.status, RecoveryStatus::kOk) << r2.detail;
  EXPECT_FALSE(r2.truncated_tail);
}

TEST_F(WalTest, RecoverFailsClosedOnMidLogBitFlip) {
  metrics::MetricsSink sink;
  run_durable_workload(dir_, WalFsync::kGroup, &sink);
  const std::string seg0 = service::wal_segment_name(0);
  std::string bytes = read_file(seg0);
  ASSERT_GT(bytes.size(), 64u);
  bytes[20] ^= 0x01;  // damage the first record; later records stay valid
  write_file(seg0, bytes);

  tx::OtbListMap map;
  tx::OtbListSet set;
  tx::OtbHeapPQ heap;
  tx::OtbSkipListPQ slpq;
  Targets t = Targets::standard(&map, &set, &heap, &slpq);
  const RecoveryReport r = service::recover_into(dir_, t);
  EXPECT_EQ(r.status, RecoveryStatus::kCorruptLog);
}

TEST_F(WalTest, RecoverFailsClosedOnDuplicateStamp) {
  // Two same-stamp records in the one stream, in one segment and across a
  // segment boundary, and a stamp below its predecessor's.
  const std::vector<WalOp> op{WalOp{0, Verb::kPut, 1, 1}};
  const auto records = [&](std::initializer_list<std::uint64_t> seqs) {
    std::string buf;
    for (std::uint64_t seq : seqs) {
      service::encode_record(seq, op.data(), 1, &buf);
    }
    return buf;
  };
  struct Case {
    const char* name;
    std::vector<std::string> segments;
    const char* detail;
  };
  const std::vector<Case> cases = {
      {"one_segment", {records({1, 2, 2})}, "duplicate commit stamp 2"},
      {"across_segments", {records({1}), records({1})},
       "duplicate commit stamp 1"},
      {"disorder", {records({1, 3}), records({2})},
       "out-of-order commit stamp 2"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ASSERT_EQ(::mkdir((dir_ + "/" + c.name).c_str(), 0777), 0);
    for (std::size_t i = 0; i < c.segments.size(); ++i) {
      write_file(std::string(c.name) + "/" + service::wal_segment_name(i),
                 c.segments[i]);
    }
    tx::OtbListMap map;
    Targets t = Targets::standard(&map);
    const RecoveryReport r = service::recover_into(dir_ + "/" + c.name, t);
    EXPECT_EQ(r.status, RecoveryStatus::kCorruptLog);
    EXPECT_NE(r.detail.find(c.detail), std::string::npos) << r.detail;
    EXPECT_EQ(r.records_replayed, 0u);  // the scan fails before any replay
  }
}

TEST_F(WalTest, RecoverFailsClosedOnThePerWorkerLayout) {
  // Older versions wrote one log per worker, "wal-<shard>-<segment>.log".
  // Recovery cannot place such a file in the one stream; skipping it would
  // drop its records and report a short replay, or none.
  metrics::MetricsSink sink;
  run_durable_workload(dir_, WalFsync::kGroup, &sink);
  const std::string old_name = "wal-0000-00000001.log";
  write_file(old_name, read_file(service::wal_segment_name(0)));
  ASSERT_EQ(::unlink((dir_ + "/" + service::wal_segment_name(0)).c_str()), 0);
  EXPECT_TRUE(Wal::dir_has_state(dir_));  // start() refuses without recover()

  Structures s;
  const RecoveryReport r = service::recover_into(dir_, s.targets());
  EXPECT_EQ(r.status, RecoveryStatus::kCorruptLog);
  EXPECT_EQ(service::recovery_exit_code(r.status), 3);
  EXPECT_NE(r.detail.find(old_name), std::string::npos) << r.detail;
  EXPECT_EQ(r.records_replayed, 0u);

  // Even an empty one is state: a service must not start appending beside
  // it without recovering, and recovery fails on it beside a healthy
  // segment.
  ASSERT_EQ(::mkdir((dir_ + "/empty").c_str(), 0777), 0);
  write_file("empty/" + old_name, "");
  EXPECT_TRUE(Wal::dir_has_state(dir_ + "/empty"));
  EXPECT_DEATH(
      {
        tx::OtbListMap map;
        ServiceConfig cfg;
        cfg.wal_dir = dir_ + "/empty";
        Service svc(Targets::standard(&map), cfg);
        svc.start();
      },
      "holds state; call recover\\(\\) before start\\(\\)");
  run_durable_workload(dir_ + "/beside", WalFsync::kGroup, &sink);
  write_file("beside/" + old_name, "");
  Structures s2;
  EXPECT_EQ(service::recover_into(dir_ + "/beside", s2.targets()).status,
            RecoveryStatus::kCorruptLog);
}

/// Pin OTB_MV_VERSIONS for one test, restoring the previous value even
/// when an assertion returns early.
struct MvVersionsPin {
  unsigned previous = tx::mv_versions();
  explicit MvVersionsPin(unsigned k) { tx::set_mv_versions(k); }
  ~MvVersionsPin() { tx::set_mv_versions(previous); }
};

TEST_F(WalTest, LogHoldsExactlyTheStepsThatTookEffect) {
  // Every (kind, mutation verb) pair once where it takes effect and once
  // where it does not, plus every read verb.  One worker, one request per
  // batch, each waited on: the log's op sequence is deterministic.  With
  // one request per batch, a map or set write-set is exactly the steps that
  // took effect.
  const MvVersionsPin pin(0);  // reads take the batch path too
  tx::OtbListMap map;
  tx::OtbListSet set;
  tx::OtbHeapPQ heap;
  tx::OtbSkipListPQ slpq;
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.batch_max = 1;
  cfg.wal_dir = dir_;
  Service svc(Targets::standard(&map, &set, &heap, &slpq), cfg);
  svc.start();
  const std::vector<Request> script = {
      Request(map_put(1, 10)),
      Request(map_put(1, 11)),  // over a present key: still logged
      Request(map_erase(1)),
      Request(map_erase(1)),  // absent
      Request(map_put(2, 20)),
      Request(set_add(5)),
      Request(set_add(5)),  // duplicate
      Request(set_remove(5)),
      Request(set_remove(5)),  // absent
      Request(set_add(6)),
      Request(heap_pop_min()),  // empty
      Request(heap_push(7)),
      Request(heap_push(7)),  // duplicate: the heap keeps both
      Request(heap_pop_min()),
      Request(sl_pop_min()),  // empty
      Request(sl_push(9)),
      Request(sl_push(9)),  // duplicate
      Request(sl_push(3)),
      // pop_min logs the key it popped; the put logs its bound key.
      Request(sl_pop_min()).then(map_put(0, 1).key_from_step(0)),
      Request(map_get(2)),
      Request(map_contains(2)),
      Request(map_range(0, 9)),
      Request(set_contains(6)),
      Request(service::pq_min(2)),
      Request(service::pq_min(3)),
  };
  for (const Request& r : script) {
    EXPECT_EQ(svc.submit(r).wait(), service::SvcStatus::kOk);
  }
  svc.stop();

  const std::vector<WalOp> want = {
      WalOp{0, Verb::kPut, 1, 10},   WalOp{0, Verb::kPut, 1, 11},
      WalOp{0, Verb::kErase, 1, 0},  WalOp{0, Verb::kPut, 2, 20},
      WalOp{1, Verb::kAdd, 5, 0},    WalOp{1, Verb::kRemove, 5, 0},
      WalOp{1, Verb::kAdd, 6, 0},    WalOp{2, Verb::kPush, 7, 0},
      WalOp{2, Verb::kPush, 7, 0},   WalOp{2, Verb::kPopMin, 7, 0},
      WalOp{3, Verb::kPush, 9, 0},   WalOp{3, Verb::kPush, 3, 0},
      WalOp{3, Verb::kPopMin, 3, 0}, WalOp{0, Verb::kPut, 3, 1},
  };
  const WalScan scan =
      service::scan_wal_buffer(read_file(service::wal_segment_name(0)));
  ASSERT_TRUE(scan.clean);
  std::vector<WalOp> got;
  for (const WalRecord& rec : scan.records) {
    EXPECT_FALSE(rec.ops.empty());  // nothing to log => no record
    got.insert(got.end(), rec.ops.begin(), rec.ops.end());
  }
  EXPECT_EQ(got, want);

  tx::OtbListMap map2;
  tx::OtbListSet set2;
  tx::OtbHeapPQ heap2;
  tx::OtbSkipListPQ slpq2;
  const RecoveryReport r = service::recover_into(
      dir_, Targets::standard(&map2, &set2, &heap2, &slpq2));
  ASSERT_EQ(r.status, RecoveryStatus::kOk) << r.detail;
  EXPECT_EQ(r.ops_replayed, want.size());
  using Pairs = std::vector<std::pair<std::int64_t, std::int64_t>>;
  EXPECT_EQ(map.snapshot_unsafe(), (Pairs{{2, 20}, {3, 1}}));
  EXPECT_EQ(map2.snapshot_unsafe(), map.snapshot_unsafe());
  EXPECT_EQ(set2.snapshot_unsafe(), set.snapshot_unsafe());
  EXPECT_EQ(heap2.snapshot_unsafe(), heap.snapshot_unsafe());
  EXPECT_EQ(slpq2.snapshot_unsafe(), slpq.snapshot_unsafe());
  EXPECT_EQ(slpq.snapshot_unsafe(), std::vector<std::int64_t>{9});
}

/// How a replayed heap must match the live one: its array layout, or only
/// its contents where aborted attempts rolled the live heap back (the undo
/// re-adds keys, which reorders the array but keeps the multiset).
enum class HeapMatch : std::uint8_t { kLayout, kContents };

/// Recover `dir` into fresh structures: require `want_status`, `want_ops`
/// replayed ops, and structures equal to `live`.
void expect_replay_equals(const std::string& dir, Structures& live,
                          RecoveryStatus want_status, std::size_t want_ops,
                          HeapMatch heap = HeapMatch::kLayout) {
  Structures replayed;
  const RecoveryReport r = service::recover_into(dir, replayed.targets());
  ASSERT_EQ(r.status, want_status) << r.detail;
  EXPECT_EQ(r.ops_replayed, want_ops);
  EXPECT_EQ(replayed.map.snapshot_unsafe(), live.map.snapshot_unsafe());
  EXPECT_EQ(replayed.set.snapshot_unsafe(), live.set.snapshot_unsafe());
  auto heap_r = replayed.heap.snapshot_unsafe();
  auto heap_l = live.heap.snapshot_unsafe();
  if (heap == HeapMatch::kContents) {
    std::sort(heap_r.begin(), heap_r.end());
    std::sort(heap_l.begin(), heap_l.end());
  }
  EXPECT_EQ(heap_r, heap_l);
  EXPECT_EQ(replayed.slpq.snapshot_unsafe(), live.slpq.snapshot_unsafe());
}

TEST_F(WalTest, LogHoldsTheCommittedWriteSet) {
  // Batches of several requests, queued before start() so the one worker
  // runs each case as ONE transaction: its record is the transaction's PQ
  // steps in step order, then its map and set write-sets, net of local
  // elimination.  Requests are key-sorted by their first step (stably),
  // and a structure's write-set is logged in descending key order.
  struct BatchCase {
    const char* name;
    std::vector<Request> batch;
    std::vector<WalOp> want;  // empty: no record at all
  };
  const std::vector<BatchCase> cases = {
      {"repeated_puts_log_the_final_value",
       {Request{map_put(1, 10), map_put(1, 11)}, Request(map_put(1, 12))},
       {WalOp{0, Verb::kPut, 1, 12}}},
      {"put_then_erase_of_an_absent_key_logs_nothing",
       {Request(map_put(4, 40)), Request(map_erase(4))},
       {}},
      {"set_add_remove_pair_logs_nothing",
       {Request(set_add(5)), Request(set_remove(5))},
       {}},
      // On {1, 5}: pop 1, pop 5, push 1 nets to "remove 5", which a
      // replayed pop_min could not express.  Steps keep their order.
      {"pq_steps_keep_their_order",
       {Request{sl_push(1), sl_push(5), sl_pop_min(), sl_pop_min(),
                sl_push(1)},
        Request{heap_push(7), heap_pop_min(), heap_push(2)}},
       {WalOp{3, Verb::kPush, 1, 0}, WalOp{3, Verb::kPush, 5, 0},
        WalOp{3, Verb::kPopMin, 1, 0}, WalOp{3, Verb::kPopMin, 5, 0},
        WalOp{3, Verb::kPush, 1, 0}, WalOp{2, Verb::kPush, 7, 0},
        WalOp{2, Verb::kPopMin, 7, 0}, WalOp{2, Verb::kPush, 2, 0}}},
      {"pq_steps_then_write_sets",
       {Request{sl_push(3), map_put(8, 80), sl_pop_min(), map_put(9, 90),
                set_add(2), map_erase(8)},
        Request(map_put(9, 91))},
       {WalOp{3, Verb::kPush, 3, 0}, WalOp{3, Verb::kPopMin, 3, 0},
        WalOp{0, Verb::kPut, 9, 91}, WalOp{1, Verb::kAdd, 2, 0}}},
  };
  for (const BatchCase& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string sub = dir_ + "/" + c.name;
    Structures batch_live;
    ServiceConfig bcfg;
    bcfg.workers = 1;
    bcfg.batch_max = 64;
    bcfg.wal_dir = sub;
    {
      Service bsvc(batch_live.targets(), bcfg);
      std::vector<service::ResponseFuture> futs;
      for (const Request& r : c.batch) futs.push_back(bsvc.submit(r));
      bsvc.start();
      for (auto& f : futs) EXPECT_EQ(f.wait(), service::SvcStatus::kOk);
      bsvc.stop();
    }
    const WalScan bscan = service::scan_wal_buffer(read_file(
        std::string(c.name) + "/" + service::wal_segment_name(0)));
    ASSERT_TRUE(bscan.clean);
    ASSERT_EQ(bscan.records.size(), c.want.empty() ? 0u : 1u);
    if (!c.want.empty()) {
      EXPECT_EQ(bscan.records[0].ops, c.want);
    }
    // A log without records is no state: the replayed structures stay empty.
    expect_replay_equals(
        sub, batch_live,
        c.want.empty() ? RecoveryStatus::kNoState : RecoveryStatus::kOk,
        c.want.size());
  }
}

TEST_F(WalTest, RecoveredStateEqualsLiveUnderRandomMixedScripts) {
  // Random scripts over all four kinds, with bindings and guards, from two
  // client threads on a two-worker durable service: batches coalesce,
  // conflict, eliminate writes and re-run guard victims solo.  Whatever
  // committed, replaying the log must rebuild exactly the live state.
  Structures live;
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.batch_max = 8;
  cfg.wal_dir = dir_;
  Service svc(live.targets(), cfg);
  svc.start();
  auto step = [](Xorshift& rng) {
    const auto k = static_cast<std::int64_t>(rng.next_bounded(12));
    switch (rng.next_bounded(11)) {
      case 0: return map_put(k, static_cast<std::int64_t>(rng.next_bounded(100)));
      case 1: return map_erase(k);
      case 2: return map_get(k);
      case 3: return map_range(k, k + 5);
      case 4: return set_add(k);
      case 5: return set_remove(k);
      case 6: return set_contains(k);
      case 7: return heap_push(k);
      case 8: return heap_pop_min();
      case 9: return sl_push(k);
      default: return sl_pop_min();
    }
  };
  auto client = [&](std::uint64_t seed) {
    Xorshift rng{seed};
    std::vector<service::ResponseFuture> window(8);
    for (unsigned i = 0; i < 600 + window.size(); ++i) {
      service::ResponseFuture& slot = window[i % window.size()];
      if (slot.valid()) {
        EXPECT_EQ(slot.wait(), service::SvcStatus::kOk);
      }
      if (i >= 600) {
        slot = service::ResponseFuture{};
        continue;
      }
      Request r;
      const unsigned len = 1 + static_cast<unsigned>(rng.next_bounded(4));
      for (unsigned j = 0; j < len; ++j) {
        service::Step s = step(rng);
        if (j > 0 && rng.chance_pct(25)) {
          // Bind the key to an earlier step's result (a popped key, a
          // value read), as the scenario scripts do.
          s.key_from_step(static_cast<std::int8_t>(rng.next_bounded(j)));
        }
        if (rng.chance_pct(10)) s.require();
        if (s.verb == Verb::kGet && rng.chance_pct(20)) {
          s.expecting(static_cast<std::int64_t>(rng.next_bounded(100)));
        }
        r.then(s);
      }
      slot = svc.submit(std::move(r));
    }
  };
  std::thread a(client, 11);
  std::thread b(client, 12);
  a.join();
  b.join();
  svc.stop();
  // Every logged op replays.  Checkpoints are off, so both workers wrote
  // the one segment.
  std::size_t logged = 0;
  const WalScan scan =
      service::scan_wal_buffer(read_file(service::wal_segment_name(0)));
  ASSERT_TRUE(scan.clean);
  for (const WalRecord& rec : scan.records) logged += rec.ops.size();
  ASSERT_GT(logged, 0u);
  expect_replay_equals(dir_, live, RecoveryStatus::kOk, logged,
                       HeapMatch::kContents);
}

TEST_F(WalTest, OneSyncIssuesOneFsyncForEveryWorkersAppends) {
  // Two workers' threads both append, then one group sync: one fsync
  // covers both records, whoever appended them, and a second sync finds
  // nothing dirty.
  metrics::MetricsSink sink;
  Wal wal(WalOptions{dir_, WalFsync::kGroup, &sink});
  std::string err;
  ASSERT_TRUE(wal.open_for_append(&err)) << err;
  const std::vector<WalOp> ops = sample_ops();
  std::thread a([&] { wal.append(ops.data(), ops.size()); });
  std::thread b([&] { wal.append(ops.data(), 1); });
  a.join();
  b.join();
  wal.sync();
  EXPECT_EQ(sink.snapshot().counter(CounterId::kWalFsyncs), 1u);
  wal.sync();
  EXPECT_EQ(sink.snapshot().counter(CounterId::kWalFsyncs), 1u);
  wal.close();  // nothing left to flush
  EXPECT_EQ(sink.snapshot().counter(CounterId::kWalFsyncs), 1u);
  const WalScan scan =
      service::scan_wal_buffer(read_file(service::wal_segment_name(0)));
  ASSERT_TRUE(scan.clean);
  EXPECT_EQ(scan.records.size(), 2u);
}

TEST_F(WalTest, GroupSyncsIssueAtMostOneFsyncPerBatchOrInlineRead) {
  // A two-worker durable plane under hot-key writes and inline reads: each
  // drained batch and each inline read syncs once before it acknowledges,
  // and closing the log may flush once more.  With one log a sync is at
  // most one fsync, so fsyncs never exceed batches + inline reads + 1.
  const MvVersionsPin pin(4);  // inline reads need version chains
  tx::OtbListMap map;
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.batch_max = 8;
  cfg.wal_dir = dir_;
  cfg.wal_fsync = WalFsync::kGroup;
  metrics::MetricsSink sink;
  cfg.metrics = &sink;
  Service svc(Targets::standard(&map), cfg);
  svc.start();
  auto client = [&](std::uint64_t seed) {
    Xorshift rng{seed};
    std::vector<service::ResponseFuture> window(16);
    for (unsigned i = 0; i < 1500 + window.size(); ++i) {
      service::ResponseFuture& slot = window[i % window.size()];
      if (slot.valid()) {
        EXPECT_EQ(slot.wait(), service::SvcStatus::kOk);
      }
      if (i >= 1500) {
        slot = service::ResponseFuture{};
        continue;
      }
      const auto k = static_cast<std::int64_t>(rng.next_bounded(8));
      slot = svc.submit(rng.chance_pct(20) ? Request(map_get(k))
                                           : Request(map_put(k, i)));
    }
  };
  std::vector<std::thread> clients;
  for (std::uint64_t c = 0; c < 4; ++c) clients.emplace_back(client, 21 + c);
  for (auto& t : clients) t.join();
  svc.stop();
  const auto snap = sink.snapshot();
  const std::uint64_t fsyncs = snap.counter(CounterId::kWalFsyncs);
  const std::uint64_t batches = snap.counter(CounterId::kSvcBatches);
  const std::uint64_t reads = snap.counter(CounterId::kSvcReadOnly);
  EXPECT_GT(batches, 0u);
  EXPECT_LE(fsyncs, batches + reads + 1)
      << batches << " batches, " << reads << " inline reads";
}

TEST_F(WalTest, FourWorkersLogOneStreamInStampOrder) {
  // Four workers commit concurrently into the one log.  Each append draws
  // its stamp and writes its record under one mutex, so the one segment
  // holds stamps 1, 2, 3, ... in file order with none missing, and the
  // last is the clock.
  Structures live;
  ServiceConfig cfg;
  cfg.workers = 4;
  cfg.batch_max = 4;
  cfg.wal_dir = dir_;
  cfg.wal_fsync = WalFsync::kOff;
  Service svc(live.targets(), cfg);
  svc.start();
  auto client = [&](std::uint64_t seed) {
    Xorshift rng{seed};
    std::vector<service::ResponseFuture> window(8);
    for (unsigned i = 0; i < 800 + window.size(); ++i) {
      service::ResponseFuture& slot = window[i % window.size()];
      if (slot.valid()) {
        EXPECT_EQ(slot.wait(), service::SvcStatus::kOk);
      }
      if (i >= 800) {
        slot = service::ResponseFuture{};
        continue;
      }
      const auto k = static_cast<std::int64_t>(rng.next_bounded(16));
      switch (rng.next_bounded(4)) {
        case 0: slot = svc.submit(Request(map_put(k, i))); break;
        case 1: slot = svc.submit(Request(set_add(k))); break;
        case 2: slot = svc.submit(Request{sl_push(k), map_erase(k)}); break;
        default: slot = svc.submit(Request(heap_push(k))); break;
      }
    }
  };
  std::vector<std::thread> clients;
  for (std::uint64_t c = 0; c < 4; ++c) clients.emplace_back(client, 31 + c);
  for (auto& t : clients) t.join();
  const std::uint64_t clock = svc.wal()->clock().load();
  svc.stop();

  const WalScan scan =
      service::scan_wal_buffer(read_file(service::wal_segment_name(0)));
  ASSERT_TRUE(scan.clean);
  ASSERT_GT(scan.records.size(), 1u);
  std::size_t logged = 0;
  for (std::size_t i = 0; i < scan.records.size(); ++i) {
    ASSERT_EQ(scan.records[i].seq, i + 1) << "record " << i;
    logged += scan.records[i].ops.size();
  }
  EXPECT_EQ(scan.records.back().seq, clock);
  expect_replay_equals(dir_, live, RecoveryStatus::kOk, logged,
                       HeapMatch::kContents);
}

TEST_F(WalTest, ReplayFailsClosedOnOpsThatDoNotReproduce) {
  // CRC-valid records that no logger following took_effect could write:
  // the last record of each case must fail replay, naming its stamp.
  struct Case {
    const char* name;
    std::vector<std::vector<WalOp>> records;  // stamps 1, 2, ...
  };
  const std::vector<Case> cases = {
      {"erase_absent", {{WalOp{0, Verb::kPut, 1, 10}},
                        {WalOp{0, Verb::kErase, 2, 0}}}},
      {"pop_min_not_min", {{WalOp{3, Verb::kPush, 5, 0},
                            WalOp{3, Verb::kPush, 9, 0}},
                           {WalOp{3, Verb::kPopMin, 9, 0}}}},
      {"sl_push_present", {{WalOp{3, Verb::kPush, 5, 0}},
                           {WalOp{3, Verb::kPush, 5, 0}}}},
      {"get", {{WalOp{0, Verb::kPut, 1, 10}}, {WalOp{0, Verb::kGet, 1, 0}}}},
      {"unregistered_slot", {{WalOp{0, Verb::kPut, 1, 10}},
                             {WalOp{9, Verb::kPut, 1, 10}}}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string sub = c.name;
    ASSERT_EQ(::mkdir((dir_ + "/" + sub).c_str(), 0777), 0);
    std::string buf;
    for (std::size_t i = 0; i < c.records.size(); ++i) {
      service::encode_record(i + 1, c.records[i].data(), c.records[i].size(),
                             &buf);
    }
    write_file(sub + "/" + service::wal_segment_name(0), buf);

    tx::OtbListMap map;
    tx::OtbListSet set;
    tx::OtbHeapPQ heap;
    tx::OtbSkipListPQ slpq;
    const RecoveryReport r = service::recover_into(
        dir_ + "/" + sub, Targets::standard(&map, &set, &heap, &slpq));
    EXPECT_EQ(r.status, RecoveryStatus::kCorruptLog) << r.detail;
    EXPECT_NE(r.detail.find("seq " + std::to_string(c.records.size())),
              std::string::npos)
        << r.detail;
    EXPECT_EQ(r.records_replayed, c.records.size() - 1);
  }
}

TEST_F(WalTest, CheckpointCompactsAndRecoverUsesIt) {
  metrics::MetricsSink sink;
  const DurableRun ran =
      run_durable_workload(dir_, WalFsync::kGroup, &sink,
                           /*checkpoint_midway=*/true);
  EXPECT_TRUE(exists("last_checkpoint"));
  // Compaction: the pre-rotation segment is gone.
  EXPECT_FALSE(exists(service::wal_segment_name(0)));
  EXPECT_TRUE(exists(service::wal_segment_name(1)));

  tx::OtbListMap map;
  tx::OtbListSet set;
  tx::OtbHeapPQ heap;
  tx::OtbSkipListPQ slpq;
  Targets t = Targets::standard(&map, &set, &heap, &slpq);
  const RecoveryReport r = service::recover_into(dir_, t);
  ASSERT_EQ(r.status, RecoveryStatus::kOk) << r.detail;
  EXPECT_GT(r.checkpoint_seq, 0u);
  EXPECT_EQ(r.last_seq, ran.clock);
  expect_recovered_equal(ran, t);
}

TEST_F(WalTest, CorruptManifestFailsClosed) {
  metrics::MetricsSink sink;
  run_durable_workload(dir_, WalFsync::kGroup, &sink,
                       /*checkpoint_midway=*/true);
  std::string manifest = read_file("last_checkpoint");
  manifest[manifest.size() / 2] ^= 0x10;
  write_file("last_checkpoint", manifest);

  tx::OtbListMap map;
  tx::OtbListSet set;
  tx::OtbHeapPQ heap;
  tx::OtbSkipListPQ slpq;
  Targets t = Targets::standard(&map, &set, &heap, &slpq);
  const RecoveryReport r = service::recover_into(dir_, t);
  EXPECT_EQ(r.status, RecoveryStatus::kCorruptCheckpoint);
}

TEST_F(WalTest, CheckpointSlotMismatchFailsClosed) {
  metrics::MetricsSink sink;
  run_durable_workload(dir_, WalFsync::kGroup, &sink,
                       /*checkpoint_midway=*/true);
  // Recover into a registry whose slot 1 is a map, not a set.
  tx::OtbListMap map, not_a_set;
  Targets t;
  t.add_map(&map);
  t.add_map(&not_a_set);
  const RecoveryReport r = service::recover_into(dir_, t);
  EXPECT_EQ(r.status, RecoveryStatus::kSlotMismatch);
}

/// Deterministic phase-1 script: one request at a time, so two services
/// given this history always reach the same state (the racy mixed workload
/// in run_durable_workload linearizes differently run to run).
void run_phase1(Service& svc) {
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(svc.submit(Request(map_put(i % 16, i * 10))).wait(),
              service::SvcStatus::kOk);
    svc.submit(Request(set_add(i % 8))).wait();
    svc.submit(Request(heap_push(100 - i))).wait();
    svc.submit(Request(sl_push(200 + i))).wait();
    if (i % 5 == 0) svc.submit(Request(map_erase(i % 16))).wait();
  }
}

TEST_F(WalTest, RecoverThenServeEquivalence) {
  // Phase 1 on service A (durable), phase 2 on recovered service B; the
  // final state must equal running both phases on one never-crashed
  // service C.
  metrics::MetricsSink sink;
  {
    tx::OtbListMap map_a;
    tx::OtbListSet set_a;
    tx::OtbHeapPQ heap_a;
    tx::OtbSkipListPQ slpq_a;
    ServiceConfig cfg_a;
    cfg_a.workers = 2;
    cfg_a.batch_max = 4;
    cfg_a.metrics = &sink;
    cfg_a.wal_dir = dir_;
    Service a(Targets::standard(&map_a, &set_a, &heap_a, &slpq_a), cfg_a);
    a.start();
    run_phase1(a);
    a.stop();
  }

  tx::OtbListMap map_b;
  tx::OtbListSet set_b;
  tx::OtbHeapPQ heap_b;
  tx::OtbSkipListPQ slpq_b;
  ServiceConfig cfg_b;
  cfg_b.workers = 1;
  cfg_b.metrics = &sink;
  cfg_b.wal_dir = dir_;
  Service b(Targets::standard(&map_b, &set_b, &heap_b, &slpq_b), cfg_b);
  ASSERT_TRUE(b.recover().ok());
  b.start();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(b.submit(Request(map_put(1000 + i, i))).wait(),
              service::SvcStatus::kOk);
    EXPECT_EQ(b.submit(Request(map_erase(i))).wait(), service::SvcStatus::kOk);
  }
  b.stop();

  // Reference: both phases against one in-memory service.
  tx::OtbListMap map_c;
  tx::OtbListSet set_c;
  tx::OtbHeapPQ heap_c;
  tx::OtbSkipListPQ slpq_c;
  ServiceConfig cfg_c;
  cfg_c.workers = 2;
  cfg_c.batch_max = 4;
  cfg_c.metrics = &sink;
  Service c(Targets::standard(&map_c, &set_c, &heap_c, &slpq_c), cfg_c);
  c.start();
  run_phase1(c);
  for (int i = 0; i < 10; ++i) {
    c.submit(Request(map_put(1000 + i, i))).wait();
    c.submit(Request(map_erase(i))).wait();
  }
  c.stop();

  EXPECT_EQ(map_b.snapshot_unsafe(), map_c.snapshot_unsafe());
  EXPECT_EQ(set_b.snapshot_unsafe(), set_c.snapshot_unsafe());
  auto hb = heap_b.snapshot_unsafe();
  auto hc = heap_c.snapshot_unsafe();
  std::sort(hb.begin(), hb.end());
  std::sort(hc.begin(), hc.end());
  EXPECT_EQ(hb, hc);
  EXPECT_EQ(slpq_b.snapshot_unsafe(), slpq_c.snapshot_unsafe());
}

TEST_F(WalTest, CommitClockContinuesAfterRecovery) {
  metrics::MetricsSink sink;
  const DurableRun ran = run_durable_workload(dir_, WalFsync::kGroup, &sink);

  tx::OtbListMap map;
  tx::OtbListSet set;
  tx::OtbHeapPQ heap;
  tx::OtbSkipListPQ slpq;
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.metrics = &sink;
  cfg.wal_dir = dir_;
  Service svc(Targets::standard(&map, &set, &heap, &slpq), cfg);
  ASSERT_TRUE(svc.recover().ok());
  EXPECT_EQ(svc.wal()->clock().load(), ran.clock);
  svc.start();
  EXPECT_EQ(svc.submit(Request(map_put(1, 2))).wait(), service::SvcStatus::kOk);
  EXPECT_GT(svc.wal()->clock().load(), ran.clock);
  svc.stop();
  // And the continued log still recovers in one piece.
  tx::OtbListMap map2;
  tx::OtbListSet set2;
  tx::OtbHeapPQ heap2;
  tx::OtbSkipListPQ slpq2;
  Targets t2 = Targets::standard(&map2, &set2, &heap2, &slpq2);
  ASSERT_TRUE(service::recover_into(dir_, t2).ok());
  std::int64_t v = 0;
  tx::atomically([&](tx::Transaction& t) {
    EXPECT_TRUE(map2.get(t, 1, &v));
  });
  EXPECT_EQ(v, 2);
}

TEST_F(WalTest, SeedBaselineReplaysOnTop) {
  // A run whose structures were pre-seeded before start(): the seed is not
  // in the log, so recovery must re-seed through the baseline closure.
  {
    tx::OtbListMap map;
    map.put_seq(500, 5000);
    map.put_seq(501, 5001);
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.wal_dir = dir_;
    Service svc(Targets::standard(&map), cfg);
    svc.start();
    EXPECT_EQ(svc.submit(Request(map_erase(500))).wait(),
              service::SvcStatus::kOk);
    EXPECT_EQ(svc.submit(Request(map_put(502, 5002))).wait(),
              service::SvcStatus::kOk);
    svc.stop();
  }
  tx::OtbListMap map;
  Targets t = Targets::standard(&map);
  const RecoveryReport r = service::recover_into(dir_, t, [&map] {
    map.put_seq(500, 5000);
    map.put_seq(501, 5001);
  });
  ASSERT_EQ(r.status, RecoveryStatus::kOk) << r.detail;
  using Pairs = std::vector<std::pair<std::int64_t, std::int64_t>>;
  EXPECT_EQ(map.snapshot_unsafe(), (Pairs{{501, 5001}, {502, 5002}}));
}

TEST_F(WalTest, FsyncModeParsingAndNames) {
  WalFsync m = WalFsync::kGroup;
  EXPECT_TRUE(service::parse_wal_fsync("off", &m));
  EXPECT_EQ(m, WalFsync::kOff);
  EXPECT_TRUE(service::parse_wal_fsync("group", &m));
  EXPECT_EQ(m, WalFsync::kGroup);
  EXPECT_FALSE(service::parse_wal_fsync("sometimes", &m));
  // There is no per-record fsync mode; group commit covers durability.
  EXPECT_FALSE(service::parse_wal_fsync("always", &m));
  EXPECT_EQ(service::to_string(WalFsync::kGroup), "group");
  std::uint64_t seg = 0;
  EXPECT_EQ(service::wal_segment_name(17), "wal-00000017.log");
  EXPECT_TRUE(service::parse_wal_segment_name(
      service::wal_segment_name(17), &seg));
  EXPECT_EQ(seg, 17u);
  EXPECT_TRUE(service::parse_wal_segment_name("wal-123456789012.log", &seg));
  EXPECT_EQ(seg, 123456789012u);
  // Other entries, the older per-worker layout and malformed numbers among
  // them, do not parse; only "wal-*.log" ones make recovery refuse.
  for (const char* name :
       {"last_checkpoint", "ckpt-1.snap", "lock", "wal-0003-00000017.log",
        "wal-.log", "wal-+1.log", "wal--1.log", "wal- 1.log", "wal-1x.log",
        "wal-99999999999999999999.log", "wal-1.log.tmp", "wal-1.lo"}) {
    SCOPED_TRACE(name);
    EXPECT_FALSE(service::parse_wal_segment_name(name, &seg));
  }
  EXPECT_TRUE(service::is_wal_file_name("wal-0003-00000017.log"));
  EXPECT_TRUE(service::is_wal_file_name("wal-1x.log"));
  EXPECT_FALSE(service::is_wal_file_name("wal-.log"));
  EXPECT_FALSE(service::is_wal_file_name("wal-1.log.tmp"));
  EXPECT_FALSE(service::is_wal_file_name("ckpt-1.snap"));
}

TEST_F(WalTest, DirectoryLockExcludesConcurrentOwners) {
  // The <dir>/lock flock makes the directory single-owner: a second
  // service, or a recovery run racing a live writer, is refused loudly
  // instead of reading segments mid-append and mis-diagnosing the moving
  // state as corruption.  flock conflicts across open-file descriptions,
  // so the single-process test exercises the same kernel check a second
  // process would hit.
  Wal wal(WalOptions{dir_, WalFsync::kOff, nullptr});
  std::string err;
  ASSERT_TRUE(wal.open_for_append(&err)) << err;

  Wal intruder(WalOptions{dir_, WalFsync::kOff, nullptr});
  EXPECT_FALSE(intruder.open_for_append(&err));
  EXPECT_NE(err.find("locked"), std::string::npos) << err;

  tx::OtbListMap map;
  Targets targets = Targets::standard(&map);
  RecoveryReport r = service::recover_into(dir_, targets);
  EXPECT_EQ(r.status, RecoveryStatus::kIoError);
  EXPECT_NE(r.detail.find("locked"), std::string::npos) << r.detail;

  // Releasing the lock (what stop() and process death both do) clears the
  // way: the same directory now recovers (empty log => fresh start).
  wal.close();
  EXPECT_TRUE(service::recover_into(dir_, targets).ok());
}

TEST_F(WalTest, RecoveryStatusExitCodesAreDistinct) {
  using service::recovery_exit_code;
  EXPECT_EQ(recovery_exit_code(RecoveryStatus::kOk), 0);
  EXPECT_EQ(recovery_exit_code(RecoveryStatus::kNoState), 0);
  std::vector<int> codes = {
      recovery_exit_code(RecoveryStatus::kCorruptLog),
      recovery_exit_code(RecoveryStatus::kCorruptCheckpoint),
      recovery_exit_code(RecoveryStatus::kSlotMismatch),
      recovery_exit_code(RecoveryStatus::kIoError)};
  std::sort(codes.begin(), codes.end());
  EXPECT_EQ(std::unique(codes.begin(), codes.end()), codes.end());
  for (int c : codes) EXPECT_GT(c, 2);  // clear of usage/load-error exits
}

/// A durable two-worker map service on `dir` under a writer thread and
/// `side_threads` threads looping `side(svc, thread index)`, all until `ms`
/// milliseconds pass.  After stop(), recovery into a fresh map must
/// reproduce the live one.
template <typename Side>
void run_map_service_beside(const std::string& dir, unsigned ms,
                            unsigned side_threads, Side&& side) {
  tx::OtbListMap map;
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.batch_max = 8;
  cfg.wal_dir = dir;
  cfg.wal_fsync = WalFsync::kGroup;
  metrics::MetricsSink sink;
  cfg.metrics = &sink;
  Service svc(Targets::standard(&map), cfg);
  svc.start();
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    for (std::int64_t i = 0; !done.load(); ++i) {
      EXPECT_EQ(svc.submit(Request(map_put(i % 64, i))).wait(),
                service::SvcStatus::kOk);
    }
  });
  for (unsigned t = 0; t < side_threads; ++t) {
    threads.emplace_back([&, t] {
      while (!done.load()) side(svc, t);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  done.store(true);
  for (auto& t : threads) t.join();
  svc.stop();

  tx::OtbListMap fresh;
  Targets t = Targets::standard(&fresh);
  const RecoveryReport r = service::recover_into(dir, t);
  ASSERT_EQ(r.status, RecoveryStatus::kOk) << r.detail;
  EXPECT_EQ(fresh.snapshot_unsafe(), map.snapshot_unsafe());
}

TEST_F(WalTest, RotationNeverClosesAnFdAnInlineReadSyncs) {
  // An inline read-only script syncs the WAL from the submitting thread,
  // outside every service lock, while checkpoint_now rotates the log to a
  // fresh fd.  A sync reads the fd under the log's mutex and fsyncs a dup
  // of it: without that the sync's fd read races the rotation's swap and
  // close (TSan reports both), and an fsync that lands on the closed fd
  // stops the process.
  MvVersionsPin pin(4);  // the inline snapshot route needs version chains
  run_map_service_beside(dir_, 1000, 2, [](Service& svc, unsigned t) {
    if (t == 0) {
      EXPECT_TRUE(svc.checkpoint_now());
    } else {
      EXPECT_EQ(svc.submit(Request(map_get(7))).wait(),
                service::SvcStatus::kOk);
    }
  });
}

TEST_F(WalTest, ConcurrentCheckpointsEachSucceedAndRecover) {
  // checkpoint_now is public and runs beside the periodic checkpoint
  // thread.  Whole checkpoints serialize: two interleaved ones would share
  // the manifest's temp file, and one's prune could delete the snapshot
  // the other's manifest names.
  std::atomic<unsigned> checkpoints{0};
  run_map_service_beside(dir_, 1000, 2, [&](Service& svc, unsigned) {
    EXPECT_TRUE(svc.checkpoint_now());
    checkpoints.fetch_add(1);
  });
  EXPECT_GT(checkpoints.load(), 2u);
}

}  // namespace
}  // namespace otb
