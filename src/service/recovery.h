// Checkpoint + crash-recovery replay for the service write-ahead log
// (wal.h, docs/DURABILITY.md).
//
// On-disk layout inside the WAL directory:
//   wal-<segment>.log           commit records (wal.h framing)
//   ckpt-<seq>.snap             full snapshot of every registered slot,
//                               consistent as of commit sequence <seq>
//   last_checkpoint             manifest naming the live snapshot file;
//                               written to a temp name and rename(2)d, so
//                               it is either the old or the new manifest,
//                               never a torn one (the deeplog
//                               `last_checkpoint` compaction shape)
//
// Checkpoint protocol (Service::checkpoint_now, one at a time): take the
// service's commit gate exclusive, which pauses the workers at an attempt
// boundary, read the log's clock S, copy every slot's contents
// (Targets::capture — safe: quiescent), rotate the log to a fresh
// segment, release the gate; then — off the critical path — write
// ckpt-<S>.snap, fsync it, rename the manifest over, and delete the
// pre-rotation segments and older snapshots.  Every record in a
// pre-rotation segment has seq <= S (the clock was read with no commit in
// flight, and every stamped record's commit is applied), so deleting
// them loses nothing; a crash anywhere in the off-critical-path tail
// leaves the previous manifest + full segment set, which recovery replays
// instead.
//
// Recovery (recover_into): load the manifest's checkpoint (if any) into the
// caller's registered structures — which must then be empty, the snapshot
// IS the state — otherwise run the caller's `seed_baseline` closure (the
// same deterministic pre-seeding the original run did before start());
// then scan the segments in segment order, tolerate a torn final record by
// truncating the last segment at the damage point (only when nothing valid
// follows it — wal.h's scan distinguishes a torn tail from mid-log
// damage), and replay each record > checkpoint-seq, in file order, as one
// transaction through the same Targets executor the service logged it
// from.  Replay holds every op to the logger's own rule (wal.h
// took_effect: a logged erase erased, a pop_min pops the logged key); any
// mismatch, a stamp not above the one before it, a "wal-*.log" file that
// is not a segment name, or damage that is not a torn tail fails CLOSED
// with a distinct status — corrupt state is never silently loaded.
#pragma once

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "otb/runtime.h"
#include "service/targets.h"
#include "service/wal.h"

namespace otb::service {

enum class RecoveryStatus : int {
  kOk = 0,          // checkpoint and/or log replayed
  kNoState,         // nothing on disk: fresh start (also success)
  kCorruptLog,      // mid-log damage, stamp disorder, an unknown wal-*.log
                    // file, or replay mismatch
  kCorruptCheckpoint,  // snapshot or manifest fails its CRC / structure
  kSlotMismatch,    // disk state does not fit the registered structures
  kIoError,         // filesystem operation failed
};

constexpr bool recovery_ok(RecoveryStatus s) {
  return s == RecoveryStatus::kOk || s == RecoveryStatus::kNoState;
}

constexpr std::string_view to_string(RecoveryStatus s) {
  switch (s) {
    case RecoveryStatus::kOk:
      return "ok";
    case RecoveryStatus::kNoState:
      return "no_state";
    case RecoveryStatus::kCorruptLog:
      return "corrupt_log";
    case RecoveryStatus::kCorruptCheckpoint:
      return "corrupt_checkpoint";
    case RecoveryStatus::kSlotMismatch:
      return "slot_mismatch";
    case RecoveryStatus::kIoError:
      return "io_error";
  }
  return "?";
}

/// Distinct process exit codes for harnesses (bench/load_service --recover;
/// the CI corruption corpus asserts on these).  0 covers both kOk and
/// kNoState; failures stay clear of the 1/2 exit codes the harness uses
/// for usage and load errors.
constexpr int recovery_exit_code(RecoveryStatus s) {
  switch (s) {
    case RecoveryStatus::kOk:
    case RecoveryStatus::kNoState:
      return 0;
    case RecoveryStatus::kCorruptLog:
      return 3;
    case RecoveryStatus::kCorruptCheckpoint:
      return 4;
    case RecoveryStatus::kSlotMismatch:
      return 5;
    case RecoveryStatus::kIoError:
      return 6;
  }
  return 6;
}

struct RecoveryReport {
  RecoveryStatus status = RecoveryStatus::kNoState;
  std::uint64_t checkpoint_seq = 0;  // 0 = no checkpoint loaded
  std::uint64_t last_seq = 0;        // highest sequence applied overall
  std::size_t records_replayed = 0;
  std::size_t ops_replayed = 0;
  std::size_t segments_scanned = 0;
  bool truncated_tail = false;  // a torn final record was cut off
  std::string detail;           // human-readable failure context

  bool ok() const { return recovery_ok(status); }
};

/// One slot's captured contents (checkpoint_now's quiescent copy and the
/// decoded form recovery loads).  `entries.second` is 0 for non-map kinds.
struct CheckpointSlot {
  StructureId slot = 0;
  StructureKind kind = StructureKind::kMap;
  Entries entries;
};

namespace recovery_detail {

inline bool read_file(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  out->clear();
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out->append(buf, n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

/// Write `data` then fsync; returns false on any failure.
inline bool write_file_sync(const std::string& path, const std::string& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = std::fwrite(data.data(), 1, data.size(), f) == data.size();
  ok = std::fflush(f) == 0 && ok;
  ok = ok && ::fsync(::fileno(f)) == 0;
  ok = std::fclose(f) == 0 && ok;
  return ok;
}

/// Frame a payload the way wal.h frames records (len | crc | payload) —
/// checkpoint and manifest files reuse the codec, minus the size cap.
inline std::string frame(const std::string& payload) {
  std::string out;
  const auto len = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc = crc32(payload.data(), payload.size());
  wal_detail::put(&out, len);
  wal_detail::put(&out, crc);
  out += payload;
  return out;
}

/// Unframe a whole file: exactly one frame, CRC-checked.
inline bool unframe(const std::string& file, std::string* payload) {
  if (file.size() < kWalFrameBytes) return false;
  const auto len = wal_detail::get<std::uint32_t>(file.data());
  const auto crc = wal_detail::get<std::uint32_t>(file.data() + 4);
  if (file.size() != kWalFrameBytes + len) return false;
  if (crc32(file.data() + kWalFrameBytes, len) != crc) return false;
  payload->assign(file, kWalFrameBytes, len);
  return true;
}

}  // namespace recovery_detail

inline std::string checkpoint_file_name(std::uint64_t seq) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "ckpt-%020llu.snap",
                static_cast<unsigned long long>(seq));
  return buf;
}

/// Serialize + durably write ckpt-<seq>.snap, then atomically repoint the
/// `last_checkpoint` manifest at it.  Returns false on I/O failure (the old
/// manifest, if any, stays in force).
inline bool write_checkpoint(const std::string& dir, std::uint64_t seq,
                             const std::vector<CheckpointSlot>& slots,
                             std::string* err) {
  std::string payload;
  wal_detail::put(&payload, seq);
  wal_detail::put(&payload, static_cast<std::uint32_t>(slots.size()));
  for (const CheckpointSlot& s : slots) {
    wal_detail::put(&payload, static_cast<std::uint8_t>(s.slot));
    wal_detail::put(&payload, static_cast<std::uint8_t>(s.kind));
    wal_detail::put(&payload, static_cast<std::uint64_t>(s.entries.size()));
    for (const auto& [k, v] : s.entries) {
      wal_detail::put(&payload, k);
      wal_detail::put(&payload, v);
    }
  }
  const std::string name = checkpoint_file_name(seq);
  if (!recovery_detail::write_file_sync(dir + "/" + name,
                                        recovery_detail::frame(payload))) {
    if (err != nullptr) *err = "writing " + name;
    return false;
  }
  std::string manifest;
  wal_detail::put(&manifest, seq);
  wal_detail::put(&manifest, static_cast<std::uint32_t>(name.size()));
  manifest += name;
  const std::string tmp = dir + "/last_checkpoint.tmp";
  if (!recovery_detail::write_file_sync(tmp,
                                        recovery_detail::frame(manifest))) {
    if (err != nullptr) *err = "writing manifest temp";
    return false;
  }
  if (::rename(tmp.c_str(), (dir + "/last_checkpoint").c_str()) != 0) {
    if (err != nullptr) *err = "renaming manifest";
    return false;
  }
  return true;
}

/// Parse the manifest; false if absent.  CRC/structure damage reports
/// `*corrupt = true` (the caller fails closed — a manifest is written
/// atomically, so damage is never a torn write).
inline bool read_manifest(const std::string& dir, std::uint64_t* seq,
                          std::string* ckpt_name, bool* corrupt) {
  std::string file;
  if (!recovery_detail::read_file(dir + "/last_checkpoint", &file)) {
    return false;
  }
  std::string payload;
  if (!recovery_detail::unframe(file, &payload) || payload.size() < 12) {
    *corrupt = true;
    return false;
  }
  *seq = wal_detail::get<std::uint64_t>(payload.data());
  const auto name_len = wal_detail::get<std::uint32_t>(payload.data() + 8);
  if (payload.size() != 12 + name_len) {
    *corrupt = true;
    return false;
  }
  ckpt_name->assign(payload, 12, name_len);
  return true;
}

/// Decode ckpt file payload into slots; false on structural damage.
inline bool decode_checkpoint(const std::string& payload, std::uint64_t* seq,
                              std::vector<CheckpointSlot>* slots) {
  if (payload.size() < 12) return false;
  *seq = wal_detail::get<std::uint64_t>(payload.data());
  const auto n_slots = wal_detail::get<std::uint32_t>(payload.data() + 8);
  std::size_t off = 12;
  slots->clear();
  for (std::uint32_t i = 0; i < n_slots; ++i) {
    if (payload.size() - off < 10) return false;
    CheckpointSlot s;
    s.slot = static_cast<StructureId>(
        wal_detail::get<std::uint8_t>(payload.data() + off));
    s.kind = static_cast<StructureKind>(
        wal_detail::get<std::uint8_t>(payload.data() + off + 1));
    const auto count = wal_detail::get<std::uint64_t>(payload.data() + off + 2);
    off += 10;
    if ((payload.size() - off) / 16 < count) return false;
    s.entries.reserve(count);
    for (std::uint64_t e = 0; e < count; ++e) {
      s.entries.emplace_back(
          wal_detail::get<std::int64_t>(payload.data() + off),
          wal_detail::get<std::int64_t>(payload.data() + off + 8));
      off += 16;
    }
    slots->push_back(std::move(s));
  }
  return off == payload.size();
}

namespace recovery_detail {

inline bool fail(RecoveryReport* r, RecoveryStatus status, std::string detail) {
  r->status = status;
  r->detail = std::move(detail);
  return false;
}

/// Load one checkpoint slot into its (empty) registered structure.
inline bool load_slot(const Targets& targets, const CheckpointSlot& s,
                      RecoveryReport* r) {
  if (s.slot >= targets.count || targets.slots[s.slot].ds == nullptr ||
      targets.slots[s.slot].kind != s.kind) {
    return fail(r, RecoveryStatus::kSlotMismatch,
                "checkpoint slot " + std::to_string(s.slot) +
                    " does not match the registered structures");
  }
  if (!targets.load(s.slot, s.entries)) {
    return fail(r, RecoveryStatus::kSlotMismatch,
                "structures must be empty when a checkpoint exists");
  }
  return true;
}

/// Replay one commit record as one transaction: each op re-runs through
/// Targets::run, the executor that logged it, and must take effect again
/// under the logger's own rule (wal.h took_effect) — a pop_min must pop
/// the key it logged.  Returns false (with *r set) on mismatch.
inline bool replay_record(const Targets& targets, const WalRecord& rec,
                          RecoveryReport* r) {
  std::string what;
  tx::atomically([&](tx::Transaction& t) {
    what.clear();
    for (const WalOp& op : rec.ops) {
      if (!targets.fits(op.slot, op.verb)) {
        what = "op addresses an invalid slot/verb";
        return;
      }
      if (is_read(op.verb)) {
        what = "read verb in the log";
        return;
      }
      const StepResult res =
          targets.run(t, op.slot, op.verb, op.key, op.value, nullptr);
      if (!took_effect(op.verb, res) ||
          (op.verb == Verb::kPopMin && res.value != op.key)) {
        // Name the op: the CI debris artifact plus this line is enough to
        // locate the record with a log dump and trace the key's history.
        what = "logged op " + std::string(to_string(op.verb)) + "(slot " +
               std::to_string(static_cast<unsigned>(op.slot)) + ", key " +
               std::to_string(op.key) + ") did not reproduce";
        return;
      }
    }
  });
  if (!what.empty()) {
    return fail(r, RecoveryStatus::kCorruptLog,
                "replay of seq " + std::to_string(rec.seq) + " failed: " + what);
  }
  return true;
}

}  // namespace recovery_detail

/// Rebuild the registered structures from the WAL directory: checkpoint (or
/// `seed_baseline` when none exists — the caller's deterministic pre-start
/// seeding, which must match the pre-crash run's), then the log tail.
/// Never starts the service; run it on an idle Targets before
/// Service::start().  On success the report's last_seq is the value the
/// log's clock must resume from.
inline RecoveryReport recover_into(
    const std::string& dir, const Targets& targets,
    const std::function<void()>& seed_baseline = {}) {
  RecoveryReport r;

  // 0. Single-owner guard.  Recovering a directory a live service still
  //    owns would read its segments mid-append and mis-diagnose the moving
  //    state as corruption (a record half-written as the scan reaches the
  //    end of the file reads as a torn tail and is cut off).  flock is
  //    released by the kernel when the holder dies — SIGKILL included — so
  //    a crashed owner never blocks its own recovery.  A missing directory
  //    skips the lock: that is the fresh-start path below.
  struct DirLock {
    int fd = -1;
    ~DirLock() {
      if (fd >= 0) ::close(fd);
    }
  } dir_lock;
  struct stat dir_st{};
  if (::stat(dir.c_str(), &dir_st) == 0) {
    std::string lock_err;
    dir_lock.fd = lock_wal_dir(dir, &lock_err);
    if (dir_lock.fd < 0) {
      recovery_detail::fail(&r, RecoveryStatus::kIoError, lock_err);
      return r;
    }
  }

  // 1. Manifest + checkpoint, or baseline.
  std::uint64_t ckpt_seq = 0;
  std::string ckpt_name;
  bool manifest_corrupt = false;
  const bool have_manifest =
      read_manifest(dir, &ckpt_seq, &ckpt_name, &manifest_corrupt);
  if (manifest_corrupt) {
    recovery_detail::fail(&r, RecoveryStatus::kCorruptCheckpoint,
                          "manifest fails its CRC/structure check");
    return r;
  }
  if (have_manifest) {
    std::string file, payload;
    std::uint64_t file_seq = 0;
    std::vector<CheckpointSlot> slots;
    if (!recovery_detail::read_file(dir + "/" + ckpt_name, &file)) {
      recovery_detail::fail(&r, RecoveryStatus::kCorruptCheckpoint,
                            "manifest names a missing snapshot " + ckpt_name);
      return r;
    }
    if (!recovery_detail::unframe(file, &payload) ||
        !decode_checkpoint(payload, &file_seq, &slots) || file_seq != ckpt_seq) {
      recovery_detail::fail(&r, RecoveryStatus::kCorruptCheckpoint,
                            "snapshot " + ckpt_name + " fails its CRC/structure check");
      return r;
    }
    for (const CheckpointSlot& s : slots) {
      if (!recovery_detail::load_slot(targets, s, &r)) return r;
    }
    r.checkpoint_seq = ckpt_seq;
  } else if (seed_baseline) {
    seed_baseline();
  }

  // 2. Collect every segment in segment order.  A "wal-*.log" file that is
  //    not a segment name (the per-worker logs of older versions among
  //    them) cannot be placed in the stream: skipping it would drop its
  //    records, so it fails closed.
  struct Seg {
    std::uint64_t number;
    std::string path;
  };
  std::vector<Seg> segs;
  if (DIR* d = ::opendir(dir.c_str())) {
    std::string foreign;
    while (dirent* e = ::readdir(d)) {
      std::uint64_t number;
      if (parse_wal_segment_name(e->d_name, &number)) {
        segs.push_back(Seg{number, dir + "/" + e->d_name});
      } else if (is_wal_file_name(e->d_name)) {
        foreign = e->d_name;
      }
    }
    ::closedir(d);
    if (!foreign.empty()) {
      recovery_detail::fail(&r, RecoveryStatus::kCorruptLog,
                            "unrecognised log file " + dir + "/" + foreign);
      return r;
    }
  } else if (!have_manifest) {
    r.status = RecoveryStatus::kNoState;  // no directory at all: fresh start
    return r;
  }
  std::sort(segs.begin(), segs.end(),
            [](const Seg& a, const Seg& b) { return a.number < b.number; });

  // 3. Scan.  Damage is a tolerable torn tail only in the FINAL segment
  //    with nothing valid after it (rotation fsyncs a segment before
  //    retiring it, so completed segments are durable-complete).  The one
  //    stream draws each stamp as it appends, so stamps strictly increase
  //    across the whole stream; disorder or a duplicate means the files
  //    were tampered with.
  std::vector<WalRecord> tail;
  std::uint64_t prev_seq = 0;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    const Seg& seg = segs[i];
    std::string buf;
    if (!recovery_detail::read_file(seg.path, &buf)) {
      recovery_detail::fail(&r, RecoveryStatus::kIoError,
                            "cannot read " + seg.path);
      return r;
    }
    WalScan scan = scan_wal_buffer(buf);
    r.segments_scanned += 1;
    if (!scan.clean) {
      if (i + 1 != segs.size() || scan.valid_after_damage) {
        recovery_detail::fail(&r, RecoveryStatus::kCorruptLog,
                              "mid-log damage in " + seg.path);
        return r;
      }
      if (::truncate(seg.path.c_str(),
                     static_cast<off_t>(scan.tail_offset)) != 0) {
        recovery_detail::fail(&r, RecoveryStatus::kIoError,
                              "cannot truncate torn tail of " + seg.path);
        return r;
      }
      r.truncated_tail = true;
    }
    for (WalRecord& rec : scan.records) {
      if (rec.seq <= prev_seq) {
        recovery_detail::fail(
            &r, RecoveryStatus::kCorruptLog,
            (rec.seq == prev_seq ? "duplicate commit stamp "
                                 : "out-of-order commit stamp ") +
                std::to_string(rec.seq) + " in " + seg.path);
        return r;
      }
      prev_seq = rec.seq;
      if (rec.seq > r.checkpoint_seq) tail.push_back(std::move(rec));
    }
  }
  if (!have_manifest && tail.empty() && !r.truncated_tail) {
    r.status = RecoveryStatus::kNoState;
    return r;
  }

  // 4. Replay in file order, which is stamp order.
  r.last_seq = r.checkpoint_seq;
  for (const WalRecord& rec : tail) {
    if (!recovery_detail::replay_record(targets, rec, &r)) return r;
    r.last_seq = rec.seq;
    r.records_replayed += 1;
    r.ops_replayed += rec.ops.size();
  }
  r.status = RecoveryStatus::kOk;
  return r;
}

/// Delete WAL segments and snapshots made obsolete by the checkpoint whose
/// manifest is already durable: segments numbered below `live_segment`, and
/// any snapshot other than `keep_ckpt`.  Best-effort — a leftover file is
/// re-filtered by sequence on the next recovery.
inline void prune_obsolete(const std::string& dir, std::uint64_t live_segment,
                           const std::string& keep_ckpt) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return;
  std::vector<std::string> doomed;
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    std::uint64_t number;
    if (parse_wal_segment_name(name, &number)) {
      if (number < live_segment) doomed.push_back(name);
    } else if (name.size() > 5 && name.compare(0, 5, "ckpt-") == 0 &&
               name != keep_ckpt) {
      doomed.push_back(name);
    }
  }
  ::closedir(d);
  for (const std::string& name : doomed) {
    ::unlink((dir + "/" + name).c_str());
  }
}

}  // namespace otb::service
