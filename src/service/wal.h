// Write-ahead log of committed semantic operations (docs/DURABILITY.md).
//
// Boosting's semantic write-sets are already compact logical redo logs
// (§3.2.1: one pending operation per key, add/remove pairs eliminated
// locally).  A committed batch transaction is therefore fully described by
// slot-addressed operations ({slot, verb, key, value}): for each PQ, every
// step that took effect, in step order (took_effect / wal_op below — a
// pop_min replays correctly only after the pushes and pops before it);
// then, for each map and set it wrote, one put/erase or add/remove per
// written key, read from its descriptors at commit.  The service plane
// serializes exactly that — one length-prefixed, CRC32-protected record
// per committed batch, stamped with the transaction's commit-clock value
// (runtime.h: the stamp is drawn while semantic locks are held, so
// conflicting commits log stamps in serialization order and the per-shard
// logs merge into one totally ordered redo stream).  Replay runs every op
// through the service's step executor and requires it to take effect
// again.
//
// Layout on disk (native-endian):
//   segment file  wal-<shard>-<segment>.log   (one append stream per worker)
//   record        u32 payload_len | u32 crc32(payload) | payload
//   payload       u64 seq | u32 n_ops | n_ops x { u8 slot | u8 verb |
//                                                 i64 key | i64 value }
//
// Group commit piggybacks on batch coalescing: each committed batch's
// record is appended from the transaction's commit hook (locks still held
// — see append()), and — under OTB_WAL_FSYNC=group — the worker issues one
// sync_all() per drained batch before acknowledging any of its requests,
// so a handful of disk flushes cover up to batch_max client scripts AND
// every cross-shard record they depend on.  `off` never fsyncs the log or
// its directory (the OS flushes eventually; acknowledged != durable); only
// a checkpoint's rotation and snapshot still do.
// Metrics: wal_appends / wal_bytes / wal_fsyncs counters and the
// "wal_fsync" phase histogram, domain "otb.service" (schema otb.metrics/5).
//
// A torn final record (the crash landed mid-write) is expected and repaired
// by recovery (recovery.h): the tail is truncated at the first CRC failure
// *provided nothing valid follows it* — damage with a later valid record is
// real corruption and fails closed.
//
// Every I/O failure on the append path stops the process (Wal::die): a
// failed write, a failed fsync of a segment, and a failed open or fsync of
// the directory when a rotation makes new segments.
#pragma once

#include <dirent.h>
#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/crc32.h"
#include "common/platform.h"
#include "metrics/sink.h"
#include "service/request.h"

namespace otb::service {

/// Durability policy for the append path (knob OTB_WAL_FSYNC).
enum class WalFsync : std::uint8_t {
  kOff,     // append only; no fsync (acknowledged != durable)
  kGroup,   // one fsync per drained batch, before its acknowledgements
};

constexpr std::string_view to_string(WalFsync m) {
  switch (m) {
    case WalFsync::kOff:
      return "off";
    case WalFsync::kGroup:
      return "group";
  }
  return "?";
}

inline bool parse_wal_fsync(std::string_view s, WalFsync* out) {
  if (s == "off") *out = WalFsync::kOff;
  else if (s == "group") *out = WalFsync::kGroup;
  else return false;
  return true;
}

/// One logged semantic operation: a map or set write-set entry, or the
/// effective (binding-resolved) mutation a PQ step performed (took_effect /
/// wal_op below).
struct WalOp {
  StructureId slot = 0;
  Verb verb = Verb::kGet;
  std::int64_t key = 0;
  std::int64_t value = 0;

  bool operator==(const WalOp&) const = default;
};

/// The step rule, written once: the service logs a PQ step exactly when it
/// took effect, and replay (recovery.h) requires every logged op — write-set
/// entries included — to take effect again.  Every put and heap push takes
/// effect (a put inserts or assigns; the heap PQ keeps duplicates, so its
/// push always reports ok); every other write only when it reports ok;
/// reads never.
constexpr bool took_effect(Verb v, const StepResult& r) {
  return !is_read(v) && (v == Verb::kPut || r.ok);
}

/// The op a PQ step that took effect logs: pop_min logs the key it popped
/// (so replay can check it pops the same one), push the key it pushed.
constexpr WalOp wal_op(StructureId slot, Verb v, std::int64_t key,
                       const StepResult& r) {
  return WalOp{slot, v, v == Verb::kPopMin ? r.value : key, 0};
}

/// One decoded commit record: every operation of one committed batch
/// transaction, atomic on replay exactly as it was at commit.
struct WalRecord {
  std::uint64_t seq = 0;
  std::vector<WalOp> ops;

  bool operator==(const WalRecord&) const = default;
};

inline constexpr std::size_t kWalFrameBytes = 8;     // len + crc
inline constexpr std::size_t kWalOpBytes = 18;       // slot+verb+key+value
inline constexpr std::size_t kWalPayloadMin = 12;    // seq + n_ops
/// Upper bound a reader will believe: far above any real record
/// (max_steps * batch_max ops), so a garbage length field reads as damage.
inline constexpr std::size_t kWalMaxRecordBytes = 1u << 20;

namespace wal_detail {

template <typename T>
inline void put(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
inline T get(const char* p) {
  T v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace wal_detail

/// Append the framed record for (seq, ops) to `out`.
inline void encode_record(std::uint64_t seq, const WalOp* ops, std::size_t n,
                          std::string* out) {
  const std::uint32_t payload_len =
      static_cast<std::uint32_t>(kWalPayloadMin + n * kWalOpBytes);
  const std::size_t payload_at = out->size() + kWalFrameBytes;
  wal_detail::put(out, payload_len);
  wal_detail::put(out, std::uint32_t{0});  // crc patched below
  wal_detail::put(out, seq);
  wal_detail::put(out, static_cast<std::uint32_t>(n));
  for (std::size_t i = 0; i < n; ++i) {
    wal_detail::put(out, static_cast<std::uint8_t>(ops[i].slot));
    wal_detail::put(out, static_cast<std::uint8_t>(ops[i].verb));
    wal_detail::put(out, ops[i].key);
    wal_detail::put(out, ops[i].value);
  }
  const std::uint32_t crc = crc32(out->data() + payload_at, payload_len);
  std::memcpy(out->data() + payload_at - 4, &crc, 4);
}

/// Result of scanning one segment's byte stream.
struct WalScan {
  std::vector<WalRecord> records;
  std::size_t tail_offset = 0;  // end of the last valid record
  bool clean = false;           // stream ended exactly at a record boundary
  // Damage diagnosis (when !clean): a valid record parses somewhere after
  // the damage point => this was not a torn tail, it is mid-log corruption.
  bool valid_after_damage = false;
};

namespace wal_detail {

/// Try to decode one record at buf[off..]; returns consumed bytes (0 on
/// any damage: short frame, implausible length, CRC or structure mismatch).
inline std::size_t decode_at(std::string_view buf, std::size_t off,
                             WalRecord* rec) {
  if (buf.size() - off < kWalFrameBytes) return 0;
  const auto payload_len = get<std::uint32_t>(buf.data() + off);
  if (payload_len < kWalPayloadMin || payload_len > kWalMaxRecordBytes) return 0;
  if (buf.size() - off - kWalFrameBytes < payload_len) return 0;
  const char* payload = buf.data() + off + kWalFrameBytes;
  const auto crc = get<std::uint32_t>(buf.data() + off + 4);
  if (crc32(payload, payload_len) != crc) return 0;
  const auto n_ops = get<std::uint32_t>(payload + 8);
  if (kWalPayloadMin + n_ops * kWalOpBytes != payload_len) return 0;
  rec->seq = get<std::uint64_t>(payload);
  rec->ops.resize(n_ops);
  const char* p = payload + kWalPayloadMin;
  for (std::uint32_t i = 0; i < n_ops; ++i, p += kWalOpBytes) {
    rec->ops[i].slot = static_cast<StructureId>(get<std::uint8_t>(p));
    rec->ops[i].verb = static_cast<Verb>(get<std::uint8_t>(p + 1));
    rec->ops[i].key = get<std::int64_t>(p + 2);
    rec->ops[i].value = get<std::int64_t>(p + 10);
  }
  return kWalFrameBytes + payload_len;
}

}  // namespace wal_detail

/// Scan a whole segment buffer into records.  On damage, probes every later
/// offset for a valid record to distinguish a torn tail (nothing valid
/// follows — recoverable by truncation) from mid-log corruption (valid data
/// follows the damage — fail closed).
inline WalScan scan_wal_buffer(std::string_view buf) {
  WalScan out;
  std::size_t off = 0;
  WalRecord rec;
  while (off < buf.size()) {
    const std::size_t used = wal_detail::decode_at(buf, off, &rec);
    if (used == 0) {
      for (std::size_t probe = off + 1; probe < buf.size(); ++probe) {
        if (wal_detail::decode_at(buf, probe, &rec) != 0) {
          out.valid_after_damage = true;
          break;
        }
      }
      out.tail_offset = off;
      return out;
    }
    out.records.push_back(rec);
    off += used;
  }
  out.tail_offset = off;
  out.clean = true;
  return out;
}

/// Options for the append side.
struct WalOptions {
  std::string dir;
  WalFsync fsync = WalFsync::kGroup;
  unsigned shards = 1;
  metrics::MetricsSink* sink = nullptr;  // wal_* counters; may be null
};

inline std::string wal_segment_name(unsigned shard, std::uint64_t segment) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "wal-%04u-%08llu.log", shard,
                static_cast<unsigned long long>(segment));
  return buf;
}

/// Parse "wal-<shard>-<segment>.log"; false for other directory entries.
inline bool parse_wal_segment_name(std::string_view name, unsigned* shard,
                                   std::uint64_t* segment) {
  unsigned s = 0;
  unsigned long long g = 0;
  char tail = 0;
  if (std::sscanf(std::string(name).c_str(), "wal-%u-%llu.lo%c", &s, &g,
                  &tail) != 3 ||
      tail != 'g') {
    return false;
  }
  *shard = s;
  *segment = g;
  return true;
}

/// Acquire the WAL directory's single-owner lock: an exclusive,
/// non-blocking flock(2) on `<dir>/lock`.  Returns the held fd (the lock
/// lives as long as the fd stays open), or -1 with *err set — including
/// when another live process holds it.  The kernel drops the lock when the
/// holder's fd closes or the holder dies, SIGKILL included, so a crashed
/// service never wedges its own recovery.  Both the serving path
/// (Wal::open_for_append) and recovery (recover_into) take this lock:
/// recovering a directory a live service is still appending to would read
/// segments mid-write and mis-diagnose the moving state as corruption.
inline int lock_wal_dir(const std::string& dir, std::string* err) {
  const std::string path = dir + "/lock";
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0666);
  if (fd < 0) {
    if (err != nullptr) *err = "open " + path + ": " + std::strerror(errno);
    return -1;
  }
  if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
    if (err != nullptr) {
      *err = errno == EWOULDBLOCK
                 ? "wal directory " + dir + " is locked by a live process"
                 : "flock " + path + ": " + std::strerror(errno);
    }
    ::close(fd);
    return -1;
  }
  return fd;
}

/// The per-shard append streams plus the shared commit clock.  One worker
/// thread appends to each shard (no locking on the append path); rotate_all
/// runs only while workers are paused (the checkpoint quiescent point).
///
/// I/O failure on the append path aborts the process: the durability
/// contract (acknowledged => durable) cannot be honoured past a failed
/// write, and carrying on would silently ack non-durable commits.
class Wal {
 public:
  explicit Wal(WalOptions opt) : opt_(std::move(opt)) {
    if (opt_.shards == 0) opt_.shards = 1;
    shards_.reserve(opt_.shards);
    for (unsigned s = 0; s < opt_.shards; ++s) {
      shards_.push_back(std::make_unique<Shard>());
    }
  }

  ~Wal() { close_all(); }

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  const WalOptions& options() const { return opt_; }

  /// The commit clock batch transactions stamp from
  /// (Transaction::set_commit_clock).  Recovery seeds it with the last
  /// replayed sequence so new commits continue the total order.
  std::atomic<std::uint64_t>& clock() { return clock_; }

  /// Anything on disk worth recovering? (manifest or non-empty segment)
  static bool dir_has_state(const std::string& dir) {
    struct stat st{};
    if (::stat((dir + "/last_checkpoint").c_str(), &st) == 0) return true;
    DIR* d = ::opendir(dir.c_str());
    if (d == nullptr) return false;
    bool found = false;
    while (dirent* e = ::readdir(d)) {
      unsigned shard;
      std::uint64_t seg;
      if (parse_wal_segment_name(e->d_name, &shard, &seg) &&
          ::stat((dir + "/" + e->d_name).c_str(), &st) == 0 && st.st_size > 0) {
        found = true;
        break;
      }
    }
    ::closedir(d);
    return found;
  }

  /// Create the directory and open every shard's newest segment for append
  /// (creating segment 0 where none exists).  Run recovery FIRST: it
  /// truncates a torn tail so this append point is a valid record boundary.
  /// False with *err set when a step fails, the directory sync included.
  /// Under `off` the new directory entries are not fsynced.
  bool open_for_append(std::string* err) {
    if (::mkdir(opt_.dir.c_str(), 0777) != 0 && errno != EEXIST) {
      if (err != nullptr) *err = "mkdir " + opt_.dir + ": " + std::strerror(errno);
      return false;
    }
    if (lock_fd_ < 0) {
      lock_fd_ = lock_wal_dir(opt_.dir, err);
      if (lock_fd_ < 0) return false;
    }
    std::vector<std::uint64_t> newest(opt_.shards, 0);
    if (DIR* d = ::opendir(opt_.dir.c_str())) {
      while (dirent* e = ::readdir(d)) {
        unsigned shard;
        std::uint64_t seg;
        if (parse_wal_segment_name(e->d_name, &shard, &seg) &&
            shard < opt_.shards && seg > newest[shard]) {
          newest[shard] = seg;
        }
      }
      ::closedir(d);
    }
    for (unsigned s = 0; s < opt_.shards; ++s) {
      Shard& sh = *shards_[s];
      sh.segment = newest[s];
      const std::string path = opt_.dir + "/" + wal_segment_name(s, newest[s]);
      sh.fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0666);
      if (sh.fd < 0) {
        if (err != nullptr) *err = "open " + path + ": " + std::strerror(errno);
        return false;
      }
    }
    if (opt_.fsync != WalFsync::kOff && !sync_dir()) {
      if (err != nullptr) {
        *err = "sync directory " + opt_.dir + ": " + std::strerror(errno);
      }
      return false;
    }
    return true;
  }

  bool is_open() const { return !shards_.empty() && shards_[0]->fd >= 0; }

  /// Append one commit record to `shard`.  Called from the commit hook,
  /// while the committing transaction still holds its semantic locks: any
  /// transaction that can observe this commit's writes starts only after
  /// this append has hit the kernel, so a sync_all() taken before that
  /// dependent's acknowledgement always covers this record.
  void append(unsigned shard, std::uint64_t seq, const WalOp* ops,
              std::size_t n) {
    Shard& sh = *shards_[shard];
    sh.scratch.clear();
    encode_record(seq, ops, n, &sh.scratch);
    write_fully(sh.fd, sh.scratch.data(), sh.scratch.size());
    sh.appended.fetch_add(1, std::memory_order_release);
    if (opt_.sink != nullptr) {
      opt_.sink->add(metrics::CounterId::kWalAppends);
      opt_.sink->add(metrics::CounterId::kWalBytes, sh.scratch.size());
    }
  }

  /// Group-commit flush: fsync EVERY shard with unsynced appends, not just
  /// the caller's own.  Round-robin admission puts same-key traffic on
  /// different shards, so a batch's commits routinely depend on records in
  /// other shards' logs; because those records were appended before the
  /// dependency's locks released (see append()), flushing all dirty logs
  /// before acknowledging makes "acked => every record it depends on is
  /// durable" hold across shards.  Concurrent appends that raced in after
  /// our counter read stay unsynced — their own batch's sync covers them.
  void sync_all() {
    if (opt_.fsync != WalFsync::kGroup) return;
    for (auto& shp : shards_) {
      Shard& sh = *shp;
      const std::uint64_t mark = sh.appended.load(std::memory_order_acquire);
      if (mark != sh.synced.load(std::memory_order_relaxed)) {
        fsync_shard(sh, mark);
      }
    }
  }

  /// Rotate every shard to a fresh segment (checkpoint quiescent point:
  /// no worker is appending).  The outgoing segments are fsynced before the
  /// rotation is visible, so every pre-rotation record is durable-complete
  /// — recovery treats damage in a non-final segment as corruption.  The
  /// directory is fsynced so the new segments' entries are durable before
  /// any acknowledgement covers a record in them; a failed directory sync
  /// stops the process like any other append-path I/O failure.
  bool rotate_all(std::string* err) {
    for (unsigned s = 0; s < opt_.shards; ++s) {
      Shard& sh = *shards_[s];
      if (sh.fd >= 0) {
        const std::uint64_t mark = sh.appended.load(std::memory_order_acquire);
        if (mark != sh.synced.load(std::memory_order_relaxed)) {
          fsync_shard(sh, mark);
        }
        ::close(sh.fd);
      }
      sh.segment += 1;
      const std::string path =
          opt_.dir + "/" + wal_segment_name(s, sh.segment);
      sh.fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0666);
      if (sh.fd < 0) {
        if (err != nullptr) *err = "open " + path + ": " + std::strerror(errno);
        return false;
      }
    }
    if (!sync_dir()) die("directory sync");
    return true;
  }

  std::uint64_t current_segment(unsigned shard) const {
    return shards_[shard]->segment;
  }

  void close_all() {
    for (auto& shp : shards_) {
      Shard& sh = *shp;
      if (sh.fd >= 0) {
        const std::uint64_t mark = sh.appended.load(std::memory_order_acquire);
        if (mark != sh.synced.load(std::memory_order_relaxed) &&
            opt_.fsync != WalFsync::kOff) {
          fsync_shard(sh, mark);
        }
        ::close(sh.fd);
        sh.fd = -1;
      }
    }
    if (lock_fd_ >= 0) {
      ::close(lock_fd_);  // releases the directory's single-owner flock
      lock_fd_ = -1;
    }
  }

 private:
  struct Shard {
    int fd = -1;
    std::uint64_t segment = 0;
    // Lifetime append / fsync-covered counters (monotone across segment
    // rotations).  Written by the shard's owning worker (appended) and by
    // whichever worker runs a group sync (synced); `appended != synced`
    // is the cross-thread dirty test.
    std::atomic<std::uint64_t> appended{0};
    std::atomic<std::uint64_t> synced{0};
    std::string scratch;
  };

  /// fsync `sh` and raise its synced mark to at least `upto` (CAS loop: a
  /// concurrent sync may already have raised it further).  Safe to run
  /// against a file another thread is appending to — it just persists a
  /// prefix that includes everything up to `upto`.
  void fsync_shard(Shard& sh, std::uint64_t upto) {
    const std::uint64_t t0 = now_ns();
    if (::fsync(sh.fd) != 0) die("fsync");
    std::uint64_t seen = sh.synced.load(std::memory_order_relaxed);
    while (seen < upto && !sh.synced.compare_exchange_weak(
                              seen, upto, std::memory_order_relaxed)) {
    }
    if (opt_.sink != nullptr) {
      opt_.sink->add(metrics::CounterId::kWalFsyncs);
      opt_.sink->record_phase(metrics::Phase::kWalFsync, now_ns() - t0);
    }
  }

  void write_fully(int fd, const char* data, std::size_t len) {
    while (len > 0) {
      const ssize_t n = ::write(fd, data, len);
      if (n < 0) {
        if (errno == EINTR) continue;
        die("write");
      }
      data += n;
      len -= static_cast<std::size_t>(n);
    }
  }

  /// Make directory entries (new segments) durable.  False when the open
  /// or the fsync of the directory failed, with errno from that call.
  bool sync_dir() {
    const int fd = ::open(opt_.dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0) return false;
    const bool ok = ::fsync(fd) == 0;
    const int saved = errno;
    ::close(fd);
    errno = saved;
    return ok;
  }

  [[noreturn]] void die(const char* what) {
    std::fprintf(stderr, "otb wal: %s failed in %s: %s\n", what,
                 opt_.dir.c_str(), std::strerror(errno));
    std::abort();
  }

  WalOptions opt_;
  std::vector<std::unique_ptr<Shard>> shards_;  // stable addresses (atomics)
  std::atomic<std::uint64_t> clock_{0};
  int lock_fd_ = -1;  // held single-owner flock on <dir>/lock
};

}  // namespace otb::service
