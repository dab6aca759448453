// JSON export/import for snapshots.
//
// Schema ("otb.metrics/9"):
//   {
//     "schema": "otb.metrics/9",
//     "domains": {
//       "stm.NOrec": {
//         "counters": { "commits": 12, "attempts": 14, ... },   // all ids
//         "aborts":   { "validation": 2, "lock_fail": 0, ... }, // all reasons
//         "phases": {
//           "attempt":    { "count": 14, "total_ns": 9001, "log2_buckets": [..40..] },
//           "validation": { ... },
//           "commit":     { ... },
//           "service":    { ... },
//           "wal_fsync":  { ... }
//         },
//         "traversals":  { "count": 9, "total_steps": 120, "log2_buckets": [..40..] },
//         "queue_depth": { "count": 3, "total": 17, "log2_buckets": [..40..] },
//         "batch_size":  { "count": 3, "total": 21, "log2_buckets": [..40..] },
//         "mv_chain_len": { "count": 5, "total": 7, "log2_buckets": [..40..] },
//         "fused_set_size": { "count": 2, "total": 40, "log2_buckets": [..40..] }
//       }, ...
//     }
//   }
//
// /2 over /1: three hint counters (hint_hit_local/hint_hit_cached/hint_miss)
// and the per-domain "traversals" length histogram.
// /3 over /2: the service-plane slice — six svc_* counters, the "service"
// enqueue-to-completion phase, and the "queue_depth" / "batch_size" series.
// /4 over /3: the multi-op script surface — svc_scripts / svc_script_steps /
// svc_guard_aborts counters (see snapshot.h for their ledger relations).
// /5 over /4: the durability surface — wal_appends / wal_fsyncs / wal_bytes
// counters and the "wal_fsync" phase histogram (docs/DURABILITY.md).
// /6 over /5: the multi-version read surface — mv_snapshot_reads /
// mv_version_misses / mv_versions_reclaimed / svc_read_only counters and
// the "mv_chain_len" series (src/otb/mv.h).
// /7 over /6: the network front end + sharding surface — svc_cross_shard
// (shard-router fail-closed rejections), net_accepts / net_frames_in /
// net_backpressure (epoll server accounting, src/service/net.h).
// /8 over /7: the contention-manager / transaction-fusion surface —
// svc_split_retries / svc_fused / fusion_unions / fusion_fallbacks counters
// and the "fused_set_size" series (src/service/fusion.h).
// /9 over /8: svc_split_retries is gone with the split-retry it counted
// (a spent attempt budget is adopted, donated or run under the service's
// exclusive commit gate).
//
// The importer is deliberately strict — every counter/reason/phase key must
// be present and no unknown keys are allowed — which is exactly what the
// `metrics_smoke` checker needs: an algorithm that stops reporting a field
// fails the parse, not just a comparison.  It accepts the subset of JSON we
// emit (objects, arrays, unsigned integers, escape-free strings).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "metrics/snapshot.h"

namespace otb::metrics {

inline constexpr std::string_view kJsonSchemaId = "otb.metrics/9";

namespace detail {

inline void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

inline void append_bucketed_json(
    std::string& out, std::string_view total_key, std::uint64_t count,
    std::uint64_t total,
    const std::array<std::uint64_t, Histogram::kBuckets>& buckets) {
  out += "{\"count\": ";
  append_u64(out, count);
  out += ", \"";
  out += total_key;
  out += "\": ";
  append_u64(out, total);
  out += ", \"log2_buckets\": [";
  for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
    if (b != 0) out += ", ";
    append_u64(out, buckets[b]);
  }
  out += "]}";
}

inline void append_phase_json(std::string& out, const PhaseSnapshot& p) {
  append_bucketed_json(out, "total_ns", p.count, p.total_ns, p.log2_buckets);
}

inline void append_sink_json(std::string& out, const SinkSnapshot& s,
                             std::string_view indent) {
  out += "{\n";
  out += indent;
  out += "  \"counters\": {";
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    if (i != 0) out += ", ";
    out += '"';
    out += to_string(static_cast<CounterId>(i));
    out += "\": ";
    append_u64(out, s.counters[i]);
  }
  out += "},\n";
  out += indent;
  out += "  \"aborts\": {";
  bool first = true;
  for (std::size_t i = 1; i < kAbortReasonCount; ++i) {  // skip kNone
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += to_string(static_cast<AbortReason>(i));
    out += "\": ";
    append_u64(out, s.aborts[i]);
  }
  out += "},\n";
  out += indent;
  out += "  \"phases\": {\n";
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    out += indent;
    out += "    \"";
    out += to_string(static_cast<Phase>(i));
    out += "\": ";
    append_phase_json(out, s.phases[i]);
    if (i + 1 != kPhaseCount) out += ',';
    out += '\n';
  }
  out += indent;
  out += "  },\n";
  out += indent;
  out += "  \"traversals\": ";
  append_bucketed_json(out, "total_steps", s.traversals.count,
                       s.traversals.total_steps, s.traversals.log2_buckets);
  out += ",\n";
  out += indent;
  out += "  \"queue_depth\": ";
  append_bucketed_json(out, "total", s.queue_depth.count, s.queue_depth.total,
                       s.queue_depth.log2_buckets);
  out += ",\n";
  out += indent;
  out += "  \"batch_size\": ";
  append_bucketed_json(out, "total", s.batch_size.count, s.batch_size.total,
                       s.batch_size.log2_buckets);
  out += ",\n";
  out += indent;
  out += "  \"mv_chain_len\": ";
  append_bucketed_json(out, "total", s.mv_chain_len.count, s.mv_chain_len.total,
                       s.mv_chain_len.log2_buckets);
  out += ",\n";
  out += indent;
  out += "  \"fused_set_size\": ";
  append_bucketed_json(out, "total", s.fused_set_size.count,
                       s.fused_set_size.total, s.fused_set_size.log2_buckets);
  out += '\n';
  out += indent;
  out += '}';
}

/// Recursive-descent parser for the emitted subset of JSON.
class Parser {
 public:
  explicit Parser(std::string_view s) : s_(s) {}

  bool at_end() {
    skip_ws();
    return i_ == s_.size();
  }

  bool consume(char c) {
    skip_ws();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }

  bool peek_is(char c) {
    skip_ws();
    return i_ < s_.size() && s_[i_] == c;
  }

  bool parse_string(std::string& out) {
    skip_ws();
    if (i_ >= s_.size() || s_[i_] != '"') return false;
    ++i_;
    out.clear();
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\') return false;  // we never emit escapes
      out += s_[i_++];
    }
    if (i_ >= s_.size()) return false;
    ++i_;  // closing quote
    return true;
  }

  bool parse_u64(std::uint64_t& out) {
    skip_ws();
    if (i_ >= s_.size() || s_[i_] < '0' || s_[i_] > '9') return false;
    out = 0;
    while (i_ < s_.size() && s_[i_] >= '0' && s_[i_] <= '9') {
      out = out * 10 + static_cast<std::uint64_t>(s_[i_] - '0');
      ++i_;
    }
    return true;
  }

 private:
  void skip_ws() {
    while (i_ < s_.size() &&
           (s_[i_] == ' ' || s_[i_] == '\n' || s_[i_] == '\t' || s_[i_] == '\r'))
      ++i_;
  }

  std::string_view s_;
  std::size_t i_ = 0;
};

/// Parse a {"key": u64, ...} object whose complete key set must equal
/// `names` (order-independent).  Writes values by key index into `out`.
template <typename NameOf>
bool parse_u64_object(Parser& p, std::size_t first, std::size_t count,
                      NameOf name_of, std::uint64_t* out) {
  if (!p.consume('{')) return false;
  std::size_t seen = 0;
  bool got[64] = {};
  if (!p.peek_is('}')) {
    do {
      std::string key;
      if (!p.parse_string(key) || !p.consume(':')) return false;
      std::size_t idx = count;
      for (std::size_t i = first; i < count; ++i)
        if (key == name_of(i)) idx = i;
      if (idx == count || got[idx]) return false;  // unknown or duplicate key
      got[idx] = true;
      ++seen;
      if (!p.parse_u64(out[idx])) return false;
    } while (p.consume(','));
  }
  if (!p.consume('}')) return false;
  return seen == count - first;  // every expected key present
}

inline bool parse_bucketed(Parser& p, std::string_view total_key,
                           std::uint64_t& count, std::uint64_t& total,
                           std::array<std::uint64_t, Histogram::kBuckets>& row) {
  if (!p.consume('{')) return false;
  bool got_count = false, got_total = false, got_buckets = false;
  do {
    std::string key;
    if (!p.parse_string(key) || !p.consume(':')) return false;
    if (key == "count" && !got_count) {
      got_count = true;
      if (!p.parse_u64(count)) return false;
    } else if (key == total_key && !got_total) {
      got_total = true;
      if (!p.parse_u64(total)) return false;
    } else if (key == "log2_buckets" && !got_buckets) {
      got_buckets = true;
      if (!p.consume('[')) return false;
      for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
        if (b != 0 && !p.consume(',')) return false;
        if (!p.parse_u64(row[b])) return false;
      }
      if (!p.consume(']')) return false;
    } else {
      return false;
    }
  } while (p.consume(','));
  if (!p.consume('}')) return false;
  return got_count && got_total && got_buckets;
}

inline bool parse_phase(Parser& p, PhaseSnapshot& out) {
  return parse_bucketed(p, "total_ns", out.count, out.total_ns,
                        out.log2_buckets);
}

inline bool parse_sink(Parser& p, SinkSnapshot& out) {
  if (!p.consume('{')) return false;
  bool got_counters = false, got_aborts = false, got_phases = false;
  bool got_traversals = false, got_queue_depth = false, got_batch_size = false;
  bool got_mv_chain_len = false, got_fused_set_size = false;
  do {
    std::string key;
    if (!p.parse_string(key) || !p.consume(':')) return false;
    if (key == "counters" && !got_counters) {
      got_counters = true;
      if (!parse_u64_object(
              p, 0, kCounterCount,
              [](std::size_t i) { return to_string(static_cast<CounterId>(i)); },
              out.counters.data()))
        return false;
    } else if (key == "aborts" && !got_aborts) {
      got_aborts = true;
      if (!parse_u64_object(
              p, 1, kAbortReasonCount,
              [](std::size_t i) { return to_string(static_cast<AbortReason>(i)); },
              out.aborts.data()))
        return false;
    } else if (key == "phases" && !got_phases) {
      got_phases = true;
      if (!p.consume('{')) return false;
      bool got[kPhaseCount] = {};
      do {
        std::string phase_key;
        if (!p.parse_string(phase_key) || !p.consume(':')) return false;
        std::size_t idx = kPhaseCount;
        for (std::size_t i = 0; i < kPhaseCount; ++i)
          if (phase_key == to_string(static_cast<Phase>(i))) idx = i;
        if (idx == kPhaseCount || got[idx]) return false;
        got[idx] = true;
        if (!parse_phase(p, out.phases[idx])) return false;
      } while (p.consume(','));
      if (!p.consume('}')) return false;
      for (const bool g : got)
        if (!g) return false;
    } else if (key == "traversals" && !got_traversals) {
      got_traversals = true;
      if (!parse_bucketed(p, "total_steps", out.traversals.count,
                          out.traversals.total_steps,
                          out.traversals.log2_buckets))
        return false;
    } else if (key == "queue_depth" && !got_queue_depth) {
      got_queue_depth = true;
      if (!parse_bucketed(p, "total", out.queue_depth.count,
                          out.queue_depth.total, out.queue_depth.log2_buckets))
        return false;
    } else if (key == "batch_size" && !got_batch_size) {
      got_batch_size = true;
      if (!parse_bucketed(p, "total", out.batch_size.count,
                          out.batch_size.total, out.batch_size.log2_buckets))
        return false;
    } else if (key == "mv_chain_len" && !got_mv_chain_len) {
      got_mv_chain_len = true;
      if (!parse_bucketed(p, "total", out.mv_chain_len.count,
                          out.mv_chain_len.total,
                          out.mv_chain_len.log2_buckets))
        return false;
    } else if (key == "fused_set_size" && !got_fused_set_size) {
      got_fused_set_size = true;
      if (!parse_bucketed(p, "total", out.fused_set_size.count,
                          out.fused_set_size.total,
                          out.fused_set_size.log2_buckets))
        return false;
    } else {
      return false;
    }
  } while (p.consume(','));
  if (!p.consume('}')) return false;
  return got_counters && got_aborts && got_phases && got_traversals &&
         got_queue_depth && got_batch_size && got_mv_chain_len &&
         got_fused_set_size;
}

/// Parse one complete snapshot document (the outer `{"schema": ..,
/// "domains": ..}` object) starting at the parser's cursor.  Does not
/// require end-of-input, so snapshot documents can be nested inside larger
/// files (the bench-baseline wrapper `metrics_check --compare` reads).
inline bool parse_snapshot(Parser& p, Snapshot& out) {
  if (!p.consume('{')) return false;
  bool got_schema = false, got_domains = false;
  do {
    std::string key;
    if (!p.parse_string(key) || !p.consume(':')) return false;
    if (key == "schema" && !got_schema) {
      got_schema = true;
      std::string id;
      if (!p.parse_string(id) || id != kJsonSchemaId) return false;
    } else if (key == "domains" && !got_domains) {
      got_domains = true;
      if (!p.consume('{')) return false;
      if (!p.peek_is('}')) {
        do {
          std::string name;
          if (!p.parse_string(name) || !p.consume(':')) return false;
          SinkSnapshot s;
          if (!parse_sink(p, s)) return false;
          out.domains.emplace_back(std::move(name), s);
        } while (p.consume(','));
      }
      if (!p.consume('}')) return false;
    } else {
      return false;
    }
  } while (p.consume(','));
  if (!p.consume('}')) return false;
  return got_schema && got_domains;
}

}  // namespace detail

inline std::string to_json(const Snapshot& snap) {
  std::string out = "{\n  \"schema\": \"";
  out += kJsonSchemaId;
  out += "\",\n  \"domains\": {";
  bool first = true;
  for (const auto& [name, s] : snap.domains) {
    if (!first) out += ',';
    first = false;
    out += "\n    \"";
    out += name;
    out += "\": ";
    detail::append_sink_json(out, s, "    ");
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

/// Strict import: returns nullopt on any syntax or schema violation
/// (missing counter/reason/phase key, unknown key, wrong schema id, bucket
/// array of the wrong length, trailing garbage).
inline std::optional<Snapshot> from_json(std::string_view text) {
  detail::Parser p(text);
  Snapshot out;
  if (!detail::parse_snapshot(p, out) || !p.at_end()) return std::nullopt;
  return out;
}

}  // namespace otb::metrics
