#!/usr/bin/env bash
# Record-and-compare performance baseline runner: executes the Chapter-3
# figure harnesses (fig3.3-3.7) and the micro_ops suite at fixed thread
# counts and durations, validates every --metrics-json dump with the strict
# otb.metrics/9 checker, and merges the dumps into one baseline file
# (BENCH_otb_baseline.json at the repo root by default).
#
# By default the output is a record: absolute numbers are machine-bound, so
# CI uploads the file as an artifact.  Setting OTB_BASELINE_COMPARE to a
# previous baseline additionally diffs the fresh run against it with
# `metrics_check --compare` and fails on any committed-throughput series
# regressing beyond the tolerance — noise-tolerant (30% default, low-count
# series skipped) but a real gate against order-of-magnitude slips.
# Refresh the checked-in baseline when the substrate changes materially:
#
#   bench/run_baselines.sh <build-dir> [out.json]
#
# Environment (defaults chosen so a laptop run stays under ~1 minute):
#   OTB_BASELINE_MS            measured ms per data point     (default 400)
#   OTB_BASELINE_THREADS       thread counts, space-separated (default "1 2 4")
#   OTB_BASELINE_COMPARE       old baseline to diff against   (default: none)
#   OTB_BASELINE_TOLERANCE_PCT allowed per-series drop        (default 30)
set -euo pipefail

BUILD_DIR=${1:-build}
REPO_ROOT=$(cd "$(dirname "$0")/.." && pwd)
OUT=${2:-"$REPO_ROOT/BENCH_otb_baseline.json"}

export OTB_BENCH_MS=${OTB_BASELINE_MS:-400}
export OTB_BENCH_WARM_MS=${OTB_BENCH_WARM_MS:-50}
export OTB_BENCH_THREADS=${OTB_BASELINE_THREADS:-"1 2 4"}

BENCH_DIR="$BUILD_DIR/bench"
CHECK="$BENCH_DIR/metrics_check"
for exe in "$CHECK" "$BENCH_DIR/micro_ops"; do
  if [[ ! -x "$exe" ]]; then
    echo "error: $exe not built (build the bench targets first)" >&2
    exit 2
  fi
done

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# Figure harness -> metrics domains the validator must find in its dump.
FIGURES=(
  "fig3_3_list_set:otb.tx boosted"
  "fig3_4_skiplist_set_small:otb.tx boosted"
  "fig3_5_skiplist_set_large:otb.tx boosted"
  "fig3_6_pq_heap:otb.tx boosted"
  "fig3_7_pq_skiplist:otb.tx boosted"
)

run_names=()
for entry in "${FIGURES[@]}"; do
  name=${entry%%:*}
  domains=${entry#*:}
  exe="$BENCH_DIR/$name"
  if [[ ! -x "$exe" ]]; then
    echo "error: $exe not built" >&2
    exit 2
  fi
  echo "== $name (ms=$OTB_BENCH_MS threads='$OTB_BENCH_THREADS')"
  "$exe" --metrics-json="$TMP/$name.json" > "$TMP/$name.out"
  # shellcheck disable=SC2086
  "$CHECK" --validate "$TMP/$name.json" $domains > /dev/null
  run_names+=("$name")
done

# Service-plane closed loop at script lengths 1/2/4/8: the composition-
# overhead curve (EXPERIMENTS.md).  --script-len=1 submits the identical
# single-step requests the pre-script harness did, so load_service_s1 is
# the single-op throughput series the compare gate tracks across the API
# redesign.  Short fixed window/clients keep a laptop run quick; the
# figure-quality sweep lives in EXPERIMENTS.md's command lines.
if [[ -x "$BENCH_DIR/load_service" ]]; then
  for slen in 1 2 4 8; do
    name="load_service_s$slen"
    echo "== $name (closed loop, ms=$OTB_BENCH_MS)"
    "$BENCH_DIR/load_service" --mode=closed --script-len="$slen" \
      --duration-ms="$OTB_BENCH_MS" --clients=2 --workers=2 \
      --window=128 --batch-max=16 --key-range=256 \
      --metrics-json="$TMP/$name.json" > "$TMP/$name.out"
    "$CHECK" --validate "$TMP/$name.json" otb.service otb.tx > /dev/null
    run_names+=("$name")
  done
else
  echo "error: $BENCH_DIR/load_service not built" >&2
  exit 2
fi

# Read-mostly (90/10) and scan-heavy closed loops: the workloads the
# multi-version snapshot-read path (OTB_MV_VERSIONS, on by default) exists
# for — read-only scripts execute inline against version chains, so these
# two series gate the snapshot route's throughput in --compare runs.  The
# mixed 60/30/10 rows above keep gating the batched write path.
for mix in "readmostly:--read-pct=90" "scan:--read-pct=40 --scan-pct=50"; do
  name="load_service_${mix%%:*}"
  args=${mix#*:}
  echo "== $name (closed loop, ms=$OTB_BENCH_MS, $args)"
  # shellcheck disable=SC2086
  "$BENCH_DIR/load_service" --mode=closed --script-len=1 $args \
    --duration-ms="$OTB_BENCH_MS" --clients=2 --workers=2 \
    --window=128 --batch-max=16 --key-range=256 \
    --metrics-json="$TMP/$name.json" > "$TMP/$name.out"
  "$CHECK" --validate "$TMP/$name.json" otb.service otb.tx > /dev/null
  run_names+=("$name")
done

# Hot-key skew (90% of ops on 16 keys): the extreme-contention regime the
# transaction-fusion contention manager targets (src/service/fusion.h) —
# sharding cannot spread this load, so committed throughput rides on
# adopting donated batches or committing them under the exclusive gate
# instead of splitting them.  The fusion counters land in the same dump
# the validator checks.
name="load_service_hotkey"
echo "== $name (closed loop, ms=$OTB_BENCH_MS, --hot-pct=90 --hot-keys=16)"
"$BENCH_DIR/load_service" --mode=closed --script-len=1 \
  --hot-pct=90 --hot-keys=16 \
  --duration-ms="$OTB_BENCH_MS" --clients=2 --workers=2 \
  --window=128 --batch-max=16 --key-range=256 \
  --metrics-json="$TMP/$name.json" > "$TMP/$name.out"
"$CHECK" --validate "$TMP/$name.json" otb.service otb.tx > /dev/null
run_names+=("$name")

# WAL durability overhead: the same closed-loop single-step workload with
# the write-ahead log under group commit (docs/DURABILITY.md);
# load_service_s1 above is the wal-off arm.  The log lives in a tmpdir
# that dies with the run; the s1-vs-wal_group delta is the group-commit
# cost the EXPERIMENTS.md durability row tracks.
name="load_service_wal_group"
echo "== $name (closed loop, ms=$OTB_BENCH_MS, fsync=group)"
"$BENCH_DIR/load_service" --mode=closed --script-len=1 \
  --duration-ms="$OTB_BENCH_MS" --clients=2 --workers=2 \
  --window=128 --batch-max=16 --key-range=256 \
  --wal-dir="$TMP/wal_group" --wal-fsync=group \
  --metrics-json="$TMP/$name.json" > "$TMP/$name.out"
"$CHECK" --validate "$TMP/$name.json" otb.service otb.tx > /dev/null
run_names+=("$name")

# Network front end over real loopback sockets: the epoll server with a
# forked multi-process client fleet (closed loop, pipelined v2 frames).
# load_service_net is the single-plane arm; load_service_sharded runs the
# same fleet against four independent service planes behind the key-hash
# router (docs/SERVICE.md "Network server & sharding").  The sharded dump
# must carry all four per-shard ledger domains plus the net domain; the
# validator also checks the per-shard identities and their aggregate.
name="load_service_net"
echo "== $name (net fleet, ms=$OTB_BENCH_MS)"
"$BENCH_DIR/load_service" --mode=closed --script-len=1 \
  --duration-ms="$OTB_BENCH_MS" --clients=8 --processes=2 --net-threads=1 \
  --workers=2 --window=64 --batch-max=16 --key-range=256 \
  --metrics-json="$TMP/$name.json" > "$TMP/$name.out"
"$CHECK" --validate "$TMP/$name.json" otb.service otb.service.net otb.tx \
  > /dev/null
run_names+=("$name")

name="load_service_sharded"
echo "== $name (net fleet, 4 shards, ms=$OTB_BENCH_MS)"
"$BENCH_DIR/load_service" --mode=closed --script-len=1 --shards=4 \
  --duration-ms="$OTB_BENCH_MS" --clients=8 --processes=2 --net-threads=1 \
  --workers=2 --window=64 --batch-max=16 --key-range=256 \
  --metrics-json="$TMP/$name.json" > "$TMP/$name.out"
"$CHECK" --validate "$TMP/$name.json" otb.service.s0 otb.service.s1 \
  otb.service.s2 otb.service.s3 otb.service.net otb.tx > /dev/null
run_names+=("$name")

# micro_ops: transactional micro-latencies plus the validation-scaling
# sweep (the sweep's fast/full counters land in the otb.tx domain).
echo "== micro_ops (validation-scaling sweep + tx micro-ops)"
"$BENCH_DIR/micro_ops" \
  --benchmark_filter='BM_Otb|BM_StmReadWrite|ValidationSweep' \
  --benchmark_min_time=0.05 \
  --metrics-json="$TMP/micro_ops.json" > "$TMP/micro_ops.out"
"$CHECK" --validate "$TMP/micro_ops.json" otb.tx > /dev/null
run_names+=("micro_ops")

# Merge the per-run dumps into one self-describing baseline document.
{
  printf '{\n'
  printf '  "schema": "otb.bench_baseline/1",\n'
  printf '  "generated_by": "bench/run_baselines.sh",\n'
  printf '  "bench_ms": %s,\n' "$OTB_BENCH_MS"
  printf '  "threads": "%s",\n' "$OTB_BENCH_THREADS"
  printf '  "runs": {\n'
  for i in "${!run_names[@]}"; do
    name=${run_names[$i]}
    printf '    "%s": ' "$name"
    # Each dump is a complete otb.metrics/2 object; inline it verbatim.
    tr -d '\n' < "$TMP/$name.json"
    if (( i + 1 < ${#run_names[@]} )); then printf ',\n'; else printf '\n'; fi
  done
  printf '  }\n'
  printf '}\n'
} > "$OUT"

echo "baseline written to $OUT ($(wc -c < "$OUT") bytes, ${#run_names[@]} runs)"

# Optional regression gate: diff the fresh baseline against a recorded one.
if [[ -n "${OTB_BASELINE_COMPARE:-}" ]]; then
  if [[ ! -f "$OTB_BASELINE_COMPARE" ]]; then
    echo "error: OTB_BASELINE_COMPARE=$OTB_BASELINE_COMPARE not found" >&2
    exit 2
  fi
  echo "== compare against $OTB_BASELINE_COMPARE"
  "$CHECK" --compare "$OTB_BASELINE_COMPARE" "$OUT" \
    "${OTB_BASELINE_TOLERANCE_PCT:-30}"
fi
