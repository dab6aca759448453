// Umbrella header for the otb::metrics observability subsystem.
//
//   Counter / NsTimer  — per-thread sharded, cacheline-aligned cells
//   Histogram          — log2-bucketed latencies (attempt/validation/commit)
//   AbortReason        — taxonomy replacing the old single `aborts` counter
//   TxTally            — per-context plain accumulator, flushed per attempt
//   MetricsSink        — injectable instrument bundle (one per domain)
//   Registry           — process-global named sinks -> Snapshot
//   to_json/from_json  — schema "otb.metrics/9" export + strict import
//
// See docs/METRICS.md for the counter catalogue and JSON schema.
#pragma once

#include "metrics/abort_reason.h"
#include "metrics/counter.h"
#include "metrics/histogram.h"
#include "metrics/json.h"
#include "metrics/registry.h"
#include "metrics/sink.h"
#include "metrics/snapshot.h"
#include "metrics/tally.h"
