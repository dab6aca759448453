#!/usr/bin/env python3
"""Measure the benchmark's own run-to-run spread.

    python3 perfbench/steady.py --seeds 10 [--workloads a,b] [--seconds 10]
                                [--out runs.jsonl]
    python3 perfbench/steady.py --report runs.jsonl [--report more.jsonl]

Runs perfbench/run.py once per (seed, workload), seeds outermost so the
workloads interleave, and appends each result to --out as one JSON line.
The report gives, per workload and end-to-end metric, the median of the
runs and the distance between their first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound in BENCHMARK.json.  A spread above a third of the bound is
marked; setup_s is listed but exempt.  With two --report files it also
compares their medians.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_all(spec, workloads, seeds, seconds, out):
    for seed in seeds:
        for wl in workloads:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                   wl, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", "0"]
            r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = r.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            record = [json.loads(line.split(":", 1)[1]) for line in lines
                      if line.startswith("run record:")]
            row = {"workload": wl, "seed": seed, "exit": r.returncode,
                   "result": result, "record": record[0] if record else {}}
            with open(out, "a") as f:
                f.write(json.dumps(row) + "\n")
            m = result.get("metrics", {})
            print(f"seed {seed:>4} {wl:<18} exit {r.returncode} " +
                  " ".join(f"{k}={v['value']:.4g}" for k, v in m.items()),
                  flush=True)


def summarise(spec, path):
    rows = [json.loads(line) for line in open(path) if line.strip()]
    table = {}
    for row in rows:
        for name, v in row["result"].get("metrics", {}).items():
            table.setdefault(row["workload"], {}).setdefault(name, []).append(
                v["value"])
    return table


def report(spec, table, label):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"== {label}")
    print(f"{'workload':<18} {'metric':<14} {'n':>3} {'median':>12} "
          f"{'iqr/med':>8} {'bound':>6}")
    for wl, metrics in table.items():
        for name, values in metrics.items():
            if name not in bounds or len(values) < 2:
                continue
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if name != "setup_s" and spread > bounds[name] / 3:
                flag = "  <-- above bound/3" if spread <= bounds[name] else \
                    "  <-- ABOVE BOUND"
            print(f"{wl:<18} {name:<14} {len(values):>3} {med:>12.5g} "
                  f"{spread:>8.3f} {bounds[name]:>6}{flag}")


def compare(spec, a, b):
    better = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    print("== second medians against first")
    for wl in a:
        for name, (direction, bound) in better.items():
            if name not in a[wl] or name not in b.get(wl, {}):
                continue
            m1 = statistics.median(a[wl][name])
            m2 = statistics.median(b[wl][name])
            worse = (m2 - m1) / m1 if direction == "lower" else (m1 - m2) / m1
            flag = "  <-- WORSE BEYOND BOUND" if worse > bound else ""
            print(f"{wl:<18} {name:<14} {m1:>12.5g} {m2:>12.5g} "
                  f"{worse:>+8.3f}{flag}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--out", default="steady-runs.jsonl")
    ap.add_argument("--report", action="append", default=[])
    args = ap.parse_args()
    spec = load_spec()
    if not args.report:
        workloads = [w for w in args.workloads.split(",") if w] or \
            [w["name"] for w in spec["workloads"]]
        seeds = range(args.first_seed, args.first_seed + args.seeds)
        run_all(spec, workloads, seeds, args.seconds or spec["run_seconds"],
                args.out)
        args.report = [args.out]
    tables = [summarise(spec, p) for p in args.report]
    for path, table in zip(args.report, tables):
        report(spec, table, path)
    if len(tables) == 2:
        compare(spec, tables[0], tables[1])


if __name__ == "__main__":
    main()
