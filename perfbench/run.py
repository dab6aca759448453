#!/usr/bin/env python3
"""Build the benchmark driver and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  The driver (perfbench/driver.cpp) is
built with CMake from perfbench/CMakeLists.txt into
$CARGO_TARGET_DIR/perfbench/build (default .bench_build/perfbench/build);
its scratch files (WAL directories, span dumps) go to .../perfbench/run.

The last line of standard output is the result object
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1).  The run record and a metric table are
printed before it; per-window figures, the output checks and the span
summary go to standard error.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DRIVER_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def output_dir():
    """$CARGO_TARGET_DIR/perfbench when it lies inside the checkout."""
    base = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))
    if os.path.commonpath([base, ROOT]) != ROOT:
        base = os.path.join(ROOT, ".bench_build")
    return os.path.join(base, "perfbench")


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", build_dir],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench_driver")


def source_identity():
    """The git commit when there is one, and always a digest of the sources
    the driver is built from (a benchmark checkout is not a git repo)."""
    ident = {}
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            ident["git_commit"] = r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    ident["source_sha256"] = h.hexdigest()
    return ident


def run_driver(cmd):
    env = {k: v for k, v in os.environ.items() if not k.startswith("OTB_")}
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"driver did not finish within {DRIVER_TIMEOUT_S} s")
    lines = out.strip().splitlines()
    if not lines:
        fail(f"driver printed no result (exit {proc.returncode})")
    try:
        return proc.returncode, json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"driver result is not JSON (exit {proc.returncode})")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "service", "service.h")):
        fail("the otb sources (src/) are not beside perfbench/", 2)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read BENCHMARK.json: {e}", 2)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}", 2)

    out = output_dir()
    driver = build(os.path.join(out, "build"))
    code, result = run_driver([
        driver, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--run-dir", os.path.join(out, "run")])

    record = result.get("record", {})
    record.update(source_identity())
    record["python"] = sys.version.split()[0]
    print("run record: " + json.dumps(record, sort_keys=True))
    final = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    if not final["correct"] or code != 0:
        print(json.dumps(final))
        fail("output checks failed; see the checks above")

    declared = spec["per_layer" if args.trace else "end_to_end"]
    if sorted(m["name"] for m in declared) != sorted(final["metrics"]):
        fail("driver metrics differ from BENCHMARK.json")
    for m in declared:
        v = final["metrics"][m["name"]]
        print(f"  {m['name']:<40} {v['value']:>16.6g} {v['unit']}")
    print(json.dumps(final))


if __name__ == "__main__":
    main()
