#!/usr/bin/env python3
"""rtmac benchmark: build the perfbench binary from source, run one workload, check it.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The perfbench binary (perfbench/src) is compiled with CMake into
.bench_build/perfbench together with the rtmac library from src/. It
repeats the workload's fixed unit of work for --seconds seconds and
reports its best unit (end-to-end) or medians over the units (per-layer).
This script then checks the run: every simulated run
passed its output checks, and the result digest equals the one recorded
in expected_digests.json for that seed. The binary itself checks that
its traced and 1-worker units give the same digest. The last line of
standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json when --trace 0 and the
per-layer metrics when --trace 1. Exits non-zero without a result line when
the build or the run fails.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_sweep", "city_sparse", "coupled_chain", "observed_city")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(jobs):
    out = os.path.join(ROOT, ".bench_build", "perfbench")
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", out, "-j", str(jobs)]):
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return None
    return os.path.join(out, "perfbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    binary = build(min(cpus or 1, 4))
    if binary is None:
        return 1

    with open(os.path.join(HERE, "expected_digests.json"), encoding="utf-8") as f:
        expected = json.load(f)
    names = declared_metrics(args.trace)

    out_dir = os.path.join(os.path.dirname(binary), "out")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"{args.workload} exited with code {proc.returncode}")
        return 1
    run = json.loads(lines[-1])

    attempted = max(1, int(run["attempted"]))
    failed = int(run["failed"])
    problems = []
    want = expected["digests"].get(str(args.seed), {}).get(args.workload)
    if want is not None and run["digest"] != want:
        problems.append(f"digest {run['digest']} != recorded {want}")
    metrics = {}
    for name in names:
        m = run["metrics"].get(name)
        if m is None or not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"metric {name} missing or not finite")
            continue
        metrics[name] = {"value": m["value"], "unit": m["unit"]}
    for p in problems:
        log(f"check failed: {p}")
    if problems:
        failed += 1
    failed = min(failed, attempted)

    print(f"# rtmac perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"build={run['build_type']} nproc={run['nproc']} workers={run['workers']} "
          f"digest={run['digest']} attempted={attempted} failed={failed}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
