#!/usr/bin/env python3
"""Convert google-benchmark JSON into a committed BENCH_*.json trajectory
point.

The micro engine benchmark emits google-benchmark JSON (--benchmark_format=
json). This tool distills it into the repo's perf-trajectory format: one
small, sorted, schema-versioned JSON document per PR that records wall-clock
throughput (informative — shared CI runners make absolute numbers noisy) and
allocation counts (exact and deterministic — CI gates on them).

Typical use:

    ./build/bench/micro_engine_benchmark --benchmark_format=json > raw.json
    python3 tools/bench_report.py raw.json -o BENCH_5.json --pr 5 \
        --baseline prior_raw.json --gate-zero-alloc

Gating: with --gate-zero-alloc, every benchmark whose name contains
"Allocs" must report all of its allocation counters ("allocs",
"allocs_per_interval", ...) as exactly 0, or the tool exits 1. The gate also
requires the sentinel benchmarks BM_EventQueueSteadyStateAllocs,
BM_DbdpIntervalAllocs, BM_SketchUpdateAllocs, BM_MediumTxAllocs and
BM_ShardedIntervalAllocs/{city,chain} to be present, so renaming
or dropping them cannot silently disable it. Malformed or empty input exits 2. A benchmark JSON that
parses but carries error_occurred entries also exits 2 (a crashed benchmark
must fail CI, not produce a hollow trajectory point).

With --gate-rss-kb N, the embedded rtmac.city_scale extra (see --extra)
must report million_peak_rss_kb <= N, or the tool exits 1. The gate
refuses to pass vacuously: a missing city_scale extra or a missing RSS
field is itself a violation. CI points N at the smoke run's scaled
ceiling; the full 10^6-link ceiling lives in bench/city_scale.cpp
(kMillionLinkRssCeilingKb) and the committed BENCH_N.json records the
measured value either way.

--baseline accepts either raw google-benchmark JSON or an already-distilled
rtmac.bench document (e.g. the committed BENCH_N.json of the previous PR),
detected by its "schema" field. When --baseline is omitted, the tool
auto-picks the highest-numbered committed BENCH_N.json in the current
directory (skipping the file named by -o, so regenerating a trajectory
point never uses itself as its own baseline); --no-baseline disables the
comparison entirely.

A speedup is only meaningful against a baseline from the same context: the
same host and the same CPU count. A baseline whose context names a
different host_name or num_cpus than this run (or lacks either field) is
refused with exit 2 when given explicitly; an auto-picked one is skipped
with the reason printed, so a run on other hardware (a CI runner) still
distills its report, just without a speedup map.

--extra FILE (repeatable) embeds additional JSON documents — e.g. the
city-scale sharded-engine numbers written by bench/city_scale to
bench_out/city_scale.json — under the output's "extra" map, keyed by the
document's "schema" field (file stem as fallback).

Output schema (rtmac.bench v1):

    {"schema": "rtmac.bench", "version": 1, "pr": N,
     "context": {<host/cpu info from google-benchmark>},
     "benchmarks": {name: {"real_time_ns", "cpu_time_ns",
                           "items_per_second"?, "counters": {...}}},
     "baseline": {<same benchmarks shape, from --baseline>},
     "speedup_vs_baseline": {name: cpu_time ratio (old/new)}}
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# Time-unit multipliers to nanoseconds.
_TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

# Context keys worth keeping; the rest (dates, load averages) only add noise
# to committed diffs.
_CONTEXT_KEYS = ("host_name", "executable", "num_cpus", "mhz_per_cpu",
                 "cpu_scaling_enabled", "library_build_type")


# Context fields a baseline must share with the current run before their
# times may be compared.
_BASELINE_CONTEXT_KEYS = ("host_name", "num_cpus")


class ReportError(Exception):
    """Malformed benchmark input."""


class ContextMismatch(Exception):
    """An explicit baseline was recorded in another context."""


def _to_ns(value, unit):
    try:
        return float(value) * _TO_NS[unit]
    except (KeyError, TypeError, ValueError) as e:
        raise ReportError(f"bad time value {value!r} with unit {unit!r}") from e


def distill(raw):
    """google-benchmark JSON dict -> {name: {...}} benchmark map."""
    if not isinstance(raw, dict) or not isinstance(raw.get("benchmarks"), list):
        raise ReportError("input is not google-benchmark JSON "
                          "(missing 'benchmarks' list)")
    if not raw["benchmarks"]:
        raise ReportError("'benchmarks' list is empty")
    out = {}
    for bench in raw["benchmarks"]:
        if not isinstance(bench, dict) or "name" not in bench:
            raise ReportError(f"benchmark entry without a name: {bench!r}")
        name = bench["name"]
        if bench.get("error_occurred"):
            raise ReportError(
                f"{name}: benchmark reported an error: "
                f"{bench.get('error_message', 'unknown')}")
        if bench.get("run_type") == "aggregate":
            continue  # keep raw runs only; aggregates are derived
        unit = bench.get("time_unit", "ns")
        entry = {
            "real_time_ns": _to_ns(bench.get("real_time"), unit),
            "cpu_time_ns": _to_ns(bench.get("cpu_time"), unit),
        }
        if "items_per_second" in bench:
            entry["items_per_second"] = float(bench["items_per_second"])
        # google-benchmark flattens user counters into the benchmark object;
        # collect everything numeric that is not a known structural field.
        known = {"name", "run_name", "run_type", "repetitions",
                 "repetition_index", "threads", "iterations", "real_time",
                 "cpu_time", "time_unit", "items_per_second",
                 "bytes_per_second", "label", "family_index",
                 "per_family_instance_index", "error_occurred",
                 "error_message"}
        counters = {k: float(v) for k, v in bench.items()
                    if k not in known and isinstance(v, (int, float))}
        if counters:
            entry["counters"] = counters
        out[name] = entry
    if not out:
        raise ReportError("no raw benchmark runs in input")
    return out


# Benchmarks the zero-alloc gate insists on seeing: the engine churn window,
# the full DB-DP interval path, the quantile-sketch update path, the
# Medium's transmission lifecycle (marked-view dispatch), and the sharded
# city's and chain's chunked parallel_for dispatch. Their absence means the
# gate would pass vacuously, so it is treated as a violation.
_GATE_SENTINELS = ("BM_EventQueueSteadyStateAllocs", "BM_DbdpIntervalAllocs",
                   "BM_SketchUpdateAllocs", "BM_MediumTxAllocs",
                   "BM_ShardedIntervalAllocs/city", "BM_ShardedIntervalAllocs/chain",
                   "BM_StreamSnapshotAllocs/4096")


def gate_zero_alloc(benchmarks):
    """Returns a list of violation strings for the zero-alloc gate."""
    violations = []
    gated = {n: b for n, b in benchmarks.items() if "Allocs" in n}
    for sentinel in _GATE_SENTINELS:
        if sentinel not in gated:
            violations.append(
                f"{sentinel} missing from input (the zero-alloc gate would "
                f"pass vacuously; did the benchmark get renamed?)")
    for name, bench in sorted(gated.items()):
        counters = {k: v for k, v in bench.get("counters", {}).items()
                    if k == "allocs" or k.startswith("allocs")}
        if not counters:
            violations.append(f"{name}: no allocation counter to gate on")
        for counter, value in sorted(counters.items()):
            if value != 0:
                violations.append(
                    f"{name}: {counter} = {value:g} heap allocations in the "
                    f"steady-state window (must be 0)")
    return violations


def gate_rss(extras, limit_kb):
    """Violations for the peak-RSS gate against the city_scale extra.

    Reads million_peak_rss_kb from the embedded rtmac.city_scale document.
    Absence is a violation, not a pass: the gate exists to catch the
    regression where per-link heap state silently returns, and a missing
    measurement is indistinguishable from one nobody ran."""
    doc = extras.get("rtmac.city_scale")
    if not isinstance(doc, dict):
        return ["--gate-rss-kb needs the rtmac.city_scale extra "
                "(pass --extra bench_out/city_scale.json)"]
    rss = doc.get("million_peak_rss_kb")
    if not isinstance(rss, (int, float)):
        return ["rtmac.city_scale extra has no million_peak_rss_kb field"]
    if rss > limit_kb:
        return [f"million-link phase peak RSS {rss:g} KB exceeds the "
                f"{limit_kb:g} KB ceiling"]
    return []


# rtmac.bench document versions this tool can read. Bump alongside the
# writer (emit_report) whenever the document shape changes.
KNOWN_BENCH_VERSIONS = (1,)


def load_benchmarks(raw):
    """Benchmark map from raw google-benchmark JSON or a distilled
    rtmac.bench document (committed BENCH_N.json), detected by schema.

    Unknown rtmac.bench versions (and unrecognized schema strings) are
    refused with a clear error: silently mis-reading a future document
    shape would corrupt every regression comparison downstream."""
    if isinstance(raw, dict) and "schema" in raw:
        # Anything carrying a schema tag must identify itself exactly; raw
        # google-benchmark output has no "schema" key and falls through.
        schema = raw.get("schema")
        if schema != "rtmac.bench":
            raise ReportError(
                f"unknown schema {schema!r} (this tool reads 'rtmac.bench' "
                "documents and raw google-benchmark JSON)")
        version = raw.get("version")
        if version not in KNOWN_BENCH_VERSIONS:
            known = ", ".join(str(v) for v in KNOWN_BENCH_VERSIONS)
            raise ReportError(
                f"rtmac.bench document has version {version!r} but this "
                f"tool only knows version(s) {known} — update "
                "tools/bench_report.py (KNOWN_BENCH_VERSIONS) alongside "
                "the schema change")
        benchmarks = raw.get("benchmarks")
        if not isinstance(benchmarks, dict) or not benchmarks:
            raise ReportError("rtmac.bench document without a benchmark map")
        return benchmarks
    return distill(raw)


def latest_committed_baseline(directory=Path("."), exclude=None):
    """Highest-numbered BENCH_<N>.json in `directory`, or None.

    `exclude` (a Path) is skipped so an invocation writing BENCH_8.json
    never picks its own output as the baseline.
    """
    best = None
    best_n = -1
    for path in directory.glob("BENCH_*.json"):
        stem = path.stem[len("BENCH_"):]
        if not stem.isdigit():
            continue
        if exclude is not None and path.resolve() == Path(exclude).resolve():
            continue
        if int(stem) > best_n:
            best_n = int(stem)
            best = path
    return best


def context_mismatches(current, baseline):
    """Why a baseline recorded in context `baseline` cannot be compared with
    a run in context `current` (both context dicts): one reason per
    differing or missing _BASELINE_CONTEXT_KEYS field, empty when they
    match."""
    reasons = []
    for key in _BASELINE_CONTEXT_KEYS:
        ours, theirs = current.get(key), baseline.get(key)
        if ours is None or theirs is None or ours != theirs:
            reasons.append(f"{key} {theirs!r} in the baseline, {ours!r} here")
    return reasons


def speedups(current, baseline):
    out = {}
    for name, bench in sorted(current.items()):
        base = baseline.get(name)
        if base and bench.get("cpu_time_ns"):
            out[name] = round(base["cpu_time_ns"] / bench["cpu_time_ns"], 3)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("input", type=Path,
                        help="google-benchmark JSON (--benchmark_format=json)")
    parser.add_argument("-o", "--output", type=Path, required=True,
                        help="trajectory point to write (e.g. BENCH_5.json)")
    parser.add_argument("--pr", type=int, default=None,
                        help="PR number this point belongs to")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="pre-change benchmarks: raw google-benchmark "
                             "JSON or a distilled BENCH_N.json; embedded for "
                             "before/after comparison (default: the latest "
                             "committed BENCH_N.json in the current "
                             "directory, if any)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="skip the baseline comparison even when a "
                             "committed BENCH_N.json exists")
    parser.add_argument("--extra", type=Path, action="append", default=[],
                        help="embed this JSON document under the output's "
                             "'extra' map (repeatable); e.g. the "
                             "bench_out/city_scale.json written by "
                             "bench/city_scale")
    parser.add_argument("--gate-zero-alloc", action="store_true",
                        help="fail (exit 1) unless every *Allocs* benchmark "
                             "reports all allocation counters == 0")
    parser.add_argument("--gate-rss-kb", type=float, default=None,
                        metavar="KB",
                        help="fail (exit 1) unless the embedded "
                             "rtmac.city_scale extra reports "
                             "million_peak_rss_kb <= KB")
    args = parser.parse_args(argv)

    try:
        raw = json.loads(args.input.read_text())
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_report: cannot read {args.input}: {e}", file=sys.stderr)
        return 2

    try:
        benchmarks = distill(raw)
        doc = {"schema": "rtmac.bench", "version": 1}
        if args.pr is not None:
            doc["pr"] = args.pr
        context = raw.get("context", {})
        doc["context"] = {k: context[k] for k in _CONTEXT_KEYS if k in context}
        doc["benchmarks"] = benchmarks
        baseline_path = args.baseline
        auto_picked = False
        if baseline_path is None and not args.no_baseline:
            baseline_path = latest_committed_baseline(exclude=args.output)
            auto_picked = baseline_path is not None
            if auto_picked:
                print(f"bench_report: baseline auto-picked: {baseline_path}")
        if baseline_path is not None and not args.no_baseline:
            base_raw = json.loads(baseline_path.read_text())
            base = load_benchmarks(base_raw)
            base_context = base_raw.get("context")
            mismatches = context_mismatches(
                doc["context"], base_context if isinstance(base_context, dict) else {})
            if mismatches and not auto_picked:
                raise ContextMismatch(
                    f"baseline {baseline_path} was recorded in another "
                    f"context ({'; '.join(mismatches)}); its times are not "
                    "comparable")
            if mismatches:
                print(f"bench_report: skipping baseline {baseline_path}, "
                      f"recorded in another context: {'; '.join(mismatches)}")
            else:
                doc["baseline"] = base
                doc["speedup_vs_baseline"] = speedups(benchmarks, base)
        for extra_path in args.extra:
            extra = json.loads(extra_path.read_text())
            if not isinstance(extra, dict):
                raise ReportError(f"{extra_path}: --extra expects a JSON object")
            key = extra.get("schema") or extra_path.stem
            doc.setdefault("extra", {})[str(key)] = extra
    except (ReportError, OSError, json.JSONDecodeError) as e:
        print(f"bench_report: malformed input: {e}", file=sys.stderr)
        return 2
    except ContextMismatch as e:
        print(f"bench_report: refused: {e}", file=sys.stderr)
        return 2

    args.output.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"bench_report: wrote {args.output} "
          f"({len(benchmarks)} benchmarks)")

    if args.gate_zero_alloc:
        violations = gate_zero_alloc(benchmarks)
        for v in violations:
            print(f"bench_report: GATE FAILED: {v}", file=sys.stderr)
        if violations:
            return 1
        print("bench_report: zero-alloc gate passed")
    if args.gate_rss_kb is not None:
        violations = gate_rss(doc.get("extra", {}), args.gate_rss_kb)
        for v in violations:
            print(f"bench_report: GATE FAILED: {v}", file=sys.stderr)
        if violations:
            return 1
        print(f"bench_report: peak-RSS gate passed "
              f"(ceiling {args.gate_rss_kb:g} KB)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
