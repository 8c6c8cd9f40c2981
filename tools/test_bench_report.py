#!/usr/bin/env python3
"""Unit tests for tools/bench_report.py: distillation, the zero-alloc gate,
and the baseline context check (an explicit baseline from another host or
CPU count is refused; an auto-picked one is skipped)."""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_report  # noqa: E402

_SENTINELS = bench_report._GATE_SENTINELS


def raw_benchmarks(host="box", cpus=4, cpu_ns=100.0, allocs=0):
    """A google-benchmark JSON document with every gate sentinel."""
    benches = [{"name": "BM_Fast", "run_type": "iteration", "iterations": 10,
                "real_time": cpu_ns, "cpu_time": cpu_ns, "time_unit": "ns"}]
    for name in _SENTINELS:
        benches.append({"name": name, "run_type": "iteration",
                        "iterations": 10, "real_time": 1.0, "cpu_time": 1.0,
                        "time_unit": "us", "allocs": allocs})
    return {"context": {"host_name": host, "num_cpus": cpus,
                        "mhz_per_cpu": 2000, "date": "ignored"},
            "benchmarks": benches}


class ReportTestCase(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self._tmp.name)
        self._cwd = os.getcwd()
        os.chdir(self.dir)  # auto-pick scans the working directory

    def tearDown(self):
        os.chdir(self._cwd)
        self._tmp.cleanup()

    def write(self, name, doc):
        path = self.dir / name
        path.write_text(json.dumps(doc))
        return path

    def run_main(self, *argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = bench_report.main([str(a) for a in argv])
        return rc, out.getvalue(), err.getvalue()

    def report(self, name="report.json"):
        return json.loads((self.dir / name).read_text())


class Distill(ReportTestCase):
    def test_keeps_counters_and_drops_noisy_context(self):
        raw = self.write("raw.json", raw_benchmarks())
        rc, _out, _err = self.run_main(raw, "-o", "report.json", "--pr", 7,
                                       "--no-baseline")
        self.assertEqual(rc, 0)
        doc = self.report()
        self.assertEqual(doc["pr"], 7)
        self.assertNotIn("date", doc["context"])
        self.assertEqual(doc["benchmarks"]["BM_Fast"]["cpu_time_ns"], 100.0)
        self.assertEqual(
            doc["benchmarks"]["BM_MediumTxAllocs"]["counters"]["allocs"], 0.0)
        self.assertNotIn("baseline", doc)

    def test_malformed_input_exits_2(self):
        raw = self.write("raw.json", {"benchmarks": []})
        rc, _out, err = self.run_main(raw, "-o", "report.json")
        self.assertEqual(rc, 2)
        self.assertIn("malformed", err)


class ZeroAllocGate(ReportTestCase):
    def test_passes_at_zero(self):
        raw = self.write("raw.json", raw_benchmarks())
        rc, out, _err = self.run_main(raw, "-o", "report.json",
                                      "--no-baseline", "--gate-zero-alloc")
        self.assertEqual(rc, 0)
        self.assertIn("zero-alloc gate passed", out)

    def test_fails_on_an_allocation(self):
        raw = self.write("raw.json", raw_benchmarks(allocs=3))
        rc, _out, err = self.run_main(raw, "-o", "report.json",
                                      "--no-baseline", "--gate-zero-alloc")
        self.assertEqual(rc, 1)
        self.assertIn("GATE FAILED", err)


class BaselineContext(ReportTestCase):
    def test_explicit_baseline_from_the_same_context_is_compared(self):
        raw = self.write("raw.json", raw_benchmarks(cpu_ns=100.0))
        base = self.write("base.json", raw_benchmarks(cpu_ns=200.0))
        rc, _out, _err = self.run_main(raw, "-o", "report.json",
                                       "--baseline", base)
        self.assertEqual(rc, 0)
        self.assertEqual(self.report()["speedup_vs_baseline"]["BM_Fast"], 2.0)

    def test_explicit_baseline_from_another_host_is_refused(self):
        raw = self.write("raw.json", raw_benchmarks(host="box"))
        base = self.write("base.json", raw_benchmarks(host="other"))
        rc, _out, err = self.run_main(raw, "-o", "report.json",
                                      "--baseline", base)
        self.assertEqual(rc, 2)
        self.assertIn("host_name", err)
        self.assertFalse((self.dir / "report.json").exists())

    def test_explicit_baseline_with_another_cpu_count_is_refused(self):
        raw = self.write("raw.json", raw_benchmarks(cpus=4))
        base = self.write("base.json", raw_benchmarks(cpus=1))
        rc, _out, err = self.run_main(raw, "-o", "report.json",
                                      "--baseline", base)
        self.assertEqual(rc, 2)
        self.assertIn("num_cpus", err)

    def test_explicit_baseline_without_a_context_is_refused(self):
        raw = self.write("raw.json", raw_benchmarks())
        base_doc = raw_benchmarks()
        del base_doc["context"]
        base = self.write("base.json", base_doc)
        rc, _out, _err = self.run_main(raw, "-o", "report.json",
                                       "--baseline", base)
        self.assertEqual(rc, 2)

    def test_distilled_baseline_carries_its_context(self):
        raw = self.write("raw.json", raw_benchmarks(cpu_ns=100.0))
        old = self.write("old_raw.json", raw_benchmarks(cpu_ns=300.0))
        self.assertEqual(self.run_main(old, "-o", "BENCH_3.json",
                                       "--no-baseline")[0], 0)
        rc, _out, _err = self.run_main(raw, "-o", "report.json",
                                       "--baseline", "BENCH_3.json")
        self.assertEqual(rc, 0)
        self.assertEqual(self.report()["speedup_vs_baseline"]["BM_Fast"], 3.0)

    def test_auto_picked_baseline_from_another_context_is_skipped(self):
        self.write("BENCH_4.json", {
            "schema": "rtmac.bench", "version": 1, "pr": 4,
            "context": {"host_name": "other", "num_cpus": 1},
            "benchmarks": {"BM_Fast": {"cpu_time_ns": 50.0,
                                       "real_time_ns": 50.0}}})
        raw = self.write("raw.json", raw_benchmarks())
        rc, out, _err = self.run_main(raw, "-o", "report.json",
                                      "--gate-zero-alloc")
        self.assertEqual(rc, 0)
        self.assertIn("skipping baseline BENCH_4.json", out)
        doc = self.report()
        self.assertNotIn("baseline", doc)
        self.assertNotIn("speedup_vs_baseline", doc)

    def test_auto_picked_baseline_from_the_same_context_is_used(self):
        self.write("BENCH_4.json", {
            "schema": "rtmac.bench", "version": 1, "pr": 4,
            "context": {"host_name": "box", "num_cpus": 4},
            "benchmarks": {"BM_Fast": {"cpu_time_ns": 50.0,
                                       "real_time_ns": 50.0}}})
        raw = self.write("raw.json", raw_benchmarks(cpu_ns=100.0))
        rc, out, _err = self.run_main(raw, "-o", "report.json")
        self.assertEqual(rc, 0)
        self.assertIn("auto-picked: BENCH_4.json", out)
        self.assertEqual(self.report()["speedup_vs_baseline"]["BM_Fast"], 0.5)


if __name__ == "__main__":
    unittest.main()
