"""Smoke tests for the benchmark itself, at tiny run lengths.

    python3 benchmarks/smoke.py

The file name keeps pytest from collecting it with the package's tests.
Each case runs benchmarks/run.py as a subprocess, as the benchmark is run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(checkout: str, workload: str, trace: int = 0, seconds: float = 0.5):
    return subprocess.run(
        [sys.executable, os.path.join(checkout, "benchmarks", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=170,
    )


def scratch_checkout(with_src: bool) -> str:
    """A copy of BENCHMARK.json and benchmarks/ (and src/ if asked) under .bench_out."""
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="smoke-", dir=os.path.join(ROOT, ".bench_out"))
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
    shutil.copytree(HERE, os.path.join(tmp, "benchmarks"), ignore=skip)
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(tmp, "src"), ignore=skip)
    return tmp


class EveryMetricPrinted(unittest.TestCase):
    def check(self, workload: str, trace: int) -> None:
        proc = run(ROOT, workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        section = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in section})
        for m in section:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        info = json.loads(proc.stdout.splitlines()[-2])
        self.assertEqual(info["problems"], [])
        if trace:
            self.assertEqual(info["digests"]["records"], info["digests"]["records_traced"])
            self.assertEqual(info["absent"], [])

    def test_untraced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, 0)

    def test_traced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, 1)


class FailsLoudly(unittest.TestCase):
    def test_corrupted_record_digest_fails(self):
        tmp = scratch_checkout(with_src=True)
        try:
            path = os.path.join(tmp, "benchmarks", "golden.json")
            with open(path) as fh:
                golden = json.load(fh)
            digest = golden["N1000_f0.2"]["sha256"]
            golden["N1000_f0.2"]["sha256"] = ("0" if digest[0] != "0" else "1") + digest[1:]
            with open(path, "w") as fh:
                json.dump(golden, fh)
            for workload in ("mc_small", "mc_small_w2"):
                with self.subTest(workload=workload):
                    proc = run(tmp, workload)
                    self.assertNotEqual(proc.returncode, 0)
                    self.assertIs(json.loads(proc.stdout.splitlines()[-1])["correct"], False)
                    self.assertIn("canary N1000_f0.2", proc.stderr)
        finally:
            shutil.rmtree(tmp)

    def test_without_program_sources_prints_no_result(self):
        tmp = scratch_checkout(with_src=False)
        try:
            proc = run(tmp, "mc_small")
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(tmp)


class TracerReportsAbsentTargets(unittest.TestCase):
    def test_missing_name_is_absent_not_a_crash(self):
        sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
        import spans
        from netpeer import graph

        original = graph.generate_er
        targets = spans.TARGETS
        spans.TARGETS = targets + (("graph", "no_such_function"), ("no_such_module", "f"))
        try:
            tracer = spans.Tracer()
            tracer.install()
            self.assertIsNot(graph.generate_er, original)
            tracer.uninstall()
        finally:
            spans.TARGETS = targets
        self.assertIs(graph.generate_er, original)
        self.assertEqual(tracer.absent, ["graph.no_such_function", "no_such_module.f"])


if __name__ == "__main__":
    unittest.main()
