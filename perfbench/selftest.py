"""Self-tests of the benchmark's tracer.  Run from the repository root:

    python3 perfbench/selftest.py [-v]

Each workload is run once untraced and twice traced, every run in a fresh
process.  The tests check that tracing changes no report byte, that the
per-layer self times account for the traced total, that the exact counts
repeat between runs, and that `numbers-200` never reaches `poly`.
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
import tempfile
import unittest
from pathlib import Path

import run
from workloads import WORKLOADS

# Self times are differences of one clock, so they add up to the root span
# exactly up to float rounding; the root span itself sits inside the
# tracer's outer timer, whose extra cost is the redirect of stdout.
SUM_TOLERANCE = 0.01


def _traced(name: str, *extra: str) -> dict:
    cmd = [sys.executable, str(run.TRACER), "--workload", name, *extra]
    child = run.run_child(cmd, run.child_env())
    if child.exit_code != 0:
        raise AssertionError(child.stderr.decode(errors="replace"))
    return json.loads(child.stdout.splitlines()[-1])


class TracerTests(unittest.TestCase):
    runs: dict[str, tuple[dict, dict]] = {}
    untraced: dict[str, str] = {}

    @classmethod
    def setUpClass(cls) -> None:
        env = run.child_env()
        for name, w in WORKLOADS.items():
            child = run.run_child([sys.executable, "-m", "qgenocchi", *w.argv], env)
            cls.untraced[name] = hashlib.sha256(child.stdout).hexdigest()
            cls.runs[name] = (_traced(name), _traced(name))

    def test_tracing_changes_no_report_byte(self):
        for name, w in WORKLOADS.items():
            with self.subTest(workload=name):
                self.assertEqual(self.untraced[name], w.golden.sha256)
                for result in self.runs[name]:
                    self.assertEqual(result["sha256"], self.untraced[name])
                    self.assertEqual(result["size"], w.golden.size)
                    self.assertEqual(result["exit_code"], w.golden.exit_code)

    def test_self_times_sum_to_traced_total(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                spans = self.runs[name][0]["spans"]
                wall = self.runs[name][0]["wall_s"]
                self.assertEqual(spans["cli.main"]["calls"], 1)
                self.assertTrue(all(s["self_s"] >= 0 for s in spans.values()))
                by_module: dict[str, float] = {}
                for span, stats in spans.items():
                    module = span.split(".")[0]
                    by_module[module] = by_module.get(module, 0.0) + stats["self_s"]
                self.assertAlmostEqual(
                    sum(by_module.values()), spans["cli.main"]["total_s"], delta=1e-6
                )
                self.assertLessEqual(abs(sum(by_module.values()) - wall), SUM_TOLERANCE * wall)

    def test_exact_counts_repeat(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                first, second = self.runs[name]
                exact = [k for k in first["metrics"] if not k.endswith("_s")]
                self.assertIn("poly.mul.coeff_products", exact)
                self.assertIn("poly.max_degree", exact)
                for key in exact:
                    self.assertEqual(first["metrics"][key], second["metrics"][key], key)
                self.assertEqual(first["counts"], second["counts"])
                calls = {k: s["calls"] for k, s in first["spans"].items()}
                self.assertEqual(calls, {k: s["calls"] for k, s in second["spans"].items()})

    def test_span_file_matches_summary(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "spans.tsv"
            result = _traced("limits-7x10", "--spans", str(path))
            with open(path, encoding="utf-8", newline="") as handle:
                rows = list(csv.DictReader(handle, delimiter="\t"))
        self.assertEqual(len(rows), sum(s["calls"] for s in result["spans"].values()))
        child = [0.0] * len(rows)
        for i, row in enumerate(rows):
            parent = int(row["parent"])
            self.assertEqual(int(row["id"]), i)
            self.assertLess(parent, i)
            if parent >= 0:
                self.assertLessEqual(float(rows[parent]["start"]), float(row["start"]))
                self.assertLessEqual(float(row["end"]), float(rows[parent]["end"]))
                child[parent] += float(row["end"]) - float(row["start"])
        self_s: dict[str, float] = {}
        for i, row in enumerate(rows):
            dur = float(row["end"]) - float(row["start"])
            self_s[row["name"]] = self_s.get(row["name"], 0.0) + dur - child[i]
        for name, value in self_s.items():
            self.assertAlmostEqual(value, result["spans"][name]["self_s"], delta=1e-9)

    def test_numbers_bypasses_poly(self):
        metrics = self.runs["numbers-200"][0]["metrics"]
        self.assertEqual(metrics["poly.mul.calls"], 0)
        self.assertEqual(metrics["poly.gcd.calls"], 0)
        self.assertGreater(metrics["series.recip.self_s"], 0)

    def test_gcd_from_ratfunc_is_seen(self):
        # gcd is bound by name in ratfunc; missing that binding would leave
        # these calls unwrapped.
        metrics = self.runs["verify-4x4"][0]["metrics"]
        self.assertGreater(metrics["poly.gcd.calls"], 0)
        self.assertGreater(metrics["ratfunc.gcd_useful_ratio"], 0)


if __name__ == "__main__":
    unittest.main()
