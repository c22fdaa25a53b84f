"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import TARGETS, Tracer  # noqa: E402

import sqtaut.cli  # noqa: E402

REF = wl.load_reference()

# cheap points of the API workloads
SAMPLES = {
    "t5-sweep": [(6, 2, 1), (7, 3, 2), (4, 1, 2)],
    "prop8-sweep": [(5, 1, 0, 1, 2), (8, 2, 1, 0, 1)],
    "pairing-cert": [(3, 2), (4, 3)],
}


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for name, w in wl.WORKLOADS.items():
            first = [wl.round_points(w, REF, 7, i) for i in range(3)]
            again = [wl.round_points(w, REF, 7, i) for i in range(3)]
            other = [wl.round_points(w, REF, 8, i) for i in range(3)]
            self.assertEqual(first, again, name)
            self.assertNotEqual(first, other, name)

    def test_every_cycle_runs_every_point_distinct_within_rounds(self):
        for name, w in wl.WORKLOADS.items():
            n = len(w.rounds(REF))
            expected = sorted(wl.parse_point(k) for k, v in REF[name].items()
                              for _ in range(w.passes(v["cost_s"])))
            for seed, cycle in ((3, 0), (4, 2)):
                rounds = [wl.round_points(w, REF, seed, cycle * n + r) for r in range(n)]
                self.assertTrue(all(len(r) == len(set(r)) for r in rounds), name)
                self.assertEqual(sorted(p for r in rounds for p in r), expected, name)

    def test_reference_covers_only_candidates(self):
        for name, w in wl.WORKLOADS.items():
            candidates = {wl.key(p) for p in w.candidates()}
            self.assertTrue(REF[name], name)
            self.assertLessEqual(set(REF[name]), candidates, name)


class Checks(unittest.TestCase):
    def test_reference_results_pass(self):
        for name, points in SAMPLES.items():
            w = wl.WORKLOADS[name]
            for point in points:
                result = w.request(point, None)
                self.assertTrue(w.check(point, result, REF[name][wl.key(point)]["digest"]))

    def test_corrupted_result_counts_as_failed(self):
        w = wl.WORKLOADS["t5-sweep"]
        point = (6, 2, 1)
        raw, rel, payload = w.request(point, None)
        digest = REF[w.name][wl.key(point)]["digest"]
        coeff = payload["terms"][0]["coeff"]
        coeff["rational"] = str(Fraction(coeff["rational"]) + 1)
        self.assertFalse(w.check(point, (raw, rel, payload), digest))
        rounds = [{"ok": [True, w.check(point, (raw, rel, payload), digest)]}]
        report = run.report(rounds, {}, {})
        self.assertEqual((report["attempted"], report["failed"]), (2, 1))
        self.assertFalse(report["correct"])

    def test_wrong_degree_fails_an_invariant(self):
        w = wl.WORKLOADS["prop8-sweep"]
        rel = w.request((5, 1, 0, 1, 2), None)
        self.assertTrue(w.invariants((5, 1, 0, 1, 2), rel))
        self.assertFalse(w.invariants((5, 1, 0, 1, 3), rel))


class Tracing(unittest.TestCase):
    def test_traced_results_equal_untraced_and_originals_return(self):
        originals = {(m, f): getattr(getattr(sqtaut, m), f) for m, f, _ in TARGETS}
        for name, points in SAMPLES.items():
            w = wl.WORKLOADS[name]
            plain = [w.digest(p, w.request(p, None)) for p in points]
            tracer = Tracer()
            tracer.install()
            try:
                traced = [w.digest(p, tracer.run_request(i, w.request, p, None))
                          for i, p in enumerate(points)]
            finally:
                tracer.uninstall()
            self.assertEqual(plain, traced, name)
            summary = tracer.summary()
            self.assertEqual(summary["request.calls"], len(points))
            self.assertGreaterEqual(min(summary[f"{n}.self_s"] for n in tracer.names), 0)
        for (m, f), fn in originals.items():
            self.assertIs(getattr(getattr(sqtaut, m), f), fn)
        self.assertIs(sqtaut.pointed.pc_mul, originals[("pointed", "pc_mul")])
        self.assertIs(sqtaut.curve.chern_F, originals[("pointed", "chern_F")])


class Cli(unittest.TestCase):
    def _files(self):
        out = set()
        for dirpath, dirnames, filenames in os.walk(wl.ROOT):
            dirnames[:] = [d for d in dirnames
                           if d not in ("__pycache__", ".git", ".perfbench_out")]
            out.update(os.path.join(dirpath, f) for f in filenames)
        return out

    def test_cli_round_leaves_no_files(self):
        w = wl.WORKLOADS["cli-cold"]
        points = wl.round_points(w, REF, 1, 0)
        before = self._files()
        ctx = wl.cli_setup(points)
        try:
            for point in points:
                result = w.request(point, ctx)
                self.assertTrue(w.check(point, result, REF[w.name][wl.key(point)]["digest"]))
        finally:
            wl.cli_teardown(ctx)
        self.assertFalse(ctx.tmp.exists())
        self.assertEqual(before, self._files())


class Quantiles(unittest.TestCase):
    def test_harrell_davis_on_evenly_spaced_samples(self):
        xs = list(range(1, 188))
        self.assertAlmostEqual(run.hd_quantile(xs, 0.5), 94, places=6)
        self.assertAlmostEqual(run.hd_quantile(xs[::-1], 0.9), 0.9 * 187 + 0.5, places=6)

    def test_one_slow_sample_moves_p90_less_than_interpolation(self):
        xs = [1.0] * 100 + [2.0 + 0.1 * i for i in range(20)]
        slow = list(xs)
        slow[108] += 0.5  # a sample interpolation rests on
        p90 = lambda v: statistics.quantiles(v, n=10)[8]  # noqa: E731
        moved = run.hd_quantile(slow, 0.9) - run.hd_quantile(xs, 0.9)
        self.assertGreater(moved, 0)
        self.assertLess(moved, p90(slow) - p90(xs))


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_meta(self):
        with open(wl.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            bench = json.load(fh)
        meta = run.load_meta()
        self.assertEqual(bench["run_seconds"], meta["run_seconds"])
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         [w["name"] for w in meta["workloads"]])
        self.assertEqual(set(wl.WORKLOADS), {w["name"] for w in meta["workloads"]})
        for kind in ("end_to_end", "per_layer"):
            fields = ("name", "unit", "better", "bound") if kind == "end_to_end" else (
                "name", "unit", "better")
            self.assertEqual([{f: m[f] for f in fields} for m in bench[kind]],
                             [{f: m[f] for f in fields} for m in meta[kind]])

    def test_fails_without_program(self):
        wl.TMP_ROOT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=wl.TMP_ROOT) as tmp:
            shutil.copy(wl.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "t5-sweep",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
                env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
