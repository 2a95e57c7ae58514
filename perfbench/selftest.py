"""Self-tests of the benchmark: tiny workloads, corruption, exact counts.

    python3 perfbench/selftest.py

Runs from the root of a checkout in about a minute.  The file name keeps
it out of the repository's pytest collection; the tests are unittest
cases that run here only.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import bench_trace  # noqa: E402
import bench_workloads as bw  # noqa: E402
import run  # noqa: E402
from otlab.finite_ot import DualPair  # noqa: E402


def tiny(name):
    """The small configuration of each workload."""
    return {
        "solve_dense": lambda: bw.SolveDense(1, 1, n=4),
        "gap_5_31": lambda: bw.Gap531(1, 1, m1=5, floor=11),
        "construct_verify_7c": lambda: bw.ConstructVerify7c(1, 1, m1=5, mode="relaxed"),
        "relaxed_dual_sweep": lambda: bw.RelaxedDualSweep(1, 1, n=3),
    }[name]()


class Patched:
    """A module stand-in that overrides some attributes."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class TinyWorkloads(unittest.TestCase):
    def run_tiny(self, name, count):
        wl = tiny(name)
        try:
            return run.run_ops(wl, 0, count=count)
        finally:
            getattr(wl, "close", lambda: None)()

    def test_every_tiny_workload_passes_its_checks(self):
        for name, count in [
            ("solve_dense", 5),
            ("gap_5_31", 1),
            ("construct_verify_7c", 1),
            ("relaxed_dual_sweep", 2),
        ]:
            with self.subTest(workload=name):
                results = self.run_tiny(name, count)
                self.assertEqual(len(results), count)
                self.assertEqual(run.failures(results), 0, [r and r.errors for r in results])
                self.assertTrue(all(r.seconds > 0 for r in results))

    def test_construct_verify_reports_both_children(self):
        (res,) = self.run_tiny("construct_verify_7c", 1)
        self.assertEqual(set(res.parts), {"construct_s", "verify_s"})
        self.assertEqual(set(res.rss_mb), {"construct", "verify"})
        self.assertAlmostEqual(res.seconds, sum(res.parts.values()))


class CorruptedOutputsFail(unittest.TestCase):
    def test_altered_dual_fails_solve_dense(self):
        wl = tiny("solve_dense")
        fo = wl.finite_ot

        def bad_dual(cost, marg):
            pair = fo.solve_dual(cost, marg)
            return DualPair((pair.phi[0] + 1,) + pair.phi[1:], pair.psi, pair.value)

        wl.finite_ot = Patched(fo, solve_dual=bad_dual)
        results = run.run_ops(wl, 0, count=3)
        self.assertEqual(run.failures(results), 3)

    def test_altered_report_fails_gap(self):
        wl = tiny("gap_5_31")
        g = wl.gap

        def bad_report(family, m, j):
            report = g.gap_demonstration(family, m, j)
            report["beta_threshold"] = "0/1"
            return report

        wl.gap = Patched(g, gap_demonstration=bad_report)
        self.assertEqual(run.failures(run.run_ops(wl, 0, count=1)), 1)

    def test_flipped_artifact_byte_fails_construct_verify(self):
        wl = tiny("construct_verify_7c")
        cli = wl._cli

        def flip_after_construct(tracer, label, args):
            res = cli(tracer, label, args)
            if label == "construct":
                path = Path(args[args.index("--outdir") + 1]) / "quasi_cost_level_2.csv"
                data = bytearray(path.read_bytes())
                data[-2] ^= 1
                path.write_bytes(bytes(data))
            return res

        wl._cli = flip_after_construct
        try:
            (res,) = run.run_ops(wl, 0, count=1)
        finally:
            wl.close()
        self.assertIn("quasi_cost_level_2.csv differs from its pinned digest", res.errors)

    def test_altered_value_fails_relaxed(self):
        wl = tiny("relaxed_dual_sweep")
        fo = wl.finite_ot

        def bad_relaxed(cost, marg, pi0, eps):
            pair = fo.solve_relaxed_dual(cost, marg, pi0, eps)
            return DualPair(pair.phi, pair.psi, pair.value + 1)

        wl.finite_ot = Patched(fo, solve_relaxed_dual=bad_relaxed)
        (res,) = run.run_ops(wl, 0, count=1)
        self.assertEqual(len(res.errors), 6 + 1)  # every budget, and eps = 0


class SeedCommitCounts(unittest.TestCase):
    """Call counts observed from outside, as the seed commit makes them."""

    def traced(self, wl, count):
        tracer = bench_trace.Tracer()
        uninstall = bench_trace.install(tracer)
        try:
            results = run.run_ops(wl, 0, tracer=tracer, count=count)
        finally:
            uninstall()
        self.assertEqual(run.failures(results), 0)
        return bench_trace.layer_metrics(tracer, count, 0.0)

    def test_two_primal_solves_per_certified_instance(self):
        m = self.traced(tiny("solve_dense"), 4)
        self.assertEqual(m["finite_ot.solve_primal.calls"]["value"], 2)
        self.assertEqual(m["gap.solve_primal.calls"]["value"], 0)

    def test_gap_5_31_report_counts(self):
        m = self.traced(bw.Gap531(1, 1), 1)
        self.assertEqual(m["finite_ot.solve_primal.calls"]["value"], 16)
        self.assertEqual(m["gap.solve_primal.calls"]["value"], 15)
        self.assertEqual(m["gap.materialize_cost.finite_cells"]["value"], 460)

    def test_uninstall_restores_the_program(self):
        from otlab import finite_ot, gap

        before = (finite_ot.solve_primal, gap.solve_primal, finite_ot.solvers.solve_primal)
        bench_trace.install(bench_trace.Tracer())()
        after = (finite_ot.solve_primal, gap.solve_primal, finite_ot.solvers.solve_primal)
        self.assertEqual(before, after)


class ResultFormat(unittest.TestCase):
    def test_last_line_is_the_result(self):
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "relaxed_dual_sweep",
             "--seed", "3", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT, timeout=170, check=True,
        )
        result = json.loads(out.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), set(run.END_TO_END_UNITS))

    def test_fails_without_the_program(self):
        bare = bw.WORK_DIR / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "solve_dense",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True, cwd=bare, timeout=170,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
