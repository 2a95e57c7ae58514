"""The four benchmark workloads: inputs, one timed op, and exact checks.

Each workload builds its inputs in the constructor (that is the set-up
that `setup_s` times) and runs one op per `op(k, tracer)` call.  An op
returns its timed wall time, its named parts, the peak RSS of any child
process, and the list of checks it failed; the checks run after the
timed section and call no otlab function, so they neither add to the
timings nor to the traced spans.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import shutil
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction as F
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench_work"
CHILD_TIMEOUT_S = 160


@dataclass
class OpResult:
    seconds: float
    parts: dict = field(default_factory=dict)
    rss_mb: dict = field(default_factory=dict)
    calls: list = field(default_factory=list)
    errors: list = field(default_factory=list)


def canonical(x: F) -> str:
    return f"{x.numerator}/{x.denominator}"


def random_cost(rng: random.Random, n: int):
    """Dense finite costs drawn as in acceptance criterion 01."""
    return [[F(rng.randint(0, 40), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]


def child_env() -> dict:
    """The parent's environment without TDL_SEARCH_CAP or any PYTHON*
    setting, with PYTHONPATH fixed to the checkout's sources."""
    env = {
        k: v
        for k, v in os.environ.items()
        if k != "TDL_SEARCH_CAP" and not k.startswith("PYTHON")
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class _ChildTimeout(Exception):
    pass


def _alarm(_signum, _frame):
    raise _ChildTimeout()


def run_child(argv, stdout_path=None, stderr_path=None, timeout=CHILD_TIMEOUT_S):
    """Run one child to completion; return (wall_s, exit_code, peak_rss_mb).

    The peak RSS comes from the child's own rusage (os.wait4), not from
    RUSAGE_CHILDREN, whose running maximum would hide a later, smaller
    child under an earlier, larger one.
    """
    out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
    err = open(stderr_path, "wb") if stderr_path else subprocess.DEVNULL
    old = signal.signal(signal.SIGALRM, _alarm)
    try:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        try:
            signal.setitimer(signal.ITIMER_REAL, timeout)
            _, status, usage = os.wait4(proc.pid, 0)
            signal.setitimer(signal.ITIMER_REAL, 0)
        except BaseException:
            signal.setitimer(signal.ITIMER_REAL, 0)
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        signal.signal(signal.SIGALRM, old)
        for fh in (out, err):
            if fh is not subprocess.DEVNULL:
                fh.close()
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


class SolveDense:
    """Seeded n=16 instances with uniform marginals and dense finite
    costs, certified in-process along the `otlab solve` path."""

    name = "solve_dense"
    names = {"op_p50_s": "solve_p50_s", "op_tail_s": "solve_tail_s", "ops_per_s": "solves_per_s"}

    def __init__(self, seed: int, seconds: int, n: int = 16):
        from otlab import finite_ot, serialize
        from otlab.rational import format_rational

        self.finite_ot = finite_ot
        self.serialize = serialize
        self.format_rational = format_rational
        self.n = n
        rng = random.Random(seed)
        self.inputs = []
        w = canonical(F(1, n))
        for _ in range(max(16, 8 * seconds)):
            cost = random_cost(rng, n)
            text = json.dumps(
                {
                    "n": n,
                    "cost": [[canonical(v) for v in row] for row in cost],
                    "mu": [w] * n,
                    "nu": [w] * n,
                },
                sort_keys=True,
            )
            self.inputs.append((cost, text))

    def op(self, k: int, tracer=None) -> OpResult:
        fo = self.finite_ot
        cost, text = self.inputs[k % len(self.inputs)]
        t0 = perf_counter()
        c, marg = fo.instance_from_json(text)
        plan = fo.solve_primal(c, marg)
        pair = fo.solve_dual(c, marg)
        slack = fo.check_complementary_slackness(plan, pair, c)
        mono, witness = fo.is_cyclically_monotone(sorted(plan.support()), c)
        # The same report `otlab solve` prints.
        report = self.serialize.dumps(
            {
                "primal": self.format_rational(plan.value),
                "dual": self.format_rational(pair.value),
                "slackness": {
                    "passed": slack.passed,
                    "support_violations": list(slack.support_violations),
                    "feasibility_violations": list(slack.feasibility_violations),
                },
                "monotonicity": {"passed": mono, "witness": witness},
            }
        )
        seconds = perf_counter() - t0
        return OpResult(seconds, errors=self.check(cost, plan, pair, slack.passed, mono, report))

    def check(self, cost, plan, pair, slack_ok, mono, report_text):
        """A feasible plan, feasible potentials and equal values certify
        optimality whatever solver produced them."""
        n = self.n
        w = F(1, n)
        errors = []
        pi = plan.entries
        if len(pi) != n or any(len(row) != n for row in pi):
            return ["plan has the wrong shape"]
        if any(v < 0 for row in pi for v in row):
            errors.append("plan has a negative entry")
        if any(sum(row) != w for row in pi):
            errors.append("plan row sums differ from mu")
        if any(sum(pi[i][j] for i in range(n)) != w for j in range(n)):
            errors.append("plan column sums differ from nu")
        primal = sum(cost[i][j] * pi[i][j] for i in range(n) for j in range(n))
        if primal != plan.value:
            errors.append("plan value is not its cost")
        phi, psi = pair.phi, pair.psi
        if any(phi[i] + psi[j] > cost[i][j] for i in range(n) for j in range(n)):
            errors.append("potentials are infeasible on a finite cell")
        dual = w * sum(phi) + w * sum(psi)
        if dual != pair.value:
            errors.append("dual value is not the potentials' value")
        if primal != dual:
            errors.append(f"primal {primal} != dual {dual}")
        if any(pi[i][j] > 0 and phi[i] + psi[j] != cost[i][j] for i in range(n) for j in range(n)):
            errors.append("slackness fails on the plan's support")
        if not slack_ok:
            errors.append("check_complementary_slackness reported a violation")
        if not mono:
            errors.append("optimal support reported not cyclically monotone")
        report = json.loads(report_text)
        if report["primal"] != canonical(primal) or report["dual"] != canonical(dual):
            errors.append("report values differ from the certified ones")
        return errors


class Gap531:
    """One gap report on the (5, 31) tower: build_gap_family +
    gap_demonstration with M = 2 graphs at jmax = 2."""

    name = "gap_5_31"
    names = {"op_p50_s": "gap_s"}
    # sha256 of serialize.dumps(report), pinned from the seed commit.
    pins = {
        (5, 31): "04291e91c4218932e88d64d8892f4e1449171e08c44250e8d378bb6d8786dc08",
        (5, 11): "9ffc0b0e0bf5541340009bcf1f41169f28826ba490e8ac729fb6b370da4f3b74",
    }

    def __init__(self, seed: int, seconds: int, m1: int = 5, floor: int = 31):
        from otlab import circle, gap, serialize

        self.gap = gap
        self.serialize = serialize
        self.tower = circle.build_tower(m1, 2, growth_floor=[floor])
        self.pin = self.pins[self.tower.primes]

    def op(self, k: int, tracer=None) -> OpResult:
        t0 = perf_counter()
        family = self.gap.build_gap_family(self.tower, 2)
        report = self.gap.gap_demonstration(family, 2, 2)
        text = self.serialize.dumps(report)
        seconds = perf_counter() - t0
        errors = []
        if report["primal"] != "1/1" or report["dual"] != "1/1":
            errors.append(f"P = {report['primal']}, D = {report['dual']}, not 1/1")
        if hashlib.sha256(text.encode()).hexdigest() != self.pin:
            errors.append("gap report bytes differ from the pinned digest")
        return OpResult(seconds, errors=errors)


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class ConstructVerify7c:
    """`otlab construct --m1 7 --depth 2 --mode paper_compliant` into a
    fresh directory, then `otlab verify` on it, each in its own child."""

    name = "construct_verify_7c"
    names = {"op_p50_s": "construct_plus_verify_s"}
    # Artifact digests pinned from the seed commit.
    pins = {
        (7, "paper_compliant"): {
            "diagnostics.jsonl": "64f8ae44469b748de1514cc1e408fd999cde429ede98ba39c9b68550f528a7bb",
            "quasi_cost_level_1.csv": "e4783638223cf42f13d6c2da5ee1eb753c2a51726579c09e08025d5673a4d013",
            "quasi_cost_level_2.csv": "aced60649d3a50b97d0685bd2047e8dd64a2c26050fcd692de6794a898d3a744",
            "singular_ledger.json": "45455291d69de3fa38a30655289c71a3eddee0ec8c1bef47bdc6b273cf0097ee",
            "tau_level_1.json": "fb1ab52829134b9a0db6bce28eed8891ac8d33b18390d7dd7360ca23d3a5a816",
            "tau_level_2.json": "9daeed92647754aab1c0f265682373bf615f0321226701aa9739185b4b9ce1a1",
            "tower.json": "e0b16b0ee86241092f875910f9b241c6d597e84cb8e462552bc5daf1ea61e028",
        },
        (5, "relaxed"): {
            "diagnostics.jsonl": "3fbe8886804bf8b86c9fb40044b5fd01383572c213a6b37a195f287661c96ce8",
            "quasi_cost_level_1.csv": "5d734cf6ed4607f693e2a5389112dc16b73eb86f2eb66245c4dca60a7c112cf0",
            "quasi_cost_level_2.csv": "430c0ad19407c37436f879510090f53ea179cd6e6038dfb39130518fc78383ef",
            "singular_ledger.json": "d35c075eb01c457cea2970569deadca68166ba0e5a4b8d7ff9e697c31940eb61",
            "tau_level_1.json": "460d9c50af3b418bf394bf64d783e1846b3d7e1588d5a2c0f6c5fe1267197c79",
            "tau_level_2.json": "bdfb13ef87fff8028d86799bf560ebf88881ca05b844ba17c73eda090069bcd3",
            "tower.json": "8138889fd4d2d9b720bd317942007e05e0d011e40339e14425cab41625dc5bef",
        },
    }

    def __init__(self, seed: int, seconds: int, m1: int = 7, mode: str = "paper_compliant"):
        self.m1 = m1
        self.mode = mode
        self.pin = self.pins[(m1, mode)]
        WORK_DIR.mkdir(exist_ok=True)
        self.work = WORK_DIR / f"cv-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir()

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def _cli(self, tracer, label, args):
        """Run one CLI verb as a child; in the traced run the child
        records spans, which are merged under a span for the process."""
        out = self.work / f"{label}.out"
        err = self.work / f"{label}.err"
        if tracer is None:
            return run_child([sys.executable, "-m", "otlab.cli", *args], out, err)
        spans_path = self.work / f"{label}.spans.json"
        idx = tracer.open(f"bench.{label}_process")
        try:
            res = run_child(
                [sys.executable, str(BENCH_DIR / "trace_child.py"), str(spans_path), "--", *args],
                out,
                err,
            )
        finally:
            tracer.close(idx)
        if spans_path.exists():
            with open(spans_path, encoding="utf-8") as fh:
                data = json.load(fh)
            tracer.merge(data["spans"], data["counts"], idx)
        return res

    def op(self, k: int, tracer=None) -> OpResult:
        outdir = self.work / f"artifacts-{k}"
        cargs = ["construct", "--m1", str(self.m1), "--depth", "2", "--mode", self.mode]
        c_s, c_rc, c_rss = self._cli(tracer, "construct", cargs + ["--outdir", str(outdir)])
        v_s, v_rc, v_rss = self._cli(tracer, "verify", ["verify", str(outdir)])
        result = OpResult(
            c_s + v_s,
            parts={"construct_s": c_s, "verify_s": v_s},
            rss_mb={"construct": c_rss, "verify": v_rss},
        )
        result.errors = self.check(outdir, c_rc, v_rc)
        shutil.rmtree(outdir, ignore_errors=True)
        return result

    def check(self, outdir: Path, c_rc: int, v_rc: int):
        errors = []
        if c_rc != 0:
            errors.append(f"construct exited {c_rc}: {self._tail('construct.err')}")
        if v_rc != 0:
            errors.append(f"verify exited {v_rc}: {self._tail('verify.err')}")
        try:
            verdict = json.loads((self.work / "verify.out").read_text(encoding="utf-8"))
        except (OSError, ValueError):
            verdict = None
        if verdict != {"failures": [], "levels_checked": 2}:
            errors.append(f"verify reported {verdict}")
        found = sorted(p.name for p in outdir.iterdir()) if outdir.is_dir() else []
        if found != sorted(self.pin):
            errors.append(f"artifact set {found} differs from the pinned one")
        for name, digest in sorted(self.pin.items()):
            path = outdir / name
            if path.is_file() and _sha256_file(path) != digest:
                errors.append(f"{name} differs from its pinned digest")
        return errors

    def _tail(self, name):
        try:
            return (self.work / name).read_text(encoding="utf-8", errors="replace")[-300:]
        except OSError:
            return "(no output)"


class RelaxedDualSweep:
    """Seeded n=5 costs, uniform marginals and a fully supported uniform
    pi0; one op sweeps one instance over the budgets of the demo.

    The op is the whole sweep because call times cluster by budget (the
    large budgets take about twice as long), so a median over a run's
    calls would jump between clusters as the run's length cut a sweep
    short.  n=5 keeps about ten sweeps, on ten instances, in a run.
    """

    name = "relaxed_dual_sweep"
    names = {"op_p50_s": "relaxed_sweep_s", "call_p50_s": "relaxed_p50_s"}
    budgets = (F(2), F(1), F(1, 2), F(1, 4), F(1, 8), F(0))

    def __init__(self, seed: int, seconds: int, n: int = 5):
        from otlab import finite_ot

        self.finite_ot = finite_ot
        self.n = n
        rng = random.Random(seed)
        w = F(1, n * n)
        self.instances = []
        for _ in range(max(4, seconds)):
            cost = random_cost(rng, n)
            pi0_value = sum((v * w for row in cost for v in row), F(0))
            self.instances.append(
                (
                    cost,
                    finite_ot.CostMatrix(cost),
                    finite_ot.Marginals.uniform(n),
                    finite_ot.TransportPlan([[w] * n for _ in range(n)], pi0_value),
                )
            )

    def op(self, k: int, tracer=None) -> OpResult:
        cost, c, marg, pi0 = self.instances[k % len(self.instances)]
        pairs = []
        calls = []
        for eps in self.budgets:
            t0 = perf_counter()
            pairs.append(self.finite_ot.solve_relaxed_dual(c, marg, pi0, eps))
            calls.append(perf_counter() - t0)
        return OpResult(sum(calls), calls=calls, errors=self.check(cost, pairs))

    def check(self, cost, pairs):
        n = self.n
        w = F(1, n)
        errors = []
        for eps, pair in zip(self.budgets, pairs):
            phi, psi = pair.phi, pair.psi
            if w * sum(phi) + w * sum(psi) != pair.value:
                errors.append(f"eps {eps}: value is not the potentials' value")
            excess = sum(
                (max(phi[i] + psi[j] - cost[i][j], F(0)) for i in range(n) for j in range(n)),
                F(0),
            ) / (n * n)
            if excess > eps:
                errors.append(f"eps {eps}: pi0-weighted excess {excess} exceeds the budget")
        values = [pair.value for pair in pairs]
        if any(a < b for a, b in zip(values, values[1:])):
            errors.append(f"value rose as eps shrank: {values}")
        # Uniform marginals: by Birkhoff an optimal plan is a permutation,
        # so enumeration gives the exact unrelaxed optimum.
        optimum = min(
            sum(cost[i][p[i]] for i in range(n)) for p in itertools.permutations(range(n))
        ) * w
        if values[-1] != optimum:
            errors.append(f"eps = 0 value {values[-1]} != optimum {optimum}")
        return errors


WORKLOADS = {
    wl.name: wl for wl in (SolveDense, Gap531, ConstructVerify7c, RelaxedDualSweep)
}
