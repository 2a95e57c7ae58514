"""Command-line front end.

Subcommands: solve (certify a transport instance file), construct (build
towers and levels, emit plot-ready artifacts), gap (truncated-cost gap
report), verify (re-check saved construction artifacts).  Data goes to
stdout or files; progress notes go to stderr only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

import numpy as np

from . import circle, duals, gap, serialize, tau
from .finite_ot import (
    DimensionMismatch,
    NoFinitePlan,
    InfeasibleMarginals,
    check_complementary_slackness,
    is_cyclically_monotone,
    load_instance,
    solve_dual,
    solve_primal,
)
from .rational import format_rational

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_CONSTRUCTION = 4


def _progress(msg: str):
    print(msg, file=sys.stderr)


def cmd_solve(args) -> int:
    try:
        cost, marg = load_instance(args.instance)
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as e:
        _progress(f"cannot parse instance: {e}")
        return EXIT_USAGE
    try:
        plan = solve_primal(cost, marg)
        pair = solve_dual(cost, marg)
    except DimensionMismatch as e:
        _progress(f"malformed instance: {e}")
        return EXIT_USAGE
    except (NoFinitePlan, InfeasibleMarginals) as e:
        _progress(f"infeasible: {e}")
        return EXIT_INFEASIBLE
    slack = check_complementary_slackness(plan, pair, cost)
    mono, witness = is_cyclically_monotone(sorted(plan.support()), cost)
    report = {
        "primal": format_rational(plan.value),
        "dual": format_rational(pair.value),
        "slackness": {
            "passed": slack.passed,
            "support_violations": list(slack.support_violations),
            "feasibility_violations": list(slack.feasibility_violations),
        },
        "monotonicity": {"passed": mono, "witness": witness},
    }
    text = serialize.dumps(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    ok = plan.value == pair.value and slack.passed and mono
    return EXIT_OK if ok else EXIT_FAIL


def _tower_args_error(args, depth: int) -> Optional[str]:
    """Why the tower flags can build no tower, or None.  Resolves
    args.search_cap from TDL_SEARCH_CAP when the flag is absent."""
    if args.m1 < 5 or args.m1 % 2 == 0 or not circle.is_probable_prime(args.m1):
        return f"--m1 {args.m1} is not an odd prime >= 5"
    if depth < 1:
        return f"tower depth must be >= 1, got {depth}"
    if args.search_cap is None:
        try:
            args.search_cap = circle.default_search_cap()
        except ValueError as e:
            return str(e)
    return None


def cmd_construct(args) -> int:
    error = _tower_args_error(args, args.depth)
    levels_wanted = args.levels or args.depth
    if error is None and not 1 <= levels_wanted <= args.depth:
        error = f"--levels must be in 1..{args.depth}"
    if error is not None:
        _progress(error)
        return EXIT_USAGE
    try:
        tower = circle.build_tower_mode(
            args.m1, args.depth, args.mode, search_cap=args.search_cap
        )
        _progress(f"tower primes: {tower.primes} ({tower.mode})")
        levels = tau.build_levels(tower, levels_wanted)
    except (circle.SearchCapExceeded, tau.GrowthTooSmall) as e:
        _progress(f"construction failed: {e}")
        return EXIT_CONSTRUCTION

    outdir = args.outdir
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "tower.json"), "w", encoding="utf-8") as fh:
        fh.write(serialize.dumps(serialize.tower_to_dict(tower)) + "\n")

    ledgers = []
    diag_lines = []
    diags = duals.singular_buildup(levels, tower)
    for level, diag in zip(levels, diags):
        n = level.level
        with open(
            os.path.join(outdir, f"tau_level_{n}.json"), "w", encoding="utf-8"
        ) as fh:
            fh.write(serialize.dumps(serialize.tau_level_to_dict(level, tower)) + "\n")
        with open(
            os.path.join(outdir, f"quasi_cost_level_{n}.csv"), "w", encoding="utf-8"
        ) as fh:
            fh.write(tau.quasi_cost(level, tower).to_csv())
        ledgers.append(serialize.ledger_to_dict(tau.singular_ledger(level, tower)))
        pair = duals.corrected_pair(level, tower)
        diag_lines.append(
            serialize.diagnostic_to_dict(
                diag, duals.dual_value(pair), pair.correction_norm
            )
        )
    with open(os.path.join(outdir, "singular_ledger.json"), "w", encoding="utf-8") as fh:
        fh.write(serialize.dumps(ledgers) + "\n")
    with open(os.path.join(outdir, "diagnostics.jsonl"), "w", encoding="utf-8") as fh:
        for line in diag_lines:
            fh.write(json.dumps(line, sort_keys=True) + "\n")
    _progress(f"wrote artifacts for levels 1..{levels_wanted} to {outdir}")
    return EXIT_OK


def cmd_gap(args) -> int:
    error = _tower_args_error(args, args.jmax)
    if error is None and not 1 <= args.M <= args.jmax:
        error = f"--M must be in 1..{args.jmax} (one limit map per built row)"
    if error is not None:
        _progress(error)
        return EXIT_USAGE
    try:
        tower = circle.build_tower_mode(
            args.m1, args.jmax, args.mode, search_cap=args.search_cap
        )
        _progress(f"tower primes: {tower.primes} ({tower.mode})")
        family = gap.build_gap_family(tower, args.jmax)
        report = gap.gap_demonstration(family, args.M, args.jmax)
    except (circle.SearchCapExceeded, tau.GrowthTooSmall) as e:
        _progress(f"construction failed: {e}")
        return EXIT_CONSTRUCTION
    text = serialize.dumps(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    ok = report["primal"] == "1/1" and report["dual"] == "1/1"
    return EXIT_OK if ok else EXIT_FAIL


def _saved_level_failures(path: str, level) -> list:
    """Failed checks of the saved tau_level JSON at path against a fresh
    build of its level, one line each."""
    n = level.level
    try:
        with open(path, "r", encoding="utf-8") as fh:
            saved = json.load(fh)
    except ValueError as e:
        return [f"level {n}: unreadable {os.path.basename(path)}: {e}"]
    failures = []
    for key, fresh, what in (
        ("tau_rle", level.tau, "tau"),
        ("good_rle", level.good_mask, "good set"),
        ("singular_rle", level.singular_mask, "singular set"),
    ):
        try:
            stored = serialize.rle_decode(saved[key])
        except KeyError:
            failures.append(f"level {n}: missing {key}")
        except (TypeError, ValueError) as e:
            failures.append(f"level {n}: malformed {key}: {e}")
        else:
            if not np.array_equal(stored, fresh):
                failures.append(f"level {n}: {what} differs from a fresh build")
    return failures


def cmd_verify(args) -> int:
    """Rebuild the construction from the saved tower and compare the
    saved tau vectors and index sets cell by cell, then re-run the level
    invariant checks."""
    outdir = args.artifacts
    try:
        cap = circle.default_search_cap()
    except ValueError as e:
        _progress(str(e))
        return EXIT_USAGE
    try:
        with open(os.path.join(outdir, "tower.json"), "r", encoding="utf-8") as fh:
            primes = json.load(fh)["primes"]
        floors = primes[1:]  # rebuild with each saved prime as its own floor
        tower = circle.build_tower(
            primes[0], len(primes), growth_floor=floors or None, search_cap=cap
        )
    except (OSError, ValueError, KeyError, TypeError, IndexError) as e:
        _progress(f"cannot read artifacts: {e}")
        return EXIT_USAGE
    except circle.SearchCapExceeded as e:
        _progress(f"construction failed: {e}")
        return EXIT_CONSTRUCTION
    if list(tower.primes) != primes:
        _progress(f"tower mismatch: rebuilt {tower.primes} vs saved {primes}")
        return EXIT_FAIL

    n = 1
    levels = []
    failures = []
    while os.path.exists(os.path.join(outdir, f"tau_level_{n}.json")):
        level = (
            tau.build_tau_level1(tower)
            if n == 1
            else tau.extend_tau(levels[-1], tower)
        )
        levels.append(level)
        failures += _saved_level_failures(
            os.path.join(outdir, f"tau_level_{n}.json"), level
        )
        report = tau.verify_level(level, tower)
        if not report.hard_invariants_ok:
            failures.append(f"level {n}: invariant check failed: {report}")
        n += 1
    if n == 1:
        _progress("no tau_level_*.json artifacts found")
        return EXIT_USAGE
    for f in failures:
        _progress(f)
    print(serialize.dumps({"levels_checked": n - 1, "failures": failures}))
    return EXIT_OK if not failures else EXIT_FAIL


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="otlab",
        description="exact transport duality lab: solvers and circle constructions",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve and certify a transport instance file")
    p.add_argument("instance")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("construct", help="build tower levels and emit artifacts")
    p.add_argument("--m1", type=int, required=True)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--mode", choices=["relaxed", "paper_compliant"], default="relaxed")
    p.add_argument("--levels", type=int, default=None)
    p.add_argument("--outdir", default="otlab-artifacts")
    p.add_argument("--search-cap", type=int, default=None)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("gap", help="truncated-cost duality report")
    p.add_argument("--m1", type=int, required=True)
    p.add_argument("--jmax", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--mode", choices=["relaxed", "paper_compliant"], default="relaxed")
    p.add_argument("--out", default=None)
    p.add_argument("--search-cap", type=int, default=None)
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("verify", help="re-check saved construction artifacts")
    p.add_argument("artifacts")
    p.set_defaults(func=cmd_verify)

    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
