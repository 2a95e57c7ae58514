"""Command-line front end.

Subcommands: solve (certify a transport instance file), construct (build
towers and levels, emit plot-ready artifacts), gap (truncated-cost gap
report), verify (re-check saved construction artifacts).  Data goes to
stdout or files; progress notes go to stderr only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Optional

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


# Peak RSS of `construct` and of `verify` per index of the deepest level,
# rounded up: measured 37.4 bytes on the (7c) tower (M = 4,706,261) and
# 27.5 on (11c) (M = 70,862,693), where the interpreter's fixed share is
# smaller.  The level arrays (tau, sigma, phi, three masks) are 27 bytes.
_BYTES_PER_INDEX = 40


def _physical_memory() -> Optional[int]:
    """Bytes of physical memory, or None where the OS does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (ValueError, OSError):
        return None


def _memory_error(M: int) -> Optional[str]:
    """Why levels up to modulus M would not fit in memory, or None."""
    need = _BYTES_PER_INDEX * M
    have = _physical_memory()
    if have is None or need <= have:
        return None
    return (
        f"level modulus {M} needs about {math.ceil(need / 2**20)} MB, "
        f"more than the {have >> 20} MB of physical memory"
    )


def _level_records(level, tower):
    """The level's singular_ledger.json entry and diagnostics.jsonl record."""
    s = duals.level_scalars(level, tower)
    return (
        serialize.ledger_to_dict(s.ledger),
        serialize.diagnostic_to_dict(s.diagnostic, s.dual_value, s.correction_norm),
    )


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
        error = _memory_error(tower.modulus(levels_wanted))
        if error is not None:
            _progress(error)
            return EXIT_CONSTRUCTION
        _progress(f"tower primes: {tower.primes} ({tower.mode})")
        levels = tau.build_levels(tower, levels_wanted)
    except (circle.SearchCapExceeded, tau.GrowthTooSmall) as e:
        _progress(f"construction failed: {e}")
        return EXIT_CONSTRUCTION

    outdir = args.outdir
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "tower.json"), "w", encoding="utf-8") as fh:
        fh.write(serialize.artifact_json(serialize.tower_to_dict(tower)))

    ledgers = []
    diag_records = []
    for level in levels:
        n = level.level
        with open(
            os.path.join(outdir, f"tau_level_{n}.json"), "w", encoding="utf-8"
        ) as fh:
            fh.write(serialize.artifact_json(serialize.tau_level_to_dict(level, tower)))
        with open(os.path.join(outdir, f"quasi_cost_level_{n}.csv"), "wb") as fh:
            for block in tau.quasi_cost_csv(level, tower):
                fh.write(block)
        ledger, diag_record = _level_records(level, tower)
        ledgers.append(ledger)
        diag_records.append(diag_record)
    with open(os.path.join(outdir, "singular_ledger.json"), "w", encoding="utf-8") as fh:
        fh.write(serialize.artifact_json(ledgers))
    with open(os.path.join(outdir, "diagnostics.jsonl"), "w", encoding="utf-8") as fh:
        fh.write(serialize.diagnostics_jsonl(diag_records))
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


def _saved_level_failures(path: str, level, tower) -> list:
    """Failed checks of the saved tau_level JSON at path against a fresh
    build of its level, one line each: each RLE, then the whole text."""
    n = level.level
    name = os.path.basename(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        saved = json.loads(text)
    except ValueError as e:
        return [f"level {n}: unreadable {name}: {e}"]
    fresh = serialize.tau_level_to_dict(level, tower)
    failures = []
    for key, what in (
        ("tau_rle", "tau"), ("good_rle", "good set"), ("singular_rle", "singular set")
    ):
        try:
            stored = serialize.rle_pairs(saved[key])
        except KeyError:
            failures.append(f"level {n}: missing {key}")
        except (TypeError, ValueError) as e:
            failures.append(f"level {n}: malformed {key}: {e}")
        else:
            if stored.tolist() != fresh[key]:
                failures.append(f"level {n}: {what} differs from a fresh build")
    if not failures and text != serialize.artifact_json(fresh):
        failures.append(f"level {n}: {name} differs from a fresh build")
    return failures


def _csv_failures(path: str, level, tower) -> list:
    """Failed check of the saved quasi-cost CSV at path: it is re-rendered
    chunk by chunk and compared with the file read in the same chunks."""
    name = os.path.basename(path)
    try:
        with open(path, "rb") as fh:
            same = all(
                fh.read(len(block)) == block for block in tau.quasi_cost_csv(level, tower)
            ) and fh.read(1) == b""
    except OSError as e:
        return [f"level {level.level}: unreadable {name}: {e}"]
    return [] if same else [f"level {level.level}: {name} differs from a fresh build"]


def _series_failures(outdir: str, name: str, text: str, records: list, parse) -> list:
    """Failed checks of a saved per-level series file against its fresh
    text; a difference is reported per level record where parse(saved
    text) can tell which records differ."""
    try:
        with open(os.path.join(outdir, name), "r", encoding="utf-8") as fh:
            saved_text = fh.read()
    except (OSError, ValueError) as e:
        return [f"unreadable {name}: {e}"]
    if saved_text == text:
        return []
    try:
        saved = parse(saved_text)
    except ValueError as e:
        return [f"unreadable {name}: {e}"]
    if not isinstance(saved, list):
        saved = []
    return [
        f"level {r['level']}: {name} differs from a fresh build"
        for i, r in enumerate(records)
        if i >= len(saved) or saved[i] != r
    ] or [f"{name} differs from a fresh build"]


def cmd_verify(args) -> int:
    """Rebuild the construction from the saved tower, compare every saved
    artifact with a fresh rendering of it, and re-run the level invariant
    checks."""
    outdir = args.artifacts
    try:
        cap = circle.default_search_cap()
    except ValueError as e:
        _progress(str(e))
        return EXIT_USAGE
    try:
        with open(os.path.join(outdir, "tower.json"), "r", encoding="utf-8") as fh:
            tower_text = fh.read()
        primes = json.loads(tower_text)["primes"]
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

    depth = 0
    while os.path.exists(os.path.join(outdir, f"tau_level_{depth + 1}.json")):
        depth += 1
    if depth == 0:
        _progress("no tau_level_*.json artifacts found")
        return EXIT_USAGE
    if depth > tower.depth:
        _progress(f"level {depth}: tau_level_{depth}.json is deeper than the saved tower")
        return EXIT_FAIL
    error = _memory_error(tower.modulus(depth))
    if error is not None:
        _progress(error)
        return EXIT_CONSTRUCTION

    level = None
    failures = []
    if tower_text != serialize.artifact_json(serialize.tower_to_dict(tower)):
        failures.append("tower.json differs from a fresh build")
    ledgers = []
    diag_records = []
    for n in range(1, depth + 1):
        level = tau.build_tau_level1(tower) if n == 1 else tau.extend_tau(level, tower)
        failures += _saved_level_failures(
            os.path.join(outdir, f"tau_level_{n}.json"), level, tower
        )
        report = tau.verify_level(level, tower)
        if not report.hard_invariants_ok:
            failures.append(f"level {n}: invariant check failed: {report}")
        failures += _csv_failures(
            os.path.join(outdir, f"quasi_cost_level_{n}.csv"), level, tower
        )
        ledger, diag_record = _level_records(level, tower)
        ledgers.append(ledger)
        diag_records.append(diag_record)
    failures += _series_failures(
        outdir, "singular_ledger.json", serialize.artifact_json(ledgers), ledgers, json.loads
    )
    failures += _series_failures(
        outdir, "diagnostics.jsonl", serialize.diagnostics_jsonl(diag_records), diag_records,
        lambda text: [json.loads(line) for line in text.splitlines()],
    )
    for f in failures:
        _progress(f)
    print(serialize.dumps({"levels_checked": depth, "failures": failures}))
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
