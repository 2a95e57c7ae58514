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
import re
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
    solve_certified,
)
from .rational import format_rational

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_CONSTRUCTION = 4


def _progress(msg: str):
    print(msg, file=sys.stderr)


def _cannot_write(e: OSError, path: str):
    _progress(f"cannot write {e.filename or path}: {e.strerror or e}")


def _emit_report(report, out: Optional[str]) -> bool:
    """Print the report, or write it to the file `out`; False, after one
    stderr line, when that file cannot be written."""
    text = serialize.dumps(report)
    if not out:
        print(text)
        return True
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as e:
        _cannot_write(e, out)
        return False
    return True


def cmd_solve(args) -> int:
    try:
        cost, marg = load_instance(args.instance)
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as e:
        _progress(f"cannot parse instance: {e}")
        return EXIT_USAGE
    try:
        plan, pair = solve_certified(cost, marg)
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
    if not _emit_report(report, args.out):
        return EXIT_USAGE
    ok = plan.value == pair.value and slack.passed and mono
    return EXIT_OK if ok else EXIT_FAIL


def _tower_args_error(args, depth: int) -> Optional[str]:
    """Why the tower flags can build no tower, or None."""
    if args.m1 < 5 or args.m1 % 2 == 0 or not circle.is_probable_prime(args.m1):
        return f"--m1 {args.m1} is not an odd prime >= 5"
    if depth < 1:
        return f"tower depth must be >= 1, got {depth}"
    return None


# Peak RSS of `construct` and of `verify` per index of the deepest level,
# rounded up: measured 37.4 bytes on the (7c) tower (M = 4,706,261) and
# 27.5 on (11c) (M = 70,862,693), where the interpreter's fixed share is
# smaller.  The level arrays (tau, sigma, phi, three masks) are 27 bytes.
_BYTES_PER_INDEX = 40

# Peak RSS of `gap` per cell of the dense M_j x M_j truncated cost,
# rounded up: measured 86.6 bytes at (5, 311) (M_j = 1555) and 196 at
# (5, 101) (M_j = 505), where the interpreter's 30 MB is most of it.
# Above that share both grow by 74 bytes per cell.
_BYTES_PER_CELL = 90


def _physical_memory() -> Optional[int]:
    """Bytes of physical memory, or None where the OS does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (ValueError, OSError):
        return None


class _TooLarge(Exception):
    """A build that would not fit in physical memory."""


def _check_memory(what: str, need: int):
    """_TooLarge, saying why, when `what`, needing about `need` bytes,
    would not fit in memory."""
    have = _physical_memory()
    if have is not None and need > have:
        raise _TooLarge(
            f"{what} needs about {math.ceil(need / 2**20)} MB, "
            f"more than the {have >> 20} MB of physical memory"
        )


def cmd_construct(args) -> int:
    error = _tower_args_error(args, args.depth)
    if error is not None:
        _progress(error)
        return EXIT_USAGE
    tower = circle.build_tower_mode(args.m1, args.depth, args.mode)
    M = tower.modulus(args.depth)
    _check_memory(f"level modulus {M}", _BYTES_PER_INDEX * M)
    levels = tau.build_levels(tower, args.depth)
    _progress(f"tower primes: {tower.primes} ({tower.mode})")

    try:
        os.makedirs(args.outdir, exist_ok=True)
        for _, name, blocks, _ in _artifacts(tower, levels):
            with open(os.path.join(args.outdir, name), "wb") as fh:
                for block in blocks:
                    fh.write(block)
    except OSError as e:
        _cannot_write(e, args.outdir)
        return EXIT_USAGE
    _progress(f"wrote artifacts for levels 1..{args.depth} to {args.outdir}")
    return EXIT_OK


def cmd_gap(args) -> int:
    error = _tower_args_error(args, args.jmax)
    if error is None and not 1 <= args.M <= args.jmax:
        error = f"--M must be in 1..{args.jmax} (one limit map per built row)"
    if error is not None:
        _progress(error)
        return EXIT_USAGE
    tower = circle.build_tower_mode(args.m1, args.jmax, args.mode)
    Mj = tower.modulus(args.jmax)
    _check_memory(f"truncated cost of {Mj} x {Mj} cells", _BYTES_PER_CELL * Mj * Mj)
    family = gap.build_gap_family(tower, args.jmax)
    _progress(f"tower primes: {tower.primes} ({tower.mode})")
    report = gap.gap_demonstration(family, args.M, args.jmax)
    if not _emit_report(report, args.out):
        return EXIT_USAGE
    ok = report["primal"] == "1/1" and report["dual"] == "1/1"
    return EXIT_OK if ok else EXIT_FAIL


def _artifacts(tower, levels):
    """Every artifact of the construction, in write order, as (level or
    None, file name, byte blocks, fresh object): `construct` writes the
    blocks and `verify` compares them with the saved file.  The fresh
    object is the tau-level dict or the list of level records the file
    was rendered from, or None."""
    tower_json = serialize.artifact_json(serialize.tower_to_dict(tower))
    yield None, "tower.json", [tower_json.encode()], None
    ledgers = []
    diag_records = []
    for level in levels:
        n = level.level
        fresh = serialize.tau_level_to_dict(level, tower)
        yield level, f"tau_level_{n}.json", [serialize.artifact_json(fresh).encode()], fresh
        yield level, f"quasi_cost_level_{n}.csv", tau.quasi_cost_csv(level, tower), None
        s = duals.level_scalars(level, tower)
        ledgers.append(serialize.ledger_to_dict(s.ledger))
        diag_records.append(
            serialize.diagnostic_to_dict(s.diagnostic, s.dual_value, s.correction_norm)
        )
    ledger_json = serialize.artifact_json(ledgers)
    yield None, "singular_ledger.json", [ledger_json.encode()], ledgers
    diag_jsonl = serialize.diagnostics_jsonl(diag_records)
    yield None, "diagnostics.jsonl", [diag_jsonl.encode()], diag_records


def _explain(where: str, name: str, text: str, fresh) -> list:
    """Which RLE of a tau level, or which level record of a series file,
    differs between the saved text and the fresh object; ValueError when
    the saved text does not parse."""
    if isinstance(fresh, dict):
        saved = json.loads(text)
        failures = []
        for key, what in (
            ("tau_rle", "tau"), ("good_rle", "good set"), ("singular_rle", "singular set")
        ):
            try:
                stored = serialize.rle_pairs(saved[key])
            except KeyError:
                failures.append(f"{where}missing {key}")
            except (TypeError, ValueError) as e:
                failures.append(f"{where}malformed {key}: {e}")
            else:
                if stored.tolist() != fresh[key]:
                    failures.append(f"{where}{what} differs from a fresh build")
        return failures
    if name.endswith(".jsonl"):
        saved = [json.loads(line) for line in text.splitlines()]
    else:
        saved = json.loads(text)
    if not isinstance(saved, list):
        saved = []
    return [
        f"level {r['level']}: {name} differs from a fresh build"
        for i, r in enumerate(fresh)
        if i >= len(saved) or saved[i] != r
    ]


def _saved_failures(outdir: str, level, name: str, blocks, fresh) -> list:
    """Failed checks of one saved artifact, one line each: the file is
    read in the sizes of its fresh blocks and compared with them, so no
    CSV is read whole."""
    where = "" if level is None else f"level {level.level}: "
    try:
        with open(os.path.join(outdir, name), "rb") as fh:
            if all(fh.read(len(block)) == block for block in blocks) and fh.read(1) == b"":
                return []
            failures = []
            if fresh is not None:
                fh.seek(0)
                failures = _explain(where, name, fh.read().decode("utf-8"), fresh)
    except (OSError, ValueError) as e:
        return [f"{where}unreadable {name}: {e}"]
    return failures or [f"{where}{name} differs from a fresh build"]


_LEVEL_FILE = re.compile(r"tau_level_([1-9][0-9]*)\.json|quasi_cost_level_([1-9][0-9]*)\.csv")


def cmd_verify(args) -> int:
    """Rebuild the construction from the saved tower, compare every saved
    artifact of each of its levels with a fresh rendering of it, and
    re-run the level invariant checks."""
    outdir = args.artifacts
    try:
        with open(os.path.join(outdir, "tower.json"), "r", encoding="utf-8") as fh:
            primes = json.load(fh)["primes"]
        floors = primes[1:]  # rebuild with each saved prime as its own floor
        tower = circle.build_tower(primes[0], len(primes), growth_floor=floors or None)
        level_files = sorted(
            (int(m.group(1) or m.group(2)), name)
            for name in os.listdir(outdir)
            if (m := _LEVEL_FILE.fullmatch(name))
        )
    except (OSError, ValueError, KeyError, TypeError, IndexError) as e:
        _progress(f"cannot read artifacts: {e}")
        return EXIT_USAGE
    if list(tower.primes) != primes:
        _progress(f"tower mismatch: rebuilt {tower.primes} vs saved {primes}")
        return EXIT_FAIL

    depth = tower.depth
    M = tower.modulus(depth)
    _check_memory(f"level modulus {M}", _BYTES_PER_INDEX * M)

    failures = [
        f"level {n}: {name} is deeper than the saved tower" for n, name in level_files if n > depth
    ]

    def checked_levels():
        level = None
        for n in range(1, depth + 1):
            level = tau.build_tau_level1(tower) if n == 1 else tau.extend_tau(level, tower)
            report = tau.verify_level(level, tower)
            if not report.hard_invariants_ok:
                failures.append(f"level {n}: invariant check failed: {report}")
            yield level

    for level, name, blocks, fresh in _artifacts(tower, checked_levels()):
        failures += _saved_failures(outdir, level, name, blocks, fresh)
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
    p.add_argument("--outdir", default="otlab-artifacts")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("gap", help="truncated-cost duality report")
    p.add_argument("--m1", type=int, required=True)
    p.add_argument("--jmax", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--mode", choices=["relaxed", "paper_compliant"], default="relaxed")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("verify", help="re-check saved construction artifacts")
    p.add_argument("artifacts")
    p.set_defaults(func=cmd_verify)

    args = ap.parse_args(argv)
    if args.command != "solve":
        try:
            circle.default_search_cap()  # a bad TDL_SEARCH_CAP is a usage error
        except ValueError as e:
            _progress(str(e))
            return EXIT_USAGE
    # Every construction failure of the tower verbs exits here, one line.
    try:
        return args.func(args)
    except _TooLarge as e:
        _progress(str(e))
    except (circle.TowerError, tau.GrowthTooSmall) as e:
        _progress(f"construction failed: {e}")
    return EXIT_CONSTRUCTION


if __name__ == "__main__":
    sys.exit(main())
