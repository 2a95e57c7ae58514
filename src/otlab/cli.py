"""Command-line front end.

Subcommands: solve (certify a transport instance file), construct (build
towers and levels, emit plot-ready artifacts), gap (truncated-cost gap
report), verify (re-check saved construction artifacts).  Data goes to
stdout or files; progress notes go to stderr only.

Each verb imports the layers it runs when it runs: `solve` loads
`finite_ot`, `serialize` and `rational` only, and numpy with the circle
construction loads only for `construct`, `gap` and `verify`.

otlab makes no BLAS call, but numpy's OpenBLAS starts one thread per
core when it loads, which costs a verb's child process about 70 ms.  So
`main`, when numpy is not loaded yet, defaults OPENBLAS_NUM_THREADS to 1
for the process; a value already set is kept, and a caller that loaded
numpy before (a test, a benchmark, a demo) keeps its own pool.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from typing import Optional

from . import serialize
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


def _print_data(text: str):
    """Print text to stdout.  When the reader has closed it, the rest of
    the output goes to os.devnull, as the Python docs on SIGPIPE show, so
    neither this write nor the flush at exit raises."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit_report(report, out: Optional[str]) -> bool:
    """Print the report, or write it to the file `out`; False, after one
    stderr line, when that file cannot be written."""
    text = serialize.dumps(report)
    if not out:
        _print_data(text)
        return True
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as e:
        _cannot_write(e, out)
        return False
    return True


def cmd_solve(args) -> int:
    from .finite_ot import (
        DimensionMismatch,
        InfeasibleMarginals,
        NoFinitePlan,
        check_complementary_slackness,
        is_cyclically_monotone,
        load_instance,
        solve_certified,
    )

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


# Peak RSS of `gap` per arc of the truncated cost, whose (M+1)*M_j graph
# cells bound the arc count, rounded up: measured 822 bytes at (5, 16001)
# (M_j = 80,005), 763 at (5, 30011) (M_j = 150,055) and 701 at the
# paper-compliant (5, 125101) (M_j = 625,505), where the interpreter's
# 30 MB is a smaller share.  Above that share it grows by about 690
# bytes per arc.
_BYTES_PER_ARC = 900

# Where Linux reports the memory a new process can use without swapping.
_MEMINFO = "/proc/meminfo"


def _available_memory() -> Optional[int]:
    """Bytes of memory available to a new build: MemAvailable from
    /proc/meminfo where it exists, else physical memory, else None
    where the OS says neither."""
    try:
        with open(_MEMINFO, encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024  # given in kB
    except (OSError, ValueError, IndexError):
        pass
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (ValueError, OSError):
        return None


class _TooLarge(Exception):
    """A build that would not fit in available memory, or artifacts that
    would not fit on disk."""


def _check_memory(what: str, need: int):
    """_TooLarge, saying why, when `what`, needing about `need` bytes,
    would not fit in memory."""
    have = _available_memory()
    if have is not None and need > have:
        raise _TooLarge(
            f"{what} needs about {math.ceil(need / 2**20)} MB, "
            f"more than the {have >> 20} MB of available memory"
        )


def _csv_bytes(M: int) -> int:
    """About the size of a level's quasi-cost CSV: a 26-byte header, then
    one row "l,p/q,v/1" per index, with l, p and q of at most as many
    digits as M and most values a single digit (at (13c), 32.7 bytes per
    row against the 34 counted here)."""
    return 26 + M * (3 * len(str(M)) + 7)


def _free_space(path: str) -> Optional[int]:
    """Bytes free to an unprivileged writer on the file system that holds
    path, or the nearest directory above it that exists; None where the
    OS does not say."""
    path = os.path.abspath(path)
    while not os.path.exists(path) and os.path.dirname(path) != path:
        path = os.path.dirname(path)
    try:
        st = os.statvfs(path)
    except (OSError, AttributeError):  # no statvfs on Windows
        return None
    return st.f_bavail * st.f_frsize


def _check_disk(outdir: str, need: int):
    """_TooLarge, saying why, when artifacts of about `need` bytes would
    not fit in the free space at outdir."""
    have = _free_space(outdir)
    if have is not None and need > have:
        raise _TooLarge(
            f"the artifacts need about {math.ceil(need / 2**20)} MB on disk, "
            f"more than the {have >> 20} MB free at {outdir}"
        )


def cmd_construct(args) -> int:
    from . import circle, tau

    try:
        tower = circle.build_tower_mode(args.m1, args.depth, args.mode)
    except ValueError as e:
        _progress(str(e))
        return EXIT_USAGE
    _check_disk(args.outdir, sum(_csv_bytes(M) for M in tower.M))
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
    from . import circle, gap

    try:
        tower = circle.build_tower_mode(args.m1, args.jmax, args.mode)
    except ValueError as e:
        _progress(str(e))
        return EXIT_USAGE
    if not 1 <= args.M <= args.jmax:
        _progress(f"--M must be in 1..{args.jmax} (one limit map per built row)")
        return EXIT_USAGE
    arcs = (args.M + 1) * tower.modulus(args.jmax)
    _check_memory(f"truncated cost of {arcs} arcs", _BYTES_PER_ARC * arcs)
    family = gap.build_gap_family(tower, args.jmax)
    _progress(f"tower primes: {tower.primes} ({tower.mode})")
    report = gap.gap_demonstration(family, args.M, args.jmax)
    if not _emit_report(report, args.out):
        return EXIT_USAGE
    ok = report["primal"] == "1/1" and report["dual"] == "1/1"
    return EXIT_OK if ok else EXIT_FAIL


def _artifacts(tower, levels, check: bool = False):
    """Every artifact of the construction, in write order, as (level or
    None, file name, byte blocks, fresh object): `construct` writes the
    blocks and `verify` compares them with the saved file.  The fresh
    object is the tau-level dict or the list of level records the file
    was rendered from, or None.

    A level's CSV blocks are rendered from its quasi-cost pieces
    (`circle.runs_csv_blocks`), the one walk over its indices; its dual
    record (`duals.level_scalars`) and, with check, its
    `tau.verify_level` report, which follows as (level, None, None,
    report), take its runs and pieces."""
    from . import circle, duals, tau

    tower_json = serialize.artifact_json(serialize.tower_to_dict(tower))
    yield None, "tower.json", [tower_json.encode()], None
    ledgers = []
    diag_records = []
    for level in levels:
        n = level.level
        fresh = serialize.tau_level_to_dict(level, tower)
        yield level, f"tau_level_{n}.json", [serialize.artifact_json(fresh).encode()], fresh
        blocks = circle.runs_csv_blocks(tau.quasi_cost_pieces(level, tower))
        yield level, f"quasi_cost_level_{n}.csv", blocks, None
        s = duals.level_scalars(level, tower)
        ledgers.append(serialize.ledger_to_dict(s.ledger))
        diag_records.append(
            serialize.diagnostic_to_dict(s.diagnostic, s.dual_value, s.correction_norm)
        )
        if check:
            yield level, None, None, tau.verify_level(level, tower)
    ledger_json = serialize.artifact_json(ledgers)
    yield None, "singular_ledger.json", [ledger_json.encode()], ledgers
    diag_jsonl = serialize.diagnostics_jsonl(diag_records)
    yield None, "diagnostics.jsonl", [diag_jsonl.encode()], diag_records


def _load_json(text: str):
    """The JSON value of a saved artifact's text; ValueError when it does
    not parse, also when it nests deeper than the parser's limit."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to parse") from None


def _explain(where: str, name: str, text: str, fresh) -> list:
    """Which RLE of a tau level, or which level record of a series file,
    differs between the saved text and the fresh object; ValueError when
    the saved text does not parse."""
    if isinstance(fresh, dict):
        saved = _load_json(text)
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
        saved = [_load_json(line) for line in text.splitlines()]
    else:
        saved = _load_json(text)
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
    from . import circle, tau

    outdir = args.artifacts
    try:
        with open(os.path.join(outdir, "tower.json"), "r", encoding="utf-8") as fh:
            primes = _load_json(fh.read())["primes"]
        # A bool is an int to isinstance, and 11.0 == 11: neither is a prime.
        if type(primes) is not list or not primes or any(type(p) is not int for p in primes):
            raise ValueError(f'"primes" is {json.dumps(primes)}, not a list of integers')
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
    failures = [
        f"level {n}: {name} is deeper than the saved tower" for n, name in level_files if n > depth
    ]

    levels = tau.build_levels(tower, depth)
    for level, name, blocks, fresh in _artifacts(tower, levels, check=True):
        if name is None:  # the level's invariant checks
            if not fresh.hard_invariants_ok:
                failures.append(f"level {level.level}: invariant check failed: {fresh}")
        else:
            failures += _saved_failures(outdir, level, name, blocks, fresh)
    for f in failures:
        _progress(f)
    _print_data(serialize.dumps({"levels_checked": depth, "failures": failures}))
    return EXIT_OK if not failures else EXIT_FAIL


def main(argv=None) -> int:
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
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
    if args.command == "solve":
        return args.func(args)
    # Every construction failure of the tower verbs exits here, one line.
    from . import circle, tau

    try:
        return args.func(args)
    except _TooLarge as e:
        _progress(str(e))
    except (circle.TowerError, tau.GrowthTooSmall) as e:
        _progress(f"construction failed: {e}")
    return EXIT_CONSTRUCTION


if __name__ == "__main__":
    sys.exit(main())
