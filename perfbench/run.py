"""otlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Workloads: solve_dense, gap_5_31, construct_verify_7c, relaxed_dual_sweep
(``--workload all`` runs each in its own process, one after another).

With ``--trace 0`` the ops run for S seconds untouched and the run reports
the end-to-end metrics; with ``--trace 1`` each op runs once untraced and
once with spans recorded around every call into otlab's modules, for about
2 * S seconds, and the run reports the per-layer metrics.  Lines before the last describe
the run for a reader; the last line is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROBES = 5

END_TO_END_UNITS = {"setup_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}


def import_program():
    """Import otlab from this checkout's src/, and nowhere else."""
    pkg = ROOT / "src" / "otlab"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: no otlab sources at {pkg}; run from a full checkout")
    os.environ.pop("TDL_SEARCH_CAP", None)
    sys.path.insert(0, str(ROOT / "src"))
    import otlab

    if Path(otlab.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"perfbench: imported otlab from {otlab.__file__}, not {pkg}")


def run_op(wl, k, tracer=None):
    """One op; a raised exception is a failed op with no timing (None)."""
    idx = None
    if tracer is not None:
        tracer.op = k
        idx = tracer.open("bench.op")
    try:
        res = wl.op(k, tracer)
    except Exception:
        traceback.print_exc()
        res = None
    finally:
        if idx is not None:
            tracer.close(idx)
    if res is not None and res.errors:
        print(f"op {k} failed its checks: {res.errors[:3]}", file=sys.stderr)
    return res


def run_ops(wl, seconds, tracer=None, count=None):
    """Run ops until `seconds` have passed (at least one op), or exactly
    `count` ops."""
    results = []
    start = perf_counter()
    while (
        len(results) < count
        if count is not None
        else not results or perf_counter() - start < seconds
    ):
        results.append(run_op(wl, len(results), tracer))
    return results


def failures(results):
    return sum(1 for r in results if r is None or r.errors)


def tail(times):
    """Highest percentile with at least ten samples beyond it; the max
    when there are ten samples or fewer.  Returns (value, pct, beyond)."""
    s = sorted(times)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, 0
    return s[n - 11], 100.0 * (n - 10) / n, 10


def setup_probes(args):
    """Time SETUP_PROBES fresh processes that start the interpreter,
    import otlab and build the workload's inputs, then exit."""
    from bench_workloads import run_child

    argv = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    times = []
    for _ in range(SETUP_PROBES):
        wall, rc, _ = run_child(argv)
        if rc != 0:
            sys.exit(f"perfbench: set-up probe exited {rc}")
        times.append(wall)
    return times


def end_to_end(args, wl, results, setup_times):
    """Print every end-to-end figure; return the gated ones."""
    ok = [r for r in results if r is not None]
    if not ok:
        sys.exit("perfbench: every op raised; no timing to report")
    times = [r.seconds for r in ok]
    child_rss = [v for r in ok for v in r.rss_mb.values()]
    own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gated = {
        "setup_s": statistics.median(setup_times),
        "op_p50_s": statistics.median(times),
        "peak_rss_mb": max([own_rss] + child_rss),
    }
    tail_v, tail_pct, beyond = tail(times)
    failed = failures(results)
    # (name, value, unit, how it was taken); only the first three are gated.
    rows = [
        ("setup_s", gated["setup_s"], "s", f"median of {len(setup_times)} set-ups"),
        ("op_p50_s", gated["op_p50_s"], "s", f"median of {len(times)} ops"),
        ("peak_rss_mb", gated["peak_rss_mb"], "MB", "highest of this process and its op children"),
        ("ops_per_s", len(times) / sum(times), "1/s", f"{len(times)} ops in {sum(times):.3f} s of op time"),
        ("op_tail_s", tail_v, "s", f"p{tail_pct:.1f} of {len(times)} ops, {beyond} beyond it"),
    ]
    calls = [t for r in ok for t in r.calls]
    if calls:
        rows.append(("call_p50_s", statistics.median(calls), "s", f"median of {len(calls)} calls"))
    for part in sorted({p for r in ok for p in r.parts}):
        vals = [r.parts[part] for r in ok]
        rows.append((part, statistics.median(vals), "s", f"median of {len(vals)}"))
    for proc in sorted({p for r in ok for p in r.rss_mb}):
        vals = [r.rss_mb[proc] for r in ok]
        rows.append((f"{proc}_rss_mb", max(vals), "MB", f"highest of {len(vals)}"))
    rows.append(("failed_frac", failed / len(results), "1", f"{failed} of {len(results)} ops"))

    print(f"workload {wl.name} seed {args.seed}, {args.seconds} s")
    for name, value, unit, how in rows:
        label = f"{name} ({wl.names[name]})" if name in wl.names else name
        print(f"  {label:<34} {value:14.6f} {unit:<4} {how}")
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in gated.items()}


def per_layer(args, wl, seconds):
    """Each op twice, untraced and then traced, for about twice `seconds`.

    Pairing the two runs of an op makes the overhead estimate immune to
    the host's speed drifting during the run.
    """
    import bench_trace
    from bench_workloads import WORK_DIR

    tracer = bench_trace.Tracer()
    plain, traced = [], []
    start = perf_counter()
    while not plain or perf_counter() - start < 2 * seconds:
        k = len(plain)
        plain.append(run_op(wl, k))
        uninstall = bench_trace.install(tracer)
        try:
            traced.append(run_op(wl, k, tracer))
        finally:
            uninstall()
    count = len(plain)
    pairs = [(p, t) for p, t in zip(plain, traced) if p is not None and t is not None]
    if not pairs:
        sys.exit("perfbench: no op ran both untraced and traced; no overhead to report")
    overhead = sum(t.seconds for _, t in pairs) / sum(p.seconds for p, _ in pairs) - 1
    WORK_DIR.mkdir(exist_ok=True)
    trace_path = WORK_DIR / f"trace-{wl.name}-seed{args.seed}.json"
    tracer.dump(trace_path)
    metrics = bench_trace.layer_metrics(tracer, count, overhead)
    print(f"workload {wl.name} seed {args.seed}: {count} ops, each untraced then traced; "
          f"spans in {trace_path.relative_to(ROOT)}")
    for name, value in bench_trace.top_self_times(tracer, count):
        print(f"  top self time  {name:<40} {value:12.6f} s/op")
    for key, m in metrics.items():
        print(f"  {key:<44} {m['value']:14.6f} {m['unit']}")
    return plain + traced, metrics


def run_all(args):
    """Each workload in its own process, one after another."""
    from bench_workloads import WORKLOADS, WORK_DIR, run_child

    WORK_DIR.mkdir(exist_ok=True)
    code = 0
    for name in WORKLOADS:
        out = WORK_DIR / f"all-{name}.out"
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        _, rc, _ = run_child(argv, stdout_path=out, stderr_path=WORK_DIR / f"all-{name}.err")
        lines = out.read_text(encoding="utf-8").splitlines()
        print("\n".join(lines[:-1]) if rc == 0 else f"workload {name} exited {rc}")
        code = code or rc or (0 if json.loads(lines[-1])["correct"] else 1)
        out.unlink()
    return code


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    import_program()
    from bench_workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")

    if args.setup_probe:
        wl = WORKLOADS[args.workload](args.seed, args.seconds)
        getattr(wl, "close", lambda: None)()
        return 0

    setup_times = [] if args.trace else setup_probes(args)
    wl = WORKLOADS[args.workload](args.seed, args.seconds)
    # The inputs live for the whole run; keep them out of the collector's
    # scans so that an op costs what it costs in a fresh `otlab` process.
    gc.collect()
    gc.freeze()
    try:
        if args.trace:
            results, metrics = per_layer(args, wl, args.seconds)
        else:
            results = run_ops(wl, args.seconds)
            metrics = end_to_end(args, wl, results, setup_times)
    finally:
        getattr(wl, "close", lambda: None)()
    failed = failures(results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
