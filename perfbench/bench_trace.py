"""Span recording around the calls into otlab's modules.

Only the traced run installs these wrappers; the timed runs never import
this module's `install`.  Spans stay in memory as
``[name, start, end, parent, op]`` rows and are written out once, at the
end of the run.  Nothing under ``src/`` knows about them: the wrappers are
put in place by rebinding each public name in every otlab module that
holds it, which is where the callers look it up.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Module -> layer name used as the span prefix.  Every public function
# defined in these modules is wrapped.  For finite_ot the spans sit on
# the package's exported API (`otlab.finite_ot.__all__`) plus the dense
# LP, so the transport simplex stays inside solve_primal's self time.
LAYER_MODULES = {
    "otlab.circle": "circle",
    "otlab.tau": "tau",
    "otlab.duals": "duals",
    "otlab.gap": "gap",
    "otlab.serialize": "serialize",
    "otlab.cli": "cli",
}
FINITE_OT_EXTRA = ("otlab.finite_ot.lp", "solve_lp")

# Per-layer metrics, each with its unit.  `.calls` counts spans, `.s` is
# the total span time and `.self_s` the span time not covered by child
# spans; every figure is per op.  The other names are counters kept at
# the same boundaries.
PER_LAYER = {
    "finite_ot.solve_primal.calls": "count",
    "finite_ot.solve_primal.self_s": "s",
    "finite_ot.solve_dual.self_s": "s",
    "finite_ot.is_cyclically_monotone.s": "s",
    "finite_ot.check_complementary_slackness.s": "s",
    "finite_ot.instance_from_json.s": "s",
    "finite_ot.solve_relaxed_dual.self_s": "s",
    "finite_ot.solve_lp.s": "s",
    "gap.build_gap_family.s": "s",
    "gap.materialize_cost.s": "s",
    "gap.materialize_cost.finite_cells": "count",
    "gap.verify_truncated_duality.self_s": "s",
    "gap.solve_primal.calls": "count",
    "gap.probes_infeasible": "count",
    "gap.gap_demonstration.self_s": "s",
    "circle.StepFunction.to_csv.s": "s",
    "circle.csv_bytes": "bytes",
    "circle.build_tower_mode.s": "s",
    "circle.phi_level.s": "s",
    "tau.build_levels.s": "s",
    "tau.quasi_cost.s": "s",
    "tau.singular_ledger.s": "s",
    "tau.extend_tau.s": "s",
    "tau.verify_level.s": "s",
    "duals.singular_buildup.s": "s",
    "duals.corrected_pair.s": "s",
    "serialize.rle_encode.s": "s",
    "serialize.artifact_bytes": "bytes",
    "serialize.rle_decode.s": "s",
    "cli.cmd_construct.self_s": "s",
    "cli.cmd_verify.self_s": "s",
    "trace_overhead_frac": "1",
}


class Tracer:
    """In-memory span store for one process."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.op = -1

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.op])
        self.stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = perf_counter()
        popped = self.stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while {popped} was open")

    def wrap(self, name: str, fn, on_result=None):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def merge(self, spans, counts, parent: int):
        """Append spans recorded by a child process under `parent`."""
        base = len(self.spans)
        for name, start, end, par, _op in spans:
            self.spans.append(
                [name, start, end, parent if par < 0 else base + par, self.op]
            )
        self.counts.update(counts)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def install(tracer: Tracer):
    """Wrap every public otlab function of the traced modules, plus
    `StepFunction.to_csv`, and rebind each name wherever a module holds
    it.  Returns a function that puts the originals back."""
    for modname in LAYER_MODULES:
        importlib.import_module(modname)
    finite_ot = importlib.import_module("otlab.finite_ot")
    hooks = {
        "serialize.dumps": lambda text: tracer.counts.update(
            {"serialize.artifact_bytes": len(text)}
        ),
        "gap.materialize_cost": lambda trunc: tracer.counts.update(
            {"gap.materialize_cost.finite_cells": trunc.finite_cells}
        ),
    }
    wrapped = {}
    targets = [getattr(finite_ot, name) for name in finite_ot.__all__]
    targets.append(getattr(importlib.import_module(FINITE_OT_EXTRA[0]), FINITE_OT_EXTRA[1]))
    for obj in targets:
        if inspect.isfunction(obj):
            wrapped[obj] = tracer.wrap(f"finite_ot.{obj.__name__}", obj)
    for modname, layer in LAYER_MODULES.items():
        mod = sys.modules[modname]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != modname:
                continue
            name = f"{layer}.{attr}"
            wrapped[obj] = tracer.wrap(name, obj, hooks.get(name))

    restore = []
    for modname, mod in list(sys.modules.items()):
        if modname != "otlab" and not modname.startswith("otlab."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                restore.append((mod, attr, obj))
                setattr(mod, attr, wrapped[obj])

    from otlab import circle, gap
    from otlab.finite_ot import NoFinitePlan

    to_csv = circle.StepFunction.to_csv
    restore.append((circle.StepFunction, "to_csv", to_csv))
    circle.StepFunction.to_csv = tracer.wrap(
        "circle.StepFunction.to_csv",
        to_csv,
        lambda text: tracer.counts.update({"circle.csv_bytes": len(text)}),
    )

    # gap's own binding of solve_primal: count the calls the separation
    # search makes and the probes that find no finite completion.
    inner = gap.solve_primal

    def gap_solve_primal(*args, **kwargs):
        tracer.counts["gap.solve_primal.calls"] += 1
        try:
            return inner(*args, **kwargs)
        except NoFinitePlan:
            tracer.counts["gap.probes_infeasible"] += 1
            raise

    gap.solve_primal = gap_solve_primal

    def uninstall():
        # The generic pass above saved gap's original binding, so this
        # also removes the counting wrapper.
        for mod, attr, obj in reversed(restore):
            setattr(mod, attr, obj)

    return uninstall


def self_times(spans):
    """Total and self time per span name, and the call count."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            covered[parent] += end - start
    total = defaultdict(float)
    own = defaultdict(float)
    calls = Counter()
    for i, (name, start, end, _parent, _op) in enumerate(spans):
        total[name] += end - start
        own[name] += end - start - covered[i]
        calls[name] += 1
    return total, own, calls


def layer_metrics(tracer: Tracer, ops: int, overhead_frac: float) -> dict:
    total, own, calls = self_times(tracer.spans)
    out = {}
    for metric, unit in PER_LAYER.items():
        if metric == "trace_overhead_frac":
            value = overhead_frac
        elif metric.endswith(".self_s"):
            value = own[metric[: -len(".self_s")]] / ops
        elif metric.endswith(".calls") and metric[: -len(".calls")] in calls:
            value = calls[metric[: -len(".calls")]] / ops
        elif metric.endswith(".s"):
            value = total[metric[: -len(".s")]] / ops
        else:
            value = tracer.counts[metric] / ops
        out[metric] = {"value": value, "unit": unit}
    return out


def top_self_times(tracer: Tracer, ops: int, k: int = 5):
    _, own, _ = self_times(tracer.spans)
    ranked = sorted(
        ((name, t) for name, t in own.items() if not name.startswith("bench.")),
        key=lambda kv: kv[1],
        reverse=True,
    )
    return [(name, t / ops) for name, t in ranked[:k]]
