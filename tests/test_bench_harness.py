"""The --trace 1 harness puts back every otlab binding it rebinds."""

import importlib.util
import inspect
import sys
from pathlib import Path

import otlab.finite_ot.lp
from otlab import circle, cli, gap

BENCH_TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "bench_trace.py"


def _function_bindings():
    return {
        (name, attr): obj
        for name, mod in list(sys.modules.items())
        if name == "otlab" or name.startswith("otlab.")
        for attr, obj in vars(mod).items()
        if inspect.isfunction(obj)
    }


def test_install_then_uninstall_restores_every_binding():
    spec = importlib.util.spec_from_file_location("bench_trace", BENCH_TRACE)
    bench_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_trace)
    solve_primal = gap.solve_primal
    solve_lp = otlab.finite_ot.lp.solve_lp
    to_csv = circle.StepFunction.to_csv
    cli_bindings = dict(vars(cli))
    before = _function_bindings()

    uninstall = bench_trace.install(bench_trace.Tracer())
    try:
        assert gap.solve_primal is not solve_primal
        assert otlab.finite_ot.lp.solve_lp is not solve_lp
        assert circle.StepFunction.to_csv is not to_csv
        assert cli.cmd_solve is not cli_bindings["cmd_solve"]
    finally:
        uninstall()

    assert gap.solve_primal is solve_primal
    assert otlab.finite_ot.lp.solve_lp is solve_lp
    assert circle.StepFunction.to_csv is to_csv
    assert all(vars(cli)[attr] is obj for attr, obj in cli_bindings.items())
    after = _function_bindings()
    assert [key for key, obj in before.items() if after[key] is not obj] == []
