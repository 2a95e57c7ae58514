"""Smoke test: every script under demos/ runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import otlab

DEMO_DIR = Path(__file__).resolve().parents[1] / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))


def test_demos_found():
    assert len(DEMOS) == 5


def _run_demo(demo, cwd):
    src = str(Path(otlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=300,
    )
    assert "Traceback" not in out.stderr
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(tmp_path, demo):
    _run_demo(demo, tmp_path)


# The table as the dense-tableau LP printed it; the exact relaxed-dual
# values must not move when the solver behind them changes.
BUDGETED_DUAL_TABLE = """\
primal value: 75/16

     eps   relaxed dual value
       2   39/4
       1   31/4
     1/2   107/16
     1/4   91/16
     1/8   83/16
       0   75/16

the budget buys value one-for-one until the plan geometry binds,
and the eps = 0 row equals the primal value exactly.
"""


def test_budgeted_demo_prints_the_pinned_table(tmp_path):
    out = _run_demo(DEMO_DIR / "budgeted_dual_relaxation.py", tmp_path)
    assert out == BUDGETED_DUAL_TABLE
