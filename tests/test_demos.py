"""Every script under demos/ runs to completion and prints its pinned stdout."""

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


def _run_demo(demo, cwd, *args):
    src = str(Path(otlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run(
        [sys.executable, str(demo), *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=300,
    )
    assert "Traceback" not in out.stderr
    assert out.returncode == 0, out.stderr
    return out.stdout


# Every demo's stdout, pinned: the exact numbers must not move when the
# code behind them is refactored.
CIRCLE_WALKTHROUGH = """\
tower: primes (5, 11), moduli (5, 55), angle numerators (1, 12) (relaxed growth)

level 1 (five intervals):
  phi   [0, 1, 2, 2, 1]
  tau   [1, -1, 0, 1, -1]
  sigma [1, 0, 2, 4, 3]   good [1, 3] singular [0, 4]
  quasi-cost [0, 2, 1, 2, 0]  (mean exactly 1)
  singular mass -2/5  (= -1 + 3/5)

level 2 (55 intervals): the two singular blocks split into
compensating good halves plus ten singular sub-blocks each,
re-routed into the middle of their image blocks.
  permutation True, nesting True, middle avoidance True
  singular children 20, mass -4/11
  change measure 2/55, good deviation 4/55
  transport cost: total 1, clipped 59/55, surviving 1

the raw potentials are already tight on all three graphs:
  level 1: feasible True, dual value 1, correction norm 0
  level 2: feasible True, dual value 1, correction norm 0
"""

DUALITY_CERTIFICATES = """\
primal value  77/36
dual value    77/36
strong duality holds exactly: True
complementary slackness: pass
optimizer support is cyclically monotone: True
support potentials tight on 6 cells: True

a support that swaps two cheap diagonal cells is not monotone:
  monotone: False; witness cycle: [(1, 0), (0, 1)] (the swap saves 2)
"""

RELAXED_DUAL_GAP = """\
tower: (5, 31)
row 1: eta = 3/5, |f - g|_1 = 3/5 (target 1/2), displacement 32/155
row 2: eta = 11/31, |f - g|_1 = 139/341 (target 1/4), displacement 2/31

truncated cost: 155x155, 460 finite cells on 3 graphs
primal = 1, dual = 1 (both exactly 1 at every truncation)
  sample mass 107/155 cost 0: no completion within circle distance 44/155
  sample mass 107/155 cost 0: no completion within circle distance 44/155
  sample mass 1 cost 1: excluded (cost gate)

witness masses per row: {'1': '12/31', '2': '20/31'} at cost {'0/1'}
eta trend: {'1': '3/5', '2': '11/31'} strictly decreasing: True

the finite truncations never show the gap; the report's shrinking
eta and zero-cost witnesses are the exact finite evidence for it.
"""

SINGULAR_MASS_BUILDUP = """\
tower: (7, 29) (relaxed growth)

level          carrier    negative mass   singular set
    1              2/7             -2/7            2/7
    2           38/203             -2/7           8/29

carrier shrink factor: 19/29
|negative mass| vs 1 - 3/7: 2/7 vs 0.571429

small-set suprema at level 2 (greedy most-negative mass under mu(A) < delta):
  delta =      1/2: 2/7
  delta =      1/4: 2/7
  delta =      1/8: 45/203
  delta =     1/16: 24/203
  delta =     1/32: 12/203
  delta =     1/64: 6/203

the suprema saturate at the full negative mass long before the
carrier scale, which is the finite shadow of a purely singular part.
"""


# The paper-compliant (7, 672323) tower behind the demo's --compliant flag.
SINGULAR_MASS_BUILDUP_COMPLIANT = """\
tower: (7, 672323) (paper_compliant growth)

level          carrier    negative mass   singular set
    1              2/7             -2/7            2/7
    2         8/672323 -2689234/4706261       8/672323

carrier shrink factor: 28/672323
|negative mass| vs 1 - 3/7: 2689234/4706261 vs 0.571429

small-set suprema at level 2 (greedy most-negative mass under mu(A) < delta):
  delta =      1/2: 2689234/4706261
  delta =      1/4: 2689234/4706261
  delta =      1/8: 2689234/4706261
  delta =     1/16: 2689234/4706261
  delta =     1/32: 2689234/4706261
  delta =     1/64: 2689234/4706261
  delta =    1/128: 2689234/4706261
  delta =    1/256: 2689234/4706261
  delta =    1/512: 2689234/4706261
  delta =   1/1024: 2689234/4706261
  delta =   1/2048: 2689234/4706261
  delta =   1/4096: 2689234/4706261
  delta =   1/8192: 2689234/4706261
  delta =  1/16384: 2689234/4706261
  delta =  1/32768: 2689234/4706261
  delta =  1/65536: 2689234/4706261
  delta = 1/131072: 240111/672323
  delta = 1/262144: 816381/4706261
  delta = 1/524288: 384183/4706261
  delta = 1/1048576: 192092/4706261
  delta = 1/2097152: 96046/4706261

the suprema saturate at the full negative mass long before the
carrier scale, which is the finite shadow of a purely singular part.
"""


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


PINNED_STDOUT = {
    "budgeted_dual_relaxation": BUDGETED_DUAL_TABLE,
    "circle_construction_walkthrough": CIRCLE_WALKTHROUGH,
    "duality_certificates": DUALITY_CERTIFICATES,
    "relaxed_dual_gap": RELAXED_DUAL_GAP,
    "singular_mass_buildup": SINGULAR_MASS_BUILDUP,
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(tmp_path, demo):
    assert _run_demo(demo, tmp_path) == PINNED_STDOUT[demo.stem]


def test_budgeted_demo_prints_the_pinned_table(tmp_path):
    out = _run_demo(DEMO_DIR / "budgeted_dual_relaxation.py", tmp_path)
    assert out == BUDGETED_DUAL_TABLE


def test_singular_mass_buildup_compliant_prints_the_pinned_table(tmp_path):
    out = _run_demo(DEMO_DIR / "singular_mass_buildup.py", tmp_path, "--compliant")
    assert out == SINGULAR_MASS_BUILDUP_COMPLIANT
