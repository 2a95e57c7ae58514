"""SHA-256 pins of CLI reports that no artifact covers: the default
`otlab gap` report and `otlab solve` reports on seeded dense instances.

The demo stdout, `verify`'s output on the broken artifact sets and the
construction-failure lines are pinned where those runs are made
(`test_demos.py`, `test_io_and_cli.py`).
"""

import hashlib
import json
import random
from fractions import Fraction as F

import pytest

from otlab.cli import main
from otlab.rational import format_rational

# sha256 of the stdout of `otlab gap --m1 5 --jmax 2 --M 2`
GAP_DEFAULT_REPORT = "282cd3270e9cc51de52debfc1160917080d5e54223960376d5b376b9f22b8201"


def test_gap_default_report_digest(capsys):
    assert main(["gap", "--m1", "5", "--jmax", "2", "--M", "2"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GAP_DEFAULT_REPORT


def _dense_instance(n, seed):
    """A uniform n x n instance with costs p/q, p <= 40, q <= 4."""
    rng = random.Random(seed)
    cost = [
        [format_rational(F(rng.randint(0, 40), rng.randint(1, 4))) for _ in range(n)]
        for _ in range(n)
    ]
    w = format_rational(F(1, n))
    return {"n": n, "cost": cost, "mu": [w] * n, "nu": [w] * n}


# sha256 of the stdout of `otlab solve` on _dense_instance(n, seed)
SOLVE_REPORTS = {
    (16, 1): "9381a104176614b711dba9ed487a98a3eee97e138a365ba2ba3a9c034309b630",
    (16, 2): "2a5924a7d21327a03f504400d518cd0caa43298613cdcf6c8c81a6e7d697790a",
    (16, 3): "cda6a8e75c4213250102ee6fd7e4fb1720a55b05ddc4060d05e90d882189c5e9",
    (40, 1): "e2e40f252acb65725b399089eac1e081ec5a2be78c3d6d3afefbaf1b29d678e9",
}


@pytest.mark.parametrize("n,seed", sorted(SOLVE_REPORTS), ids=lambda v: str(v))
def test_solve_report_digest(tmp_path, capsys, n, seed):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(_dense_instance(n, seed)), encoding="utf-8")
    assert main(["solve", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SOLVE_REPORTS[(n, seed)]
