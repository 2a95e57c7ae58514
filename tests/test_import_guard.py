"""Import guards.

No production module imports the dense tableau LP:
`otlab.finite_ot.lp` is only the oracle of `tests/relaxed_dual_lp_oracle.py`;
the relaxed dual runs on transport solves.  Every import in
`src/otlab/**/*.py` is resolved to absolute module names, relative
imports included, and none may be the LP module.

The solve path loads neither numpy nor the circle construction: a fresh
interpreter that imports `finite_ot` and `serialize` and runs
`otlab solve` ends with none of them in `sys.modules`.  The tower verbs
(`gap`, `construct`, `verify`), each in a fresh interpreter, load no
`numpy.ma` and, unless told otherwise, start no BLAS thread pool.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import otlab

LP = "otlab.finite_ot.lp"
PACKAGE_ROOT = Path(otlab.__file__).resolve().parent


def _package_of(path: Path) -> str:
    parts = list(path.relative_to(PACKAGE_ROOT.parent).with_suffix("").parts)
    return ".".join(parts[:-1])


def _imports_lp(source: str, package: str) -> bool:
    """Whether `source`, a module of `package`, imports the LP module:
    every `import X` and `from X import name` is resolved to absolute
    names, each imported name counted as a possible submodule."""
    pkg = package.split(".")
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = pkg[: len(pkg) - node.level + 1] if node.level else []
            base = ".".join(base + ([node.module] if node.module else []))
            names += [base] + [f"{base}.{alias.name}" for alias in node.names]
    return any(name == LP or name.startswith(LP + ".") for name in names)


@pytest.mark.parametrize(
    "source, package",
    [
        ("from .lp import solve_lp", "otlab.finite_ot"),
        ("from . import lp", "otlab.finite_ot"),
        ("from ..finite_ot.lp import LPUnbounded", "otlab.finite_ot"),
        ("from .finite_ot import lp as tableau", "otlab"),
        ("import otlab.finite_ot.lp", "otlab"),
        ("def f():\n    from otlab.finite_ot.lp import solve_lp", "otlab"),
    ],
)
def test_guard_sees_every_import_form(source, package):
    assert _imports_lp(source, package)


def test_guard_passes_other_imports():
    assert not _imports_lp("from .simplex import solve_transport", "otlab.finite_ot")
    assert not _imports_lp("from .finite_ot import solve_certified", "otlab")


def test_no_production_module_imports_the_tableau_lp():
    offenders = [
        str(path.relative_to(PACKAGE_ROOT))
        for path in sorted(PACKAGE_ROOT.rglob("*.py"))
        if path != PACKAGE_ROOT / "finite_ot" / "lp.py"
        and _imports_lp(path.read_text(encoding="utf-8"), _package_of(path))
    ]
    assert offenders == []


# Run in a fresh interpreter: prints the report, then the names of the
# modules that must stay unloaded but were loaded.
SOLVE_PATH = """
import json
import sys
import otlab.finite_ot, otlab.serialize
from otlab import cli
code = cli.main(["solve", sys.argv[1]])
heavy = ["numpy", "otlab.circle", "otlab.tau", "otlab.duals", "otlab.gap"]
print(json.dumps({"exit": code, "loaded": [m for m in heavy if m in sys.modules]}))
"""


def test_solve_path_leaves_numpy_unimported(tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "cost": [["0/1", "inf", "3/2"], ["1/2", "0/1", "inf"], ["2/1", "1/3", "0/1"]],
        "mu": ["1/3", "1/3", "1/3"],
        "nu": ["1/3", "1/3", "1/3"],
    }))
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_ROOT.parent))
    out = subprocess.run(
        [sys.executable, "-c", SOLVE_PATH, str(inst)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    verdict = json.loads(out.stdout.splitlines()[-1])
    assert verdict == {"exit": 0, "loaded": []}


# Run a tower verb in a fresh interpreter: prints its output, then what
# it left loaded and set.
TOWER_VERB = """
import json
import os
import sys
from otlab import cli
code = cli.main(sys.argv[1:])
tasks = "/proc/self/task"
print(json.dumps({
    "exit": code,
    "numpy.ma": "numpy.ma" in sys.modules,
    "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    "threads": len(os.listdir(tasks)) if os.path.isdir(tasks) else None,
}))
"""


def _tower_verb(argv, **env):
    """The last stdout line of TOWER_VERB run on argv, as JSON, with env
    added to this environment less any OPENBLAS_NUM_THREADS."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    out = subprocess.run(
        [sys.executable, "-c", TOWER_VERB, *argv],
        capture_output=True, text=True, timeout=300,
        env=dict(base, PYTHONPATH=str(PACKAGE_ROOT.parent), **env),
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_tower_verbs_leave_numpy_ma_unimported(tmp_path):
    # np.unique, np.setdiff1d and friends import numpy.ma on their first
    # call under numpy 2; no verb needs it.
    d = str(tmp_path / "a")
    for argv in (
        ["gap", "--m1", "5", "--jmax", "2", "--M", "2"],
        ["construct", "--m1", "5", "--depth", "2", "--outdir", d],
        ["verify", d],
    ):
        got = _tower_verb(argv)
        assert (got["exit"], got["numpy.ma"]) == (0, False), argv


def test_tower_verbs_start_no_blas_thread_pool(tmp_path):
    d = str(tmp_path / "a")
    got = _tower_verb(["construct", "--m1", "5", "--depth", "2", "--outdir", d])
    assert got["exit"] == 0 and got["OPENBLAS_NUM_THREADS"] == "1"
    if got["threads"] is None:
        pytest.skip("no /proc/self/task to count the threads in")
    assert got["threads"] == 1
    # a value the user set stands
    got = _tower_verb(["verify", d], OPENBLAS_NUM_THREADS="3")
    assert got["exit"] == 0 and got["OPENBLAS_NUM_THREADS"] == "3"


def test_main_leaves_the_environment_of_a_numpy_caller(tmp_path, monkeypatch):
    # numpy is loaded here, so its thread pool has started: main sets
    # nothing.
    import numpy  # noqa: F401

    from otlab.cli import main

    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert main(["construct", "--m1", "5", "--depth", "1", "--outdir", str(tmp_path)]) == 0
    assert "OPENBLAS_NUM_THREADS" not in os.environ
