"""No production module imports the dense tableau LP.

`otlab.finite_ot.lp` is only the oracle of `tests/relaxed_dual_lp_oracle.py`;
the relaxed dual runs on transport solves.  Every import in
`src/otlab/**/*.py` is resolved to absolute module names, relative
imports included, and none may be the LP module.
"""

import ast
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
