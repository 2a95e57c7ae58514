"""Bit-exact JSON instance files.

Schema: {"n": int, "cost": [[rational or "inf"]], "mu": [...], "nu": [...]}
with every rational serialized as a canonical "p/q" string.  "n", the
number of cost rows, may be left out; when given it must be that int.
"""

from __future__ import annotations

import json

from ..rational import format_rational, parse_rational_str
from .types import CostMatrix, Marginals


def instance_to_json(cost: CostMatrix, marg: Marginals) -> str:
    rows = [["inf"] * cost.n_cols for _ in range(cost.n_rows)]
    for row, arcs in zip(rows, cost.arcs):
        for j, c in arcs.items():
            row[j] = format_rational(c)
    obj = {
        "n": cost.n_rows,
        "cost": rows,
        "mu": [format_rational(v) for v in marg.mu],
        "nu": [format_rational(v) for v in marg.nu],
    }
    return json.dumps(obj, sort_keys=True, indent=1)


def _list(value, what: str):
    """value itself when it is a JSON list; ValueError otherwise (a string
    would iterate as its characters, an object as its keys)."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON list, got {type(value).__name__}")
    return value


def instance_from_json(text: str):
    try:
        obj = json.loads(text)
    except RecursionError:  # the parser's own limit, not a Python bug
        raise ValueError("instance JSON is nested too deeply to parse") from None
    if not isinstance(obj, dict):
        raise ValueError("instance must be a JSON object")
    for key in ("cost", "mu", "nu"):
        if key not in obj:
            raise ValueError(f"instance has no {key!r} key")
    rows = _list(obj["cost"], "cost")
    n = obj.get("n", len(rows))
    # A bool is an int to isinstance, so "n": true is no row count.
    if type(n) is not int or n != len(rows):
        raise ValueError(f'"n" is {json.dumps(n)}, the number of cost rows is {len(rows)}')
    parsed = {}  # one Fraction (or INF) per distinct entry string

    def parse(v):
        if type(v) is not str:  # a list is unhashable; parsing rejects it
            return parse_rational_str(v)
        f = parsed.get(v)
        if f is None:
            f = parsed[v] = parse_rational_str(v)
        return f

    cost = CostMatrix([[parse(v) for v in _list(row, "a cost row")] for row in rows])
    mu, nu = ([parse(v) for v in _list(obj[k], k)] for k in ("mu", "nu"))
    return cost, Marginals(mu, nu)


def load_instance(path):
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_json(fh.read())


def save_instance(path, cost: CostMatrix, marg: Marginals):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(instance_to_json(cost, marg))
        fh.write("\n")
