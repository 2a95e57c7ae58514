"""Small dense exact LP: min c.x s.t. Ax = b, x >= 0.

Two-phase tableau simplex over Fractions with Bland's rule, for LPs of a
few dozen variables; no attempt at sparse or revised methods.

No production module imports it (`tests/test_import_guard.py`): it is
the test oracle of `tests/relaxed_dual_lp_oracle.py`, the general-form
LP that `solve_relaxed_dual` must match exactly, and stays importable
because the benchmark tracer (`perfbench/bench_trace.py`) names
`solve_lp`.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class LPUnbounded(Exception):
    pass


class LPInfeasible(Exception):
    pass


def _pivot(T, basis, row, col):
    piv = T[row][col]
    T[row] = [x / piv for x in T[row]]
    prow = T[row]
    for r in range(len(T)):
        if r != row and T[r][col] != 0:
            f = T[r][col]
            T[r] = [a - f * b for a, b in zip(T[r], prow)]
    basis[row] = col


def _simplex(T, basis, ncols):
    # Objective in the last row (reduced-cost convention, rhs holds the
    # negated objective value); Bland: first negative column, lowest
    # basic index among ratio ties.
    while True:
        obj = T[-1]
        col = next((j for j in range(ncols) if obj[j] < 0), None)
        if col is None:
            return
        best = None
        row = None
        for r in range(len(T) - 1):
            a = T[r][col]
            if a > 0:
                ratio = T[r][-1] / a
                if best is None or ratio < best or (ratio == best and basis[r] < basis[row]):
                    best = ratio
                    row = r
        if row is None:
            raise LPUnbounded()
        _pivot(T, basis, row, col)


def solve_lp(A, b, c):
    """Return (x, value) minimizing c.x subject to Ax = b, x >= 0."""
    m = len(A)
    n = len(c)
    A = [[Fraction(v) for v in row] for row in A]
    b = [Fraction(v) for v in b]
    c = [Fraction(v) for v in c]
    for i in range(m):
        if b[i] < 0:
            A[i] = [-a for a in A[i]]
            b[i] = -b[i]

    # Phase 1: minimize the sum of artificial variables.
    ncols = n + m
    T = [A[i] + [ONE if k == i else ZERO for k in range(m)] + [b[i]] for i in range(m)]
    obj = [ZERO] * (ncols + 1)
    for i in range(m):
        for j in range(n):
            obj[j] -= A[i][j]
        obj[-1] -= b[i]
    T.append(obj)
    basis = [n + i for i in range(m)]
    _simplex(T, basis, ncols)
    if T[-1][-1] < 0:
        raise LPInfeasible()
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n) if T[r][j] != 0), None)
            if col is not None:
                _pivot(T, basis, r, col)
    keep = [r for r in range(m) if basis[r] < n]
    T2 = [[T[r][j] for j in range(n)] + [T[r][-1]] for r in keep]
    basis2 = [basis[r] for r in keep]

    # Phase 2: rebuild the reduced objective row against the basis
    # (basic columns are unit columns after phase 1).
    obj = c + [ZERO]
    for r, bv in enumerate(basis2):
        f = c[bv]
        if f != 0:
            row = T2[r]
            for j in range(n):
                obj[j] -= f * row[j]
            obj[-1] -= f * row[-1]
    T2.append(obj)
    _simplex(T2, basis2, n)
    x = [ZERO] * n
    for r, bv in enumerate(basis2):
        x[bv] = T2[r][-1]
    value = sum((ci * xi for ci, xi in zip(c, x)), ZERO)
    return x, value
