"""Problem data for the finite transport solver.

No container is changed after construction, so each is safe to share
across threads; the solvers are pure functions of them.  A cost is held
by its finite arcs and a plan by its nonzero cells: neither stores a
dense table.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

from ..rational import INF, as_fraction, over_common_denominator


class FiniteOTError(Exception):
    pass


class InfeasibleMarginals(FiniteOTError):
    """Row and column marginals do not sum to the same total mass."""


class NoFinitePlan(FiniteOTError):
    """Every admissible plan puts mass on a +inf cost cell."""


class DimensionMismatch(FiniteOTError):
    pass


class InfiniteCostInSupport(FiniteOTError):
    pass


class NegativeEpsilon(FiniteOTError):
    pass


class InfiniteCostOnPi0Support(FiniteOTError):
    pass


class Pi0NotACoupling(FiniteOTError):
    """A reference plan that is not a coupling of the marginals."""


def _freeze_vector(values):
    return tuple(as_fraction(v) for v in values)


def _total(values) -> Fraction:
    nums, d = over_common_denominator(values)
    return Fraction(sum(nums), d)


def _dot(xs, ys) -> Fraction:
    """sum(x*y) over two Fraction vectors."""
    a, d = over_common_denominator(xs)
    b, e = over_common_denominator(ys)
    return Fraction(sum(map(mul, a, b)), d * e)


def integer_arcs(arcs, *vectors):
    """(rows, ints, d): the per-row arcs `arcs` (dicts {column:
    Fraction}, as in `CostMatrix.arcs`) and each Fraction vector of
    `vectors` as plain ints over their least common denominator d.
    rows[i] keeps the column order of arcs[i] and ints[k] is vectors[k];
    sums and comparisons of the ints are those of the Fractions times d,
    so checks and shortest paths run exactly without a Fraction per
    step."""
    d = lcm(
        *{c.denominator for row in arcs for c in row.values()},
        *{x.denominator for v in vectors for x in v},
    )
    rows = [{j: c.numerator * (d // c.denominator) for j, c in row.items()} for row in arcs]
    return rows, [[x.numerator * (d // x.denominator) for x in v] for v in vectors], d


def _arc_cost(v) -> Fraction:
    """The rational v as an arc cost; ValueError when it is negative."""
    f = v if type(v) is Fraction else as_fraction(v)
    if f.numerator < 0:
        raise ValueError(f"cost entries must be >= 0, got {f}")
    return f


class CostMatrix:
    """Extended-rational cost held by its finite arcs: `arcs[i]` maps
    each column j of a finite cell of row i, in increasing order, to its
    Fraction cost >= 0.  Every other cell is INF."""

    __slots__ = ("n_rows", "n_cols", "arcs")

    def __init__(self, entries):
        """The cost of a dense table of rows, each entry a rational >= 0
        or INF."""
        rows = [list(row) for row in entries]
        if not rows:
            raise ValueError("cost matrix must have at least one row")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged cost matrix")
        if width < 1:
            raise ValueError("cost matrix must have at least one column")
        # Each row's dict is built in column order, so it needs no sort.
        self.arcs = tuple(
            {j: _arc_cost(v) for j, v in enumerate(row) if v is not INF} for row in rows
        )
        self.n_rows = len(rows)
        self.n_cols = width

    @classmethod
    def from_arcs(cls, n_rows: int, n_cols: int, arcs) -> "CostMatrix":
        """The n_rows x n_cols cost that is finite exactly on the arcs,
        (i, j, cost) triples in any order, each cell at most once."""
        if n_rows < 1:
            raise ValueError("cost matrix must have at least one row")
        if n_cols < 1:
            raise ValueError("cost matrix must have at least one column")
        rows = [{} for _ in range(n_rows)]
        for i, j, v in arcs:
            if not (0 <= i < n_rows and 0 <= j < n_cols):
                raise ValueError(f"arc {(i, j)} outside the {n_rows}x{n_cols} cost")
            if j in rows[i]:
                raise ValueError(f"arc {(i, j)} given twice")
            rows[i][j] = _arc_cost(v)
        self = cls.__new__(cls)
        self.arcs = tuple(dict(sorted(row.items())) for row in rows)
        self.n_rows = n_rows
        self.n_cols = n_cols
        return self

    def __getitem__(self, ij):
        i, j = ij
        return self.arcs[i].get(j, INF)

    def is_finite(self, i, j) -> bool:
        return j in self.arcs[i]

    def finite_cells(self):
        """The finite cells (i, j), in row-major order."""
        for i, row in enumerate(self.arcs):
            for j in row:
                yield i, j

    def __repr__(self):
        return f"CostMatrix({self.n_rows}x{self.n_cols})"


class Marginals:
    """Nonnegative row/column mass vectors.

    Sum equality is checked at solve time, not here: the same container
    carries the (f, g) arguments of the perturbation functional, whose
    sums may legitimately differ (the value is then +inf).
    """

    __slots__ = ("mu", "nu")

    def __init__(self, mu, nu):
        self.mu = _freeze_vector(mu)
        self.nu = _freeze_vector(nu)
        if any(v < 0 for v in self.mu) or any(v < 0 for v in self.nu):
            raise ValueError("marginals must be nonnegative")

    @staticmethod
    def uniform(n: int) -> "Marginals":
        w = Fraction(1, n)
        return Marginals([w] * n, [w] * n)

    def total_mu(self) -> Fraction:
        return _total(self.mu)

    def total_nu(self) -> Fraction:
        return _total(self.nu)


class TransportPlan:
    """A plan held by its nonzero cells, `cells` = {(i, j): Fraction} in
    row-major order, with its exact cost."""

    __slots__ = ("n_rows", "n_cols", "cells", "value")

    def __init__(self, entries, value):
        """The plan of a dense table of rows."""
        rows = [[as_fraction(v) for v in row] for row in entries]
        width = len(rows[0]) if rows else 0
        if any(len(r) != width for r in rows):
            raise ValueError("ragged transport plan")
        self.n_rows = len(rows)
        self.n_cols = width
        self.cells = {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row) if v}
        self.value = as_fraction(value)

    @classmethod
    def from_cells(cls, n_rows: int, n_cols: int, cells, value) -> "TransportPlan":
        """The n_rows x n_cols plan with the nonzero Fraction masses of
        `cells`, a {(i, j): mass} dict; zero elsewhere."""
        self = cls.__new__(cls)
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.cells = dict(sorted(cells.items()))
        self.value = as_fraction(value)
        return self

    @property
    def entries(self):
        """The dense table, built on each call."""
        rows = [[Fraction(0)] * self.n_cols for _ in range(self.n_rows)]
        for (i, j), v in self.cells.items():
            rows[i][j] = v
        return tuple(tuple(row) for row in rows)

    def row_sums(self):
        sums = [Fraction(0)] * self.n_rows
        for (i, _), v in self.cells.items():
            sums[i] += v
        return tuple(sums)

    def col_sums(self):
        sums = [Fraction(0)] * self.n_cols
        for (_, j), v in self.cells.items():
            sums[j] += v
        return tuple(sums)

    def support(self):
        return {cell for cell, v in self.cells.items() if v > 0}

    def check_marginals(self, marg: Marginals) -> bool:
        return self.row_sums() == marg.mu and self.col_sums() == marg.nu


class DualPair:
    """Potentials phi (rows) and psi (columns) with their dual value."""

    __slots__ = ("phi", "psi", "value")

    def __init__(self, phi, psi, value=None):
        self.phi = _freeze_vector(phi)
        self.psi = _freeze_vector(psi)
        if value is None:
            value = Fraction(0)
        self.value = as_fraction(value)

    def pair_value(self, marg: Marginals) -> Fraction:
        return _dot(self.phi, marg.mu) + _dot(self.psi, marg.nu)

    def is_feasible(self, cost: CostMatrix) -> bool:
        # No constraint where cost is +inf: any finite sum is <= inf.  The
        # potentials and arc costs are compared as ints over one common
        # denominator.
        rows, (phi, psi), _ = integer_arcs(cost.arcs, self.phi, self.psi)
        for p, row in zip(phi, rows):
            for j, c in row.items():
                if p + psi[j] > c:
                    return False
        return True
