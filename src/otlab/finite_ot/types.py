"""Problem data for the finite transport solver.

All containers are immutable after construction (tuples of Fractions) and
safe to share across threads; the solvers are pure functions of them.
"""

from __future__ import annotations

from fractions import Fraction

from ..rational import INF, as_fraction, is_inf


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


class CostMatrix:
    """Extended-rational cost table: finite entries are >= 0, or INF."""

    __slots__ = ("n_rows", "n_cols", "entries")

    def __init__(self, entries):
        rows = []
        for row in entries:
            frozen = []
            for v in row:
                if is_inf(v):
                    frozen.append(INF)
                    continue
                f = as_fraction(v)
                if f < 0:
                    raise ValueError(f"cost entries must be >= 0, got {f}")
                frozen.append(f)
            rows.append(tuple(frozen))
        if not rows:
            raise ValueError("cost matrix must have at least one row")
        width = len(rows[0])
        if not width:
            raise ValueError("cost matrix must have at least one column")
        if any(len(r) != width for r in rows):
            raise ValueError("ragged cost matrix")
        self.entries = tuple(rows)
        self.n_rows = len(rows)
        self.n_cols = width

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def is_finite(self, i, j) -> bool:
        return not is_inf(self.entries[i][j])

    def finite_cells(self):
        for i, row in enumerate(self.entries):
            for j, v in enumerate(row):
                if v is not INF:
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
        return sum(self.mu, Fraction(0))

    def total_nu(self) -> Fraction:
        return sum(self.nu, Fraction(0))


class TransportPlan:
    """Nonnegative matrix with prescribed marginals and its exact cost."""

    __slots__ = ("entries", "value")

    def __init__(self, entries, value):
        self.entries = tuple(tuple(as_fraction(v) for v in row) for row in entries)
        self.value = as_fraction(value)

    @property
    def n_rows(self):
        return len(self.entries)

    @property
    def n_cols(self):
        return len(self.entries[0])

    def row_sums(self):
        return tuple(sum(row, Fraction(0)) for row in self.entries)

    def col_sums(self):
        return tuple(sum(col, Fraction(0)) for col in zip(*self.entries))

    def support(self):
        return {
            (i, j)
            for i, row in enumerate(self.entries)
            for j, v in enumerate(row)
            if v > 0
        }

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
        return sum(
            (p * m for p, m in zip(self.phi, marg.mu)), Fraction(0)
        ) + sum((p * m for p, m in zip(self.psi, marg.nu)), Fraction(0))

    def is_feasible(self, cost: CostMatrix) -> bool:
        # No constraint where cost is +inf: any finite sum is <= inf.
        for i, j in cost.finite_cells():
            if self.phi[i] + self.psi[j] > cost[i, j]:
                return False
        return True
