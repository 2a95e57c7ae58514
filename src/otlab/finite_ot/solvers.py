"""Primal/dual transport solves and their certificates.

`solve_primal` and `solve_certified` each run one transportation simplex
on the rows and columns with positive mass; `solve_dual` is the second
half of `solve_certified`.  The simplex pivots on integers (finite costs
and masses scaled by the LCMs of their denominators, an INF cell encoded
as an integer BIG above every finite part a reduced cost can reach, so
the integer order is the lexicographic (inf_units, finite) order) and
hands back the plan and its optimal tree potentials in exact Fractions.
The dual is those tree potentials, extended to zero-mass rows and
columns by a c-transform; only when the optimal tree crosses an INF
cell, so that a potential carries an infinity unit, does it fall back to
the strong-monotonicity potentials of the optimal support.  Either way
the potentials are checked exactly: feasible on every finite cell, with
the plan's value.  The budgeted relaxed dual is a general-form exact LP.
"""

from __future__ import annotations

from fractions import Fraction

from ..rational import INF, as_fraction, is_inf
from .lp import solve_lp
from .monotonicity import strong_monotone_potentials
from .simplex import solve_transport
from .types import (
    CostMatrix,
    DimensionMismatch,
    DualPair,
    InfeasibleMarginals,
    InfiniteCostOnPi0Support,
    Marginals,
    NegativeEpsilon,
    NoFinitePlan,
    TransportPlan,
)

ZERO = Fraction(0)
_INF_PAIR = (1, ZERO)  # one shared (inf_units, finite) pair for every INF cell


def _check_dims(cost: CostMatrix, marg: Marginals):
    if len(marg.mu) != cost.n_rows or len(marg.nu) != cost.n_cols:
        raise DimensionMismatch(
            f"marginals ({len(marg.mu)},{len(marg.nu)}) do not fit cost "
            f"({cost.n_rows},{cost.n_cols})"
        )


def _solve(cost: CostMatrix, marg: Marginals):
    """The optimal plan, and the optimal tree potentials of the rows and
    columns with positive mass as (inf_units, Fraction) pairs keyed by
    their index; InfeasibleMarginals / NoFinitePlan on failure."""
    _check_dims(cost, marg)
    if marg.total_mu() != marg.total_nu():
        raise InfeasibleMarginals(
            f"mass mismatch: {marg.total_mu()} vs {marg.total_nu()}"
        )

    # Zero rows/cols carry no mass; eliminate before solving.
    rows = [i for i, v in enumerate(marg.mu) if v > 0]
    cols = [j for j, v in enumerate(marg.nu) if v > 0]
    full = [[ZERO] * cost.n_cols for _ in range(cost.n_rows)]
    if not (rows and cols):
        return TransportPlan(full, ZERO), {}, {}
    ext = [
        [_INF_PAIR if is_inf(cost[i, j]) else (0, cost[i, j]) for j in cols]
        for i in rows
    ]
    supply = [marg.mu[i] for i in rows]
    demand = [marg.nu[j] for j in cols]
    flow, value, u, v = solve_transport(ext, supply, demand)
    if value[0] > 0:
        raise NoFinitePlan("every admissible plan meets an infinite cost cell")
    for (a, b), f in flow.items():
        if f > 0:
            full[rows[a]][cols[b]] = f
    return TransportPlan(full, value[1]), dict(zip(rows, u)), dict(zip(cols, v))


def solve_primal(cost: CostMatrix, marg: Marginals) -> TransportPlan:
    """Exactly optimal plan; InfeasibleMarginals / NoFinitePlan on failure."""
    return _solve(cost, marg)[0]


def _c_transform_fill(cost: CostMatrix, phi, psi):
    """Give the rows and columns the solve dropped (zero mass, None here)
    the largest potentials feasible against the others: columns first,
    against the solved rows, then rows, against every column."""
    m, n = cost.n_rows, cost.n_cols
    for j in range(n):
        if psi[j] is None:
            psi[j] = min(
                (cost[i, j] - phi[i] for i in range(m)
                 if phi[i] is not None and not is_inf(cost[i, j])),
                default=ZERO,
            )
    for i in range(m):
        if phi[i] is None:
            phi[i] = min(
                (cost[i, j] - psi[j] for j in range(n) if not is_inf(cost[i, j])),
                default=ZERO,
            )


def solve_certified(cost: CostMatrix, marg: Marginals):
    """Exactly optimal (plan, potentials) from one simplex solve; the
    potentials' value equals the plan value exactly.

    When no optimal tree potential carries an infinity unit (the tree
    uses finite cells only), they are the dual solution, extended to
    zero-mass rows and columns by a c-transform.  Otherwise the
    potentials come from `strong_monotone_potentials` on the optimal
    support.  Either way they are checked exactly: phi+psi <= c on every
    finite cell and a value equal to the plan value.
    """
    plan, u, v = _solve(cost, marg)
    if any(p[0] for p in u.values()) or any(p[0] for p in v.values()):
        pair = strong_monotone_potentials(sorted(plan.support()), cost)
        if pair is None:  # the optimal support is always cyclically monotone
            raise AssertionError("optimal support failed the monotonicity check")
    else:
        phi = [u[i][1] if i in u else None for i in range(cost.n_rows)]
        psi = [v[j][1] if j in v else None for j in range(cost.n_cols)]
        _c_transform_fill(cost, phi, psi)
        pair = DualPair(phi, psi)
    if not pair.is_feasible(cost):
        raise AssertionError("potentials infeasible on a finite cell")
    value = pair.pair_value(marg)
    if value != plan.value:
        raise AssertionError(f"duality gap {plan.value - value} in exact solver")
    return plan, DualPair(pair.phi, pair.psi, value)


def solve_dual(cost: CostMatrix, marg: Marginals) -> DualPair:
    """Optimal potentials of `solve_certified`."""
    return solve_certified(cost, marg)[1]


class SlacknessReport:
    """Complementary slackness audit for a (plan, potentials) pair."""

    def __init__(self, support_violations, feasibility_violations):
        self.support_violations = tuple(support_violations)
        self.feasibility_violations = tuple(feasibility_violations)

    @property
    def passed(self) -> bool:
        return not self.support_violations and not self.feasibility_violations


def check_complementary_slackness(
    plan: TransportPlan, duals: DualPair, cost: CostMatrix
) -> SlacknessReport:
    """List cells breaking pi > 0 => phi+psi = c, and infeasible cells.

    A charged INF cell is a support violation: no finite potentials are
    tight on it.  Both lists empty iff plan and potentials are
    simultaneously optimal (given each is feasible on its own).
    """
    if plan.n_rows != cost.n_rows or plan.n_cols != cost.n_cols:
        raise DimensionMismatch("plan does not fit cost matrix")
    if len(duals.phi) != cost.n_rows or len(duals.psi) != cost.n_cols:
        raise DimensionMismatch("potentials do not fit cost matrix")
    support_bad = []
    feas_bad = []
    for i, row in enumerate(cost.entries):
        for j, c in enumerate(row):
            if is_inf(c):
                if plan.entries[i][j] > 0:
                    support_bad.append((i, j))
                continue
            s = c - duals.phi[i] - duals.psi[j]
            if s < 0:
                feas_bad.append((i, j))
            elif s > 0 and plan.entries[i][j] > 0:
                support_bad.append((i, j))
    return SlacknessReport(support_bad, feas_bad)


def solve_relaxed_dual(
    cost: CostMatrix, marg: Marginals, pi0: TransportPlan, eps
) -> DualPair:
    """Budgeted dual: excess of phi+psi over c on supp(pi0) is bought at
    price pi0 within a total budget eps.

    max sum(phi*mu) + sum(psi*nu)
    s.t. s(i,j) >= phi(i)+psi(j) - c(i,j), s >= 0 on supp(pi0),
         sum(s * pi0) <= eps.
    """
    eps = as_fraction(eps)
    if eps < 0:
        raise NegativeEpsilon(f"eps = {eps}")
    _check_dims(cost, marg)
    support = sorted(pi0.support())
    for (i, j) in support:
        if is_inf(cost[i, j]):
            raise InfiniteCostOnPi0Support(f"pi0 charges infinite cell {(i, j)}")

    m, n = cost.n_rows, cost.n_cols
    k = len(support)
    # Variables: phi+ (m), phi- (m), psi+ (n), psi- (n), s (k), w (k), t (1)
    nv = 2 * m + 2 * n + 2 * k + 1
    off_phi_m = m
    off_psi_p = 2 * m
    off_psi_m = 2 * m + n
    off_s = 2 * m + 2 * n
    off_w = off_s + k
    off_t = off_w + k

    A = []
    b = []
    for r, (i, j) in enumerate(support):
        row = [ZERO] * nv
        row[i] = Fraction(1)
        row[off_phi_m + i] = Fraction(-1)
        row[off_psi_p + j] = Fraction(1)
        row[off_psi_m + j] = Fraction(-1)
        row[off_s + r] = Fraction(-1)
        row[off_w + r] = Fraction(1)
        A.append(row)
        b.append(cost[i, j])
    budget = [ZERO] * nv
    for r, (i, j) in enumerate(support):
        budget[off_s + r] = pi0.entries[i][j]
    budget[off_t] = Fraction(1)
    A.append(budget)
    b.append(eps)

    c = [ZERO] * nv
    for i in range(m):
        c[i] = -marg.mu[i]
        c[off_phi_m + i] = marg.mu[i]
    for j in range(n):
        c[off_psi_p + j] = -marg.nu[j]
        c[off_psi_m + j] = marg.nu[j]

    x, value = solve_lp(A, b, c)
    phi = [x[i] - x[off_phi_m + i] for i in range(m)]
    psi = [x[off_psi_p + j] - x[off_psi_m + j] for j in range(n)]
    return DualPair(phi, psi, -value)


def fenchel_value(f, g, cost: CostMatrix):
    """Minimal transport cost between prescribed margins f, g (or INF).

    Infeasibility (unequal totals, or no finite-cost coupling) is encoded
    as +INF per the convex-analysis convention.  Only malformed margins
    raise: DimensionMismatch when they do not fit the cost matrix, and
    ValueError when an entry is negative.
    """
    marg = Marginals(f, g)
    if marg.total_mu() != marg.total_nu():
        return INF
    try:
        return solve_primal(cost, marg).value
    except NoFinitePlan:
        return INF
