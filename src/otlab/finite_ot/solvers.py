"""Primal/dual transport solves and their certificates.

`solve_primal` and `solve_certified` each run one transportation simplex
(`simplex.solve_transport`) on the rows and columns with positive mass;
`solve_dual` is the second half of `solve_certified`.  The simplex takes
the cost's finite arcs and hands back the plan and its optimal tree
potentials in exact Fractions.  The dual is those tree
potentials, extended to zero-mass rows and columns by a c-transform;
only when the optimal tree crosses an INF cell, so that a potential
carries an infinity unit (None), does it fall back to the
strong-monotonicity potentials of the optimal support.  Either way
the potentials are checked exactly: feasible on every finite cell, with
the plan's value.

Every certificate check runs in plain ints: `types.integer_arcs` puts
the arc costs, with the potentials when a check has them, over one
common denominator, once per check.  `DualPair.is_feasible`,
`check_complementary_slackness` and the monotonicity Bellman-Ford all
scale through it, and scaling by a positive integer keeps each verdict
of the Fraction comparison it replaces.

The budgeted relaxed dual runs on the same solves.  With A = phi.mu +
psi.nu and B the pi0-weighted excess of phi+psi over c on supp(pi0), its
value V(eps) = max{A : B <= eps} is concave and piecewise linear, and by
LP duality V(eps) = min over lam >= 1 of lam*eps + G(lam), where G(lam) =
max(A - lam*B) is the min-cost transport on supp(pi0) with capacities
lam*pi0.  G(1) = c.pi0, so V ends in the ray c.pi0 + eps.  Each G(lam) is
one uncapacitated transport with a source per support arc.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from ..rational import INF, as_fraction
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
    Pi0NotACoupling,
    TransportPlan,
    integer_arcs,
)

ZERO = Fraction(0)


def _check_dims(cost: CostMatrix, marg: Marginals):
    if len(marg.mu) != cost.n_rows or len(marg.nu) != cost.n_cols:
        raise DimensionMismatch(
            f"marginals ({len(marg.mu)},{len(marg.nu)}) do not fit cost "
            f"({cost.n_rows},{cost.n_cols})"
        )


def _solve(cost: CostMatrix, marg: Marginals):
    """The optimal plan, and the optimal tree potentials of the rows and
    columns with positive mass keyed by their index (None where one
    carries an infinity unit); InfeasibleMarginals / NoFinitePlan on
    failure."""
    _check_dims(cost, marg)
    if marg.total_mu() != marg.total_nu():
        raise InfeasibleMarginals(
            f"mass mismatch: {marg.total_mu()} vs {marg.total_nu()}"
        )

    # Zero rows/cols carry no mass; eliminate before solving.
    rows = [i for i, v in enumerate(marg.mu) if v]
    cols = [j for j, v in enumerate(marg.nu) if v]
    if not (rows and cols):
        return TransportPlan.from_cells(cost.n_rows, cost.n_cols, {}, ZERO), {}, {}
    arcs = cost.arcs
    if len(rows) < cost.n_rows or len(cols) < cost.n_cols:
        at = {j: b for b, j in enumerate(cols)}
        arcs = [{at[j]: c for j, c in arcs[i].items() if j in at} for i in rows]
    supply = [marg.mu[i] for i in rows]
    demand = [marg.nu[j] for j in cols]
    flow, value, u, v = solve_transport(arcs, supply, demand)
    if value is INF:
        raise NoFinitePlan("every admissible plan meets an infinite cost cell")
    cells = {(rows[a], cols[b]): f for (a, b), f in flow.items() if f}
    plan = TransportPlan.from_cells(cost.n_rows, cost.n_cols, cells, value)
    return plan, dict(zip(rows, u)), dict(zip(cols, v))


def solve_primal(cost: CostMatrix, marg: Marginals) -> TransportPlan:
    """Exactly optimal plan; InfeasibleMarginals / NoFinitePlan on failure."""
    return _solve(cost, marg)[0]


def _c_transform_fill(cost: CostMatrix, phi, psi):
    """Give the rows and columns the solve dropped (zero mass, None here)
    the largest potentials feasible against the others: columns first,
    against the solved rows, then rows, against every column."""
    if None in psi:
        best = {}
        for p, row in zip(phi, cost.arcs):
            if p is not None:
                for j, c in row.items():
                    if psi[j] is None and (j not in best or c - p < best[j]):
                        best[j] = c - p
        for j, p in enumerate(psi):
            if p is None:
                psi[j] = best.get(j, ZERO)
    for i, row in enumerate(cost.arcs):
        if phi[i] is None:
            phi[i] = min((c - psi[j] for j, c in row.items()), default=ZERO)


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
    if any(p is None for p in u.values()) or any(p is None for p in v.values()):
        pair = strong_monotone_potentials(sorted(plan.support()), cost)
        if pair is None:  # the optimal support is always cyclically monotone
            raise AssertionError("optimal support failed the monotonicity check")
    else:
        phi = [u.get(i) for i in range(cost.n_rows)]
        psi = [v.get(j) for j in range(cost.n_cols)]
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
    simultaneously optimal (given each is feasible on its own).  Each
    list is in row-major order.  phi, psi and the arc costs are compared
    as ints over their one common denominator (`types.integer_arcs`),
    which gives the verdicts of the Fraction comparisons exactly.
    """
    if plan.n_rows != cost.n_rows or plan.n_cols != cost.n_cols:
        raise DimensionMismatch("plan does not fit cost matrix")
    if len(duals.phi) != cost.n_rows or len(duals.psi) != cost.n_cols:
        raise DimensionMismatch("potentials do not fit cost matrix")
    rows, (phi, psi), _ = integer_arcs(cost.arcs, duals.phi, duals.psi)
    feas_bad = [
        (i, j)
        for i, (p, row) in enumerate(zip(phi, rows))
        for j, c in row.items()
        if p + psi[j] > c
    ]
    support_bad = [
        (i, j)
        for (i, j), w in plan.cells.items()
        if w > 0 and (j not in rows[i] or phi[i] + psi[j] < rows[i][j])
    ]
    return SlacknessReport(support_bad, feas_bad)


def _pi0_arcs(cost: CostMatrix, marg: Marginals, pi0: TransportPlan):
    """supp(pi0) as row-major (i, j, pi0(i,j)) triples, once pi0 is
    checked to have the cost's shape (DimensionMismatch), to be a
    coupling of (mu, nu) (Pi0NotACoupling, naming the first negative
    cell, else the first row or column whose sum is not its marginal)
    and to charge finite cells only (InfiniteCostOnPi0Support)."""
    if pi0.n_rows != cost.n_rows or pi0.n_cols != cost.n_cols:
        raise DimensionMismatch(f"pi0 does not fit cost ({cost.n_rows},{cost.n_cols})")
    arcs = []
    for (i, j), w in pi0.cells.items():
        if w < 0:
            raise Pi0NotACoupling(f"pi0 charges {w} < 0 on cell {(i, j)}")
        if w > 0:
            if not cost.is_finite(i, j):
                raise InfiniteCostOnPi0Support(f"pi0 charges infinite cell {(i, j)}")
            arcs.append((i, j, w))
    for side, sums, want in (
        ("row", pi0.row_sums(), marg.mu), ("column", pi0.col_sums(), marg.nu)
    ):
        for k, (got, w) in enumerate(zip(sums, want)):
            if got != w:
                raise Pi0NotACoupling(f"pi0 {side} {k} sums to {got}, not its marginal {w}")
    return arcs


def _capacitated_potentials(cost: CostMatrix, marg: Marginals, arcs, lam):
    """(phi, psi) maximising A - lam*B for lam >= 1: the potentials of
    min{c.x : x in Pi(mu, nu) on supp(pi0), x <= lam*pi0}, solved as an
    uncapacitated transport with one source per arc (i, j, w) of supply
    lam*w, feeding column j at cost c(i,j) or the sink of row i, of
    demand (lam-1)*mu(i), at cost 0.  With v its optimal sink
    potentials, phi(i) = -v(row sink i) and psi(j) = v(column j)."""
    m, n = cost.n_rows, cost.n_cols
    split = CostMatrix.from_arcs(
        len(arcs),
        n + m,
        chain.from_iterable(
            ((a, j, cost[i, j]), (a, n + i, ZERO)) for a, (i, j, _) in enumerate(arcs)
        ),
    )
    flows = Marginals(
        [lam * w for *_, w in arcs], list(marg.nu) + [(lam - 1) * u for u in marg.mu]
    )
    v = solve_certified(split, flows)[1].psi
    return [-x for x in v[n:]], list(v[:n])


def solve_relaxed_dual(
    cost: CostMatrix, marg: Marginals, pi0: TransportPlan, eps
) -> DualPair:
    """Budgeted dual: excess of phi+psi over c on supp(pi0) is bought at
    price pi0 within a total budget eps.

    max A = sum(phi*mu) + sum(psi*nu)
    s.t. B = sum(pi0 * max(0, phi+psi-c)) over supp(pi0) <= eps.

    Contract: the marginals and pi0 fit the cost (DimensionMismatch);
    pi0 is a coupling of (mu, nu) (Pi0NotACoupling, naming the first
    negative cell or the first row or column whose sum differs); c is
    finite on supp(pi0) (InfiniteCostOnPi0Support); eps >= 0
    (NegativeEpsilon).  Zero marginals give the zero pair, value 0.

    A chord search (Eisner and Severance, 1976) on the value curve
    V(eps), from the dual on supp(pi0) (B = 0) and the point phi = K,
    psi = 0 on V's last, slope-1 piece (B >= eps): each chord's slope
    lam gives the point of V that maximises A - lam*B, which replaces
    the chord's end on its side of eps.  Once no point lies above the
    chord, the chord lies on V, and the convex combination of its ends
    with B = eps is exactly optimal.
    """
    eps = as_fraction(eps)
    if eps < 0:
        raise NegativeEpsilon(f"eps = {eps}")
    _check_dims(cost, marg)
    arcs = _pi0_arcs(cost, marg, pi0)
    m, n = cost.n_rows, cost.n_cols
    if not arcs:
        return DualPair([ZERO] * m, [ZERO] * n, ZERO)
    on_support = CostMatrix.from_arcs(m, n, ((i, j, cost[i, j]) for i, j, _ in arcs))
    dual = solve_certified(on_support, marg)[1]
    if eps == 0:
        return dual

    mass = marg.total_mu()
    plan_cost = sum((w * cost[i, j] for i, j, w in arcs), ZERO)
    K = max(max(cost[i, j] for i, j, _ in arcs), (eps + plan_cost) / mass)
    a_lo, b_lo, lo = dual.value, ZERO, (dual.phi, dual.psi)
    a_hi, b_hi, hi = K * mass, K * mass - plan_cost, ([K] * m, [ZERO] * n)
    while b_hi != eps:
        lam = (a_hi - a_lo) / (b_hi - b_lo)
        phi, psi = _capacitated_potentials(cost, marg, arcs, lam)
        a = DualPair(phi, psi).pair_value(marg)
        b = sum((w * max(ZERO, phi[i] + psi[j] - cost[i, j]) for i, j, w in arcs), ZERO)
        if a - lam * b == a_lo - lam * b_lo:
            break
        if b < eps:
            a_lo, b_lo, lo = a, b, (phi, psi)
        else:
            a_hi, b_hi, hi = a, b, (phi, psi)
    t = (eps - b_lo) / (b_hi - b_lo)
    phi, psi = ([x + t * (y - x) for x, y in zip(u, v)] for u, v in zip(lo, hi))
    return DualPair(phi, psi, a_lo + t * (a_hi - a_lo))


def fenchel_value(f, g, cost: CostMatrix):
    """Minimal transport cost between prescribed margins f, g (or INF).

    Infeasibility (unequal totals, or no finite-cost coupling) is encoded
    as +INF per the convex-analysis convention.  Only malformed margins
    raise: DimensionMismatch when they do not fit the cost matrix, and
    ValueError when an entry is negative.
    """
    marg = Marginals(f, g)
    _check_dims(cost, marg)
    if marg.total_mu() != marg.total_nu():
        return INF
    try:
        return solve_primal(cost, marg).value
    except NoFinitePlan:
        return INF
