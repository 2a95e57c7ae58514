"""Primal/dual transport solves and their certificates.

`solve_primal` and `solve_certified` scale the cost and the marginals to
plain ints once (`types.integer_arcs`, `rational.over_common_denominator`),
run one integer transportation simplex (`simplex.solve_transport`) on the
rows and columns with positive mass, and decode to Fractions only what
they return.  `solve_dual` is the second half of `solve_certified`.  The
dual is the simplex's optimal tree potentials, extended to zero-mass rows
and columns by a c-transform; only when the optimal tree crosses an INF
cell, so that a potential carries an infinity unit (None), does it fall
back to the strong-monotonicity potentials of the optimal support.  Either
way the potentials are checked exactly, on the ints: feasible on every
finite cell, with the plan's value.  Scaling by a positive integer keeps
every comparison, so each verdict is that of the Fraction comparison it
replaces.

The other certificate checks run in plain ints too: `types.integer_arcs`
puts the arc costs and the potentials over one common denominator, once
per check.  `DualPair.is_feasible`, `check_complementary_slackness` and
the monotonicity Bellman-Ford all scale through it.

The budgeted relaxed dual runs on the same integer step.  With A = phi.mu
+ psi.nu and B the pi0-weighted excess of phi+psi over c on supp(pi0), its
value V(eps) = max{A : B <= eps} is concave and piecewise linear, and by
LP duality V(eps) = min over lam >= 1 of lam*eps + G(lam), where G(lam) =
max(A - lam*B) is the min-cost transport on supp(pi0) with capacities
lam*pi0.  G(1) = c.pi0, so V ends in the ray c.pi0 + eps.  Each G(lam) is
one uncapacitated transport with a source per support arc.  The chord
search scales the support costs (over Dc) and the masses (over Dm) once
per call; each lam = p/q then takes integer masses, and A, B and the chord
test are ints over Dc*Dm.  Fractions remain only at the chord's ends and
in the returned pair.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from ..rational import INF, as_fraction, over_common_denominator
from .monotonicity import support_potentials
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


def _scaled(cost: CostMatrix, marg: Marginals):
    """(rows, dc, mu, nu, dm): the arc costs as ints over their common
    denominator dc and the marginals as ints over theirs, dm, once they
    fit the cost (DimensionMismatch) and have equal totals
    (InfeasibleMarginals)."""
    _check_dims(cost, marg)
    rows, _, dc = integer_arcs(cost.arcs)
    masses, dm = over_common_denominator([*marg.mu, *marg.nu])
    mu, nu = masses[: cost.n_rows], masses[cost.n_rows :]
    if sum(mu) != sum(nu):
        raise InfeasibleMarginals(
            f"mass mismatch: {marg.total_mu()} vs {marg.total_nu()}"
        )
    return rows, dc, mu, nu, dm


def _solve(rows, mu, nu):
    """The simplex on the rows and columns with positive mass of the int
    arcs `rows` and the int masses mu, nu (equal totals): (flow, value,
    phi, psi), the positive flows {(i, j): int}, their cost, and the
    optimal tree potential of each row and column, None where it has
    zero mass or carries an infinity unit.  NoFinitePlan when the
    optimum charges an INF cell."""
    m, n = len(mu), len(nu)
    kept_rows = [i for i, x in enumerate(mu) if x]
    kept_cols = [j for j, x in enumerate(nu) if x]
    phi, psi = [None] * m, [None] * n
    if not (kept_rows and kept_cols):
        return {}, 0, phi, psi
    arcs = rows
    if len(kept_rows) < m or len(kept_cols) < n:
        at = {j: b for b, j in enumerate(kept_cols)}
        arcs = [{at[j]: c for j, c in rows[i].items() if j in at} for i in kept_rows]
    flow, value, u, v = solve_transport(
        arcs, [mu[i] for i in kept_rows], [nu[j] for j in kept_cols]
    )
    if value is INF:
        raise NoFinitePlan("every admissible plan meets an infinite cost cell")
    for i, p in zip(kept_rows, u):
        phi[i] = p
    for j, p in zip(kept_cols, v):
        psi[j] = p
    return {(kept_rows[a], kept_cols[b]): f for (a, b), f in flow.items() if f}, value, phi, psi


def _c_transform_fill(rows, phi, psi):
    """Give the rows and columns the solve dropped (zero mass, None here)
    the largest potentials feasible against the others: columns first,
    against the solved rows, then rows, against every column."""
    if None in psi:
        best = {}
        for p, row in zip(phi, rows):
            if p is not None:
                for j, c in row.items():
                    if psi[j] is None and (j not in best or c - p < best[j]):
                        best[j] = c - p
        for j, p in enumerate(psi):
            if p is None:
                psi[j] = best.get(j, 0)
    for i, row in enumerate(rows):
        if phi[i] is None:
            phi[i] = min((c - psi[j] for j, c in row.items()), default=0)


def _certified(rows, mu, nu):
    """`_solve` with its potentials made a checked dual, all in ints:
    (flow, value, phi, psi) with a potential for every row and column.

    When no optimal tree potential carries an infinity unit (the tree
    uses finite cells only), they are the dual solution, extended to
    zero-mass rows and columns by a c-transform.  Otherwise the
    potentials come from `support_potentials` on the optimal support.
    Either way they are checked exactly: phi+psi <= c on every arc and
    sum(phi*mu) + sum(psi*nu) equal to the plan's value.
    """
    flow, value, phi, psi = _solve(rows, mu, nu)
    if any(p is None and x for p, x in zip(phi, mu)) or any(
        p is None and x for p, x in zip(psi, nu)
    ):
        pair = support_potentials(sorted(flow), rows, len(nu))
        if pair is None:  # the optimal support is always cyclically monotone
            raise AssertionError("optimal support failed the monotonicity check")
        phi, psi = pair
    else:
        _c_transform_fill(rows, phi, psi)
    if any(p + psi[j] > c for p, row in zip(phi, rows) for j, c in row.items()):
        raise AssertionError("potentials infeasible on a finite cell")
    dual = sum(map(mul, phi, mu)) + sum(map(mul, psi, nu))
    if dual != value:
        raise AssertionError(f"duality gap of {value - dual} scaled units in exact solver")
    return flow, value, phi, psi


def _decoder(scale):
    """x -> Fraction(x, scale), one shared Fraction per distinct x: an
    optimal tree's flows and potentials take few distinct values."""
    made = {}

    def decode(x):
        f = made.get(x)
        if f is None:
            f = made[x] = Fraction(x, scale)
        return f

    return decode


def _plan(cost: CostMatrix, flow, value, dc, dm) -> TransportPlan:
    """The int flows over dm and their value over dc*dm as a plan."""
    as_mass = _decoder(dm)
    cells = {cell: as_mass(f) for cell, f in flow.items()}
    return TransportPlan.from_cells(cost.n_rows, cost.n_cols, cells, Fraction(value, dc * dm))


def _dual(phi, psi, value, dc, dm) -> DualPair:
    """The int potentials over dc and their value over dc*dm as a pair."""
    as_potential = _decoder(dc)
    return DualPair(
        [as_potential(x) for x in phi], [as_potential(x) for x in psi], Fraction(value, dc * dm)
    )


def solve_primal(cost: CostMatrix, marg: Marginals) -> TransportPlan:
    """Exactly optimal plan; InfeasibleMarginals / NoFinitePlan on failure."""
    rows, dc, mu, nu, dm = _scaled(cost, marg)
    flow, value, _, _ = _solve(rows, mu, nu)
    return _plan(cost, flow, value, dc, dm)


def solve_certified(cost: CostMatrix, marg: Marginals):
    """Exactly optimal (plan, potentials) from one simplex solve; the
    potentials' value equals the plan value exactly.

    The potentials are the optimal tree's, or the strong-monotonicity
    potentials when the tree crosses an INF cell, checked exactly on the
    ints (`_certified`): phi+psi <= c on every finite cell and a value
    equal to the plan value.
    """
    rows, dc, mu, nu, dm = _scaled(cost, marg)
    flow, value, phi, psi = _certified(rows, mu, nu)
    return _plan(cost, flow, value, dc, dm), _dual(phi, psi, value, dc, dm)


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


def _support_ints(cost: CostMatrix, marg: Marginals, pi0: TransportPlan):
    """supp(pi0) and the masses as ints, scaled once per call: (support,
    w, mu, nu, dc, dm), with support the row-major (i, j, c) triples of
    the cells pi0 charges, c their costs over the costs' common
    denominator dc, and w, mu and nu pi0's masses on them and the
    marginals over the masses' common denominator dm.  pi0 is first
    checked to have the cost's shape (DimensionMismatch), to be a
    coupling of (mu, nu) (Pi0NotACoupling, naming the first negative
    cell, else the first row or column whose sum is not its marginal)
    and to charge finite cells only (InfiniteCostOnPi0Support)."""
    m, n = cost.n_rows, cost.n_cols
    if pi0.n_rows != m or pi0.n_cols != n:
        raise DimensionMismatch(f"pi0 does not fit cost ({m},{n})")
    arcs = []
    for (i, j), w in pi0.cells.items():
        if w < 0:
            raise Pi0NotACoupling(f"pi0 charges {w} < 0 on cell {(i, j)}")
        if w > 0:
            if not cost.is_finite(i, j):
                raise InfiniteCostOnPi0Support(f"pi0 charges infinite cell {(i, j)}")
            arcs.append((i, j, w))
    costs, dc = over_common_denominator([cost[i, j] for i, j, _ in arcs])
    masses, dm = over_common_denominator([*marg.mu, *marg.nu, *(w for *_, w in arcs)])
    mu, nu, w = masses[:m], masses[m : m + n], masses[m + n :]
    sums = [0] * (m + n)
    for (i, j, _), x in zip(arcs, w):
        sums[i] += x
        sums[m + j] += x
    for side, at, marginal in (("row", 0, marg.mu), ("column", m, marg.nu)):
        for k, want in enumerate(marginal):
            if sums[at + k] != masses[at + k]:
                got = Fraction(sums[at + k], dm)
                raise Pi0NotACoupling(f"pi0 {side} {k} sums to {got}, not its marginal {want}")
    support = [(i, j, c) for (i, j, _), c in zip(arcs, costs)]
    return support, w, mu, nu, dc, dm


def _capacitated_potentials(support, w, mu, nu, lam):
    """Int (phi, psi), over the support costs' denominator, maximising
    A - lam*B for lam = p/q >= 1: the potentials of min{c.x : x in
    Pi(mu, nu) on supp(pi0), x <= lam*pi0}, solved q times over as an
    uncapacitated transport with one source per arc (i, j, c) of mass
    w, of supply p*w, feeding column j (demand q*nu(j)) at cost c or
    the sink of row i (demand (p-q)*mu(i)) at cost 0.  With v its
    optimal sink potentials, phi(i) = -v(row sink i) and psi(j) =
    v(column j)."""
    p, q = lam.numerator, lam.denominator
    n = len(nu)
    split = [{j: c, n + i: 0} for i, j, c in support]
    demand = [q * x for x in nu] + [(p - q) * x for x in mu]
    *_, v = _certified(split, [p * x for x in w], demand)
    return [-x for x in v[n:]], v[:n]


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
    with B = eps is exactly optimal.  Potentials are ints over dc, and
    A and B ints over dc*dm (`_support_ints`); only K, the chord's
    slope and its final combination are Fractions.
    """
    eps = as_fraction(eps)
    if eps < 0:
        raise NegativeEpsilon(f"eps = {eps}")
    _check_dims(cost, marg)
    support, w, mu, nu, dc, dm = _support_ints(cost, marg, pi0)
    m, n = cost.n_rows, cost.n_cols
    if not support:
        return DualPair([ZERO] * m, [ZERO] * n, ZERO)
    scale = dc * dm
    on_support = [{} for _ in range(m)]
    for i, j, c in support:
        on_support[i][j] = c
    _, a_lo, phi, psi = _certified(on_support, mu, nu)
    if eps == 0:
        return _dual(phi, psi, a_lo, dc, dm)

    # From here on, potentials (and K) are on the dc scale, and A, B and
    # the budget on the dc*dm scale.
    budget = eps * scale
    mass = sum(mu)
    plan_cost = sum(c * x for (_, _, c), x in zip(support, w))
    K = max(max(c for *_, c in support), (budget + plan_cost) / mass)
    b_lo, lo = 0, (phi, psi)
    a_hi, b_hi, hi = K * mass, K * mass - plan_cost, ([K] * m, [0] * n)
    while b_hi != budget:
        lam = Fraction(a_hi - a_lo) / (b_hi - b_lo)
        p, q = lam.numerator, lam.denominator
        phi, psi = _capacitated_potentials(support, w, mu, nu, lam)
        a = sum(map(mul, phi, mu)) + sum(map(mul, psi, nu))
        b = sum(x * max(0, phi[i] + psi[j] - c) for (i, j, c), x in zip(support, w))
        if q * a - p * b == q * a_lo - p * b_lo:
            break
        if b < budget:
            a_lo, b_lo, lo = a, b, (phi, psi)
        else:
            a_hi, b_hi, hi = a, b, (phi, psi)
    t = (budget - b_lo) / (b_hi - b_lo)
    phi, psi = (
        [Fraction(x + t * (y - x), dc) for x, y in zip(u, v)] for u, v in zip(lo, hi)
    )
    return DualPair(phi, psi, (a_lo + t * (a_hi - a_lo)) / scale)


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
