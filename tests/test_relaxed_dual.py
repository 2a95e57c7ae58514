import hashlib
import math
import random
import re
from fractions import Fraction as F

import pytest

from otlab.finite_ot import (
    CostMatrix,
    DimensionMismatch,
    DualPair,
    FiniteOTError,
    InfiniteCostOnPi0Support,
    Marginals,
    NegativeEpsilon,
    Pi0NotACoupling,
    TransportPlan,
    solve_primal,
    solve_relaxed_dual,
)
from otlab.finite_ot.solvers import _capacitated_potentials, _support_ints
from otlab.rational import INF, format_rational
from relaxed_dual_lp_oracle import lp_relaxed_dual


def full_support_plan(n, cost):
    w = F(1, n * n)
    value = sum((cost[i, j] * w for i in range(n) for j in range(n)), F(0))
    return TransportPlan([[w] * n for _ in range(n)], value)


def test_eps_zero_identity_cost_diagonal_pi0():
    n = 3
    cost = CostMatrix([[0 if i == j else 1 for j in range(n)] for i in range(n)])
    w = F(1, n)
    pi0 = TransportPlan([[w if i == j else 0 for j in range(n)] for i in range(n)], 0)
    pair = solve_relaxed_dual(cost, Marginals.uniform(n), pi0, 0)
    assert pair.value == 0


def test_monotone_in_eps_and_limit():
    rng = random.Random(3)
    n = 4
    cost = CostMatrix(
        [[F(rng.randint(0, 40), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
    )
    marg = Marginals.uniform(n)
    primal = solve_primal(cost, marg).value
    pi0 = full_support_plan(n, cost)
    values = [
        solve_relaxed_dual(cost, marg, pi0, eps).value
        for eps in [F(1), F(1, 2), F(1, 4), F(1, 8), F(0)]
    ]
    assert all(a >= b for a, b in zip(values, values[1:]))
    # pi0 has full support, so the eps -> 0 value is the full dual value
    assert values[-1] == primal


def test_large_eps_dominates_primal():
    rng = random.Random(8)
    n = 3
    cost = CostMatrix(
        [[F(rng.randint(0, 10)) for _ in range(n)] for _ in range(n)]
    )
    marg = Marginals.uniform(n)
    primal = solve_primal(cost, marg).value
    pi0 = full_support_plan(n, cost)
    big = solve_relaxed_dual(cost, marg, pi0, pi0.value).value
    assert big >= primal


def test_negative_eps_rejected():
    cost = CostMatrix([[1]])
    pi0 = TransportPlan([[1]], 1)
    with pytest.raises(NegativeEpsilon):
        solve_relaxed_dual(cost, Marginals.uniform(1), pi0, F(-1, 2))


def test_infinite_cost_on_pi0_support_rejected():
    cost = CostMatrix([[INF, 1], [1, 1]])
    w = F(1, 2)
    pi0 = TransportPlan([[w, 0], [0, w]], 0)
    with pytest.raises(InfiniteCostOnPi0Support):
        solve_relaxed_dual(cost, Marginals.uniform(2), pi0, 1)


# --- input contract ---------------------------------------------------


def test_pi0_of_another_shape_rejected():
    cost = CostMatrix([[1, 2], [3, 4]])
    pi0 = TransportPlan([[F(1, 2)], [F(1, 2)]], 2)
    with pytest.raises(DimensionMismatch):
        solve_relaxed_dual(cost, Marginals.uniform(2), pi0, 1)


@pytest.mark.parametrize(
    "entries, where",
    [
        ([[F(1, 2), F(1, 2)], [0, 0]], "row 0"),  # support cannot carry (mu, nu)
        ([[1, 0], [0, 1]], "row 0"),  # 2 * identity: twice the mass
        ([[F(1, 2), 0], [F(1, 2), 0]], "column 0"),
        ([[1, F(-1, 2)], [F(-1, 2), 1]], "cell (0, 1)"),
    ],
)
def test_pi0_not_a_coupling_rejected(entries, where):
    cost = CostMatrix([[1, 2], [3, 4]])
    with pytest.raises(Pi0NotACoupling, match=re.escape(where)) as info:
        solve_relaxed_dual(cost, Marginals.uniform(2), TransportPlan(entries, 0), 1)
    assert isinstance(info.value, FiniteOTError)


@pytest.mark.parametrize("eps", [F(0), F(3)])
def test_zero_marginals_give_the_zero_pair(eps):
    cost = CostMatrix([[1, 2], [3, 4]])
    zero = Marginals([0, 0], [0, 0])
    pair = solve_relaxed_dual(cost, zero, TransportPlan([[0, 0], [0, 0]], 0), eps)
    assert (pair.phi, pair.psi, pair.value) == ((0, 0), (0, 0), 0)


# --- exact agreement with the LP, and closed forms --------------------


def _marginals(rng, n):
    """Random integer masses with equal totals; a row may be empty."""
    mu = [F(rng.randint(0, 5)) for _ in range(n)]
    mu[0] += 1
    weights = [rng.randint(1, 5) for _ in range(n)]
    total = sum(mu)
    return mu, [F(w) * total / sum(weights) for w in weights]


def _north_west(mu, nu):
    """The north-west corner vertex of Pi(mu, nu); its support is a forest."""
    mu, nu = list(mu), list(nu)
    plan = [[F(0)] * len(nu) for _ in mu]
    i = j = 0
    while i < len(mu) and j < len(nu):
        q = min(mu[i], nu[j])
        plan[i][j] = q
        mu[i] -= q
        nu[j] -= q
        if mu[i] == 0:
            i += 1
        else:
            j += 1
    return plan


def _permutation(rng, n):
    p = list(range(n))
    rng.shuffle(p)
    return p


def _instance(n, kind, seed):
    """(cost rows, marginals, pi0 rows) of one kind of reference plan."""
    rng = random.Random(1000 * n + seed)
    cost = [[F(rng.randint(0, 40), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
    if kind == "mixture":  # two permutations, uniform marginals
        a = F(rng.randint(1, 3), 4)
        plan = [[F(0)] * n for _ in range(n)]
        for weight in (1 - a, a):
            for i, j in enumerate(_permutation(rng, n)):
                plan[i][j] += weight / n
        return cost, Marginals.uniform(n), plan
    mu, nu = _marginals(rng, n)
    if kind == "product":
        total = sum(mu)
        return cost, Marginals(mu, nu), [[a * b / total for b in nu] for a in mu]
    return cost, Marginals(mu, nu), _north_west(mu, nu)


def _plan(cost, rows):
    value = sum((c * p for cr, pr in zip(cost, rows) for c, p in zip(cr, pr)), F(0))
    return TransportPlan(rows, value)


def _excess(cost, pi0, pair):
    return sum(
        (
            pi0.entries[i][j] * max(F(0), pair.phi[i] + pair.psi[j] - cost[i][j])
            for i, j in pi0.support()
        ),
        F(0),
    )


@pytest.mark.parametrize("kind", ["product", "vertex", "mixture"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_value_equals_lp_oracle(n, kind):
    for seed in range(2):
        cost, marg, rows = _instance(n, kind, seed)
        pi0 = _plan(cost, rows)
        # from a budget of `ray` on, phi = max c on supp(pi0), psi = 0 is optimal
        ray = max(cost[i][j] for i, j in pi0.support()) * marg.total_mu() - pi0.value
        for eps in [F(0), ray / 16, ray / 2, ray, 2 * ray + 1]:
            pair = solve_relaxed_dual(CostMatrix(cost), marg, pi0, eps)
            assert pair.value == lp_relaxed_dual(CostMatrix(cost), marg, pi0, eps).value
            assert pair.value == pair.pair_value(marg)
            assert _excess(cost, pi0, pair) <= eps


def test_infinite_cost_off_support_is_ignored():
    cost, marg, rows = _instance(4, "mixture", 0)
    pi0 = _plan(cost, rows)
    blocked = [[c if p > 0 else INF for c, p in zip(cr, pr)] for cr, pr in zip(cost, rows)]
    for eps in [F(0), F(1, 3), F(5)]:
        want = lp_relaxed_dual(CostMatrix(cost), marg, pi0, eps).value
        assert solve_relaxed_dual(CostMatrix(blocked), marg, pi0, eps).value == want


@pytest.mark.parametrize("kind", ["vertex", "permutation"])
@pytest.mark.parametrize("n", [1, 3, 5])
def test_forest_support_buys_value_one_for_one(n, kind):
    if kind == "vertex":
        cost, marg, rows = _instance(n, kind, 0)
    else:
        rng = random.Random(n)
        cost = [[F(rng.randint(0, 40), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
        marg = Marginals.uniform(n)
        rows = [[F(1, n) if j == p else F(0) for j in range(n)] for p in _permutation(rng, n)]
    pi0 = _plan(cost, rows)
    for eps in [F(0), F(1, 7), F(1), F(10), F(1000)]:
        pair = solve_relaxed_dual(CostMatrix(cost), marg, pi0, eps)
        assert pair.value == pi0.value + eps
        assert _excess(cost, pi0, pair) <= eps


# sha256 of the canonical p/q lines "phi;psi;value" of solve_relaxed_dual
# over _pinned_cases(kind), budgets 0, ray/16, ray/2, ray and 2*ray + 1
RELAXED_DUAL_OUTPUTS = {
    "product": "cc88536425be331c71110b2855deab3ad763ac70799808b9b8efb1b80e0fcf19",
    "vertex": "e5b401b8799f92532d0a11c52c7430e24492ed55f63083fd5c9bcfd823a4b77c",
    "mixture": "d7275c5034863e6e7ce107e6e130a33b6e17ddb465270a680d1c0002e00fb9af",
    "uniform_full": "d07c26b2b4f017b03beeee1a2811a5702be6b3fa30fa6b8a980275b8649f55ec",
}


def _pinned_cases(kind):
    """(cost rows, marginals, pi0 rows): the _instance kinds at n = 1..6,
    two seeds each (zero-mass rows and forest supports among them), or a
    seeded n = 5 cost under uniform marginals and the fully supported
    uniform pi0."""
    if kind != "uniform_full":
        return [_instance(n, kind, seed) for n in range(1, 7) for seed in range(2)]
    rng = random.Random(55)
    n = 5
    cases = []
    for _ in range(2):
        cost = [[F(rng.randint(0, 40), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
        cases.append((cost, Marginals.uniform(n), [[F(1, n * n)] * n for _ in range(n)]))
    return cases


@pytest.mark.parametrize("kind", sorted(RELAXED_DUAL_OUTPUTS))
def test_relaxed_dual_outputs_are_pinned(kind):
    lines = []
    for cost, marg, rows in _pinned_cases(kind):
        pi0 = _plan(cost, rows)
        ray = max(cost[i][j] for i, j in pi0.support()) * marg.total_mu() - pi0.value
        for eps in [F(0), ray / 16, ray / 2, ray, 2 * ray + 1]:
            pair = solve_relaxed_dual(CostMatrix(cost), marg, pi0, eps)
            lines.append(
                ";".join(
                    [
                        ",".join(map(format_rational, pair.phi)),
                        ",".join(map(format_rational, pair.psi)),
                        format_rational(pair.value),
                    ]
                )
            )
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == RELAXED_DUAL_OUTPUTS[kind]


def _zero_row_instance(n):
    """The product instance of _instance(n, "product", 0) with row 1's
    mass moved onto row 0, so row 1 has zero mass and no support arc."""
    cost, marg, _ = _instance(n, "product", 0)
    mu = list(marg.mu)
    mu[0], mu[1] = mu[0] + mu[1], F(0)
    total = sum(mu)
    return cost, Marginals(mu, marg.nu), [[a * b / total for b in marg.nu] for a in mu]


@pytest.mark.parametrize("lam", [F(1), F(3, 2), F(4), F(17, 3)])
@pytest.mark.parametrize("kind", ["product", "mixture", "zero_row"])
def test_capacitated_value_matches_networkx(kind, lam):
    """F(lam) = min{c.x : x in Pi(mu, nu) on supp(pi0), x <= lam*pi0} is
    A - lam*B at the potentials the solver takes for slope lam.  At
    lam = 1 every row sink has zero demand; the zero_row kind has a row
    of zero mass, whose sink is empty at every lam."""
    nx = pytest.importorskip("networkx")
    cost, marg, rows = _zero_row_instance(4) if kind == "zero_row" else _instance(4, kind, 0)
    pi0 = _plan(cost, rows)
    support = sorted(pi0.support())
    scaled, w, mu, nu, dc, _ = _support_ints(CostMatrix(cost), marg, pi0)
    phi, psi = _capacitated_potentials(scaled, w, mu, nu, lam)
    pair = DualPair([F(x, dc) for x in phi], [F(x, dc) for x in psi])
    f_lam = pair.pair_value(marg) - lam * _excess(cost, pi0, pair)

    masses = [lam * pi0.entries[i][j] for i, j in support] + list(marg.mu) + list(marg.nu)
    mass_scale = math.lcm(*(q.denominator for q in masses))
    cost_scale = math.lcm(*(cost[i][j].denominator for i, j in support))
    g = nx.DiGraph()
    for i, mu in enumerate(marg.mu):
        g.add_node(("row", i), demand=-int(mu * mass_scale))
    for j, nu in enumerate(marg.nu):
        g.add_node(("col", j), demand=int(nu * mass_scale))
    for i, j in support:
        g.add_edge(
            ("row", i), ("col", j),
            capacity=int(lam * pi0.entries[i][j] * mass_scale),
            weight=int(cost[i][j] * cost_scale),
        )
    flow_cost = nx.cost_of_flow(g, nx.min_cost_flow(g))
    assert f_lam == F(flow_cost, mass_scale * cost_scale)


def test_capacitated_solves_pivot_count(monkeypatch):
    """The pivots of the capacitated solves in one seeded n = 5 sweep over
    the budgets 2, 1, 1/2, 1/4, 1/8, 0, with uniform marginals and the
    fully supported uniform pi0, counted at `_reroot` (each call with a
    parent is one pivot).  The regret-ordered least-cost start takes 292;
    the north-west corner start it replaced took 1,096 on this sweep."""
    from otlab.finite_ot import simplex, solvers

    pivots = []
    capacitated = [False]
    reroot = simplex._reroot

    def counting(q, w, adj, *rest):
        if w >= 0 and capacitated[0]:  # w < 0 hangs the start tree from its root
            pivots.append((q, w))
        return reroot(q, w, adj, *rest)

    solve = solvers._capacitated_potentials

    def marked(*args):
        capacitated[0] = True
        try:
            return solve(*args)
        finally:
            capacitated[0] = False

    monkeypatch.setattr(simplex, "_reroot", counting)
    monkeypatch.setattr(solvers, "_capacitated_potentials", marked)
    rng = random.Random(1)
    n = 5
    cost = [[F(rng.randint(0, 40), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
    pi0 = _plan(cost, [[F(1, n * n)] * n for _ in range(n)])
    for eps in (F(2), F(1), F(1, 2), F(1, 4), F(1, 8), F(0)):
        solve_relaxed_dual(CostMatrix(cost), Marginals.uniform(n), pi0, eps)
    assert len(pivots) == 292
