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
from otlab.finite_ot.solvers import _capacitated_potentials
from otlab.rational import INF
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


@pytest.mark.parametrize("lam", [F(1), F(3, 2), F(4), F(17, 3)])
@pytest.mark.parametrize("kind", ["product", "mixture"])
def test_capacitated_value_matches_networkx(kind, lam):
    """F(lam) = min{c.x : x in Pi(mu, nu) on supp(pi0), x <= lam*pi0} is
    A - lam*B at the potentials the solver takes for slope lam."""
    nx = pytest.importorskip("networkx")
    cost, marg, rows = _instance(4, kind, 0)
    pi0 = _plan(cost, rows)
    support = sorted(pi0.support())
    arcs = [(i, j, pi0.entries[i][j]) for i, j in support]
    phi, psi = _capacitated_potentials(CostMatrix(cost), marg, arcs, lam)
    pair = DualPair(phi, psi)
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
