import itertools
import random
import sys
from fractions import Fraction as F

import pytest

from otlab.finite_ot import (
    CostMatrix,
    InfeasibleMarginals,
    Marginals,
    NoFinitePlan,
    TransportPlan,
    check_complementary_slackness,
    solve_dual,
    solve_primal,
)
from otlab.finite_ot import simplex
from otlab.rational import INF


def random_cost(rng, n, hi=40):
    return CostMatrix(
        [[F(rng.randint(0, hi), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
    )


def brute_force_value(cost, n):
    return min(
        sum((cost[i, p[i]] for i in range(n)), F(0))
        for p in itertools.permutations(range(n))
    ) / n


def test_single_cell():
    q = F(7, 3)
    plan = solve_primal(CostMatrix([[q]]), Marginals.uniform(1))
    assert plan.entries == ((F(1),),)
    assert plan.value == q


def test_identity_cost_diagonal():
    cost = CostMatrix([[0 if i == j else 1 for j in range(3)] for i in range(3)])
    plan = solve_primal(cost, Marginals.uniform(3))
    assert plan.value == 0
    assert plan.support() == {(0, 0), (1, 1), (2, 2)}


def test_two_point_swap_cost():
    cost = CostMatrix([[0, 1], [1, 0]])
    pair = solve_dual(cost, Marginals.uniform(2))
    assert pair.value == 0
    assert pair.is_feasible(cost)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_birkhoff_oracle(n):
    rng = random.Random(100 + n)
    for _ in range(5):
        cost = random_cost(rng, n)
        plan = solve_primal(cost, Marginals.uniform(n))
        assert plan.value == brute_force_value(cost, n)
        assert plan.check_marginals(Marginals.uniform(n))


def test_strong_duality_random(repeat=25):
    rng = random.Random(7)
    for k in range(repeat):
        n = 2 + k % 7
        cost = random_cost(rng, n)
        marg = Marginals.uniform(n)
        plan = solve_primal(cost, marg)
        pair = solve_dual(cost, marg)
        assert pair.value == plan.value
        assert pair.is_feasible(cost)
        assert check_complementary_slackness(plan, pair, cost).passed


def test_nonuniform_marginals():
    rng = random.Random(11)
    for _ in range(10):
        n = rng.randint(2, 6)
        cost = random_cost(rng, n)
        mu = [F(rng.randint(1, 9)) for _ in range(n)]
        nu = [F(rng.randint(1, 9)) for _ in range(n)]
        total = sum(mu)
        nu = [v * total / sum(nu) for v in nu]
        marg = Marginals(mu, nu)
        plan = solve_primal(cost, marg)
        pair = solve_dual(cost, marg)
        assert plan.value == pair.value
        assert plan.check_marginals(marg)


def test_zero_rows_are_eliminated():
    cost = CostMatrix([[1, 2], [3, 4]])
    marg = Marginals([F(1), F(0)], [F(0), F(1)])
    plan = solve_primal(cost, marg)
    assert plan.entries[0][1] == 1
    assert plan.value == 2


def test_infeasible_marginals():
    cost = CostMatrix([[1]])
    with pytest.raises(InfeasibleMarginals):
        solve_primal(cost, Marginals([F(1)], [F(2)]))


def test_no_finite_plan():
    cost = CostMatrix([[INF, INF], [1, 1]])
    with pytest.raises(NoFinitePlan):
        solve_primal(cost, Marginals.uniform(2))


def test_forbidden_cells_respected():
    rng = random.Random(5)
    for _ in range(10):
        n = 4
        rows = [[F(rng.randint(0, 9)) for _ in range(n)] for _ in range(n)]
        rows[0][0] = INF
        rows[2][3] = INF
        cost = CostMatrix(rows)
        plan = solve_primal(cost, Marginals.uniform(n))
        assert plan.entries[0][0] == 0
        assert plan.entries[2][3] == 0
        assert plan.value == solve_dual(cost, Marginals.uniform(n)).value


def test_slackness_negative_control():
    # all-zero potentials on an instance with positive value must fail
    cost = CostMatrix([[1, 2], [2, 1]])
    marg = Marginals.uniform(2)
    plan = solve_primal(cost, marg)
    assert plan.value > 0
    from otlab.finite_ot import DualPair

    report = check_complementary_slackness(plan, DualPair([0, 0], [0, 0]), cost)
    assert not report.passed
    assert report.support_violations


def test_slackness_identity_diagonal_zero_duals():
    cost = CostMatrix([[0 if i == j else 1 for j in range(3)] for i in range(3)])
    diag = TransportPlan(
        [[F(1, 3) if i == j else 0 for j in range(3)] for i in range(3)], 0
    )
    from otlab.finite_ot import DualPair

    assert check_complementary_slackness(diag, DualPair([0] * 3, [0] * 3), cost).passed


def test_slackness_dimension_mismatch():
    from otlab.finite_ot import DimensionMismatch, DualPair

    cost = CostMatrix([[1, 2], [3, 4]])
    plan = solve_primal(cost, Marginals.uniform(2))
    with pytest.raises(DimensionMismatch):
        check_complementary_slackness(plan, DualPair([0], [0]), cost)


def _recursive_kuhn(ext_cost, n):
    """The recursive augmenting-path form of Kuhn's algorithm, kept as
    the oracle for the explicit-stack search in the simplex start."""
    adj = [[j for j in range(n) if ext_cost[i][j][0] == 0] for i in range(n)]
    match_col = [-1] * n

    def augment(i, seen):
        for j in adj[i]:
            if not seen[j]:
                seen[j] = True
                if match_col[j] < 0 or augment(match_col[j], seen):
                    match_col[j] = i
                    return True
        return False

    for i in range(n):
        if not augment(i, [False] * n):
            return None
    return match_col


def _chain_ext(n):
    """Row i < n-1 is finite on columns i and i+1, row n-1 only on column
    0: the last row's augmenting path runs through every earlier row."""
    fin, inf = (0, F(0)), (1, F(0))
    ext = [[inf] * n for _ in range(n)]
    for i in range(n - 1):
        ext[i][i] = ext[i][i + 1] = fin
    ext[n - 1][0] = fin
    return ext


def test_matching_agrees_with_recursive_kuhn():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 9)
        p = rng.choice([0.2, 0.4, 0.7])
        ext = [
            [(0 if rng.random() < p else 1, F(0)) for _ in range(n)]
            for _ in range(n)
        ]
        assert simplex._perfect_finite_matching(ext, n) == _recursive_kuhn(ext, n)
    ext = _chain_ext(9)
    assert simplex._perfect_finite_matching(ext, 9) == _recursive_kuhn(ext, 9)


def test_matching_deeper_than_recursion_limit():
    n = sys.getrecursionlimit() + 200
    match_col = simplex._perfect_finite_matching(_chain_ext(n), n)
    assert match_col == [n - 1] + list(range(n - 1))


def test_matching_start_leaves_recursion_limit_alone(monkeypatch):
    # the matching start must not touch process-global interpreter state
    n = 10
    rng = random.Random(3)
    chain = _chain_ext(n)
    cost = CostMatrix(
        [
            [F(rng.randint(0, 9)) if chain[i][j][0] == 0 or rng.random() < 0.3 else INF
             for j in range(n)]
            for i in range(n)
        ]
    )
    marg = Marginals.uniform(n)
    starts = []
    matching_start = simplex._matching_start

    def recording_start(*args):
        starts.append(matching_start(*args))
        return starts[-1]

    monkeypatch.setattr(simplex, "_matching_start", recording_start)

    def refuse(limit):
        raise AssertionError("sys.setrecursionlimit called")

    with monkeypatch.context() as m:
        m.setattr(sys, "setrecursionlimit", refuse)
        plan = solve_primal(cost, marg)
    assert starts and starts[-1] is not None
    monkeypatch.setattr(simplex, "_perfect_finite_matching", _recursive_kuhn)
    reference = solve_primal(cost, marg)
    assert plan.entries == reference.entries and plan.value == reference.value
