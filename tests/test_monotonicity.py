import itertools
import random
from fractions import Fraction as F

import pytest

import cell_graph_monotonicity as cell_graph
from otlab.finite_ot import (
    CostMatrix,
    InfiniteCostInSupport,
    Marginals,
    check_complementary_slackness,
    is_cyclically_monotone,
    solve_primal,
    strong_monotone_potentials,
    TransportPlan,
)
from otlab.finite_ot import monotonicity
from otlab.rational import INF


def test_diagonal_support_identity_cost():
    cost = CostMatrix([[0 if i == j else 1 for j in range(3)] for i in range(3)])
    ok, witness = is_cyclically_monotone({(0, 0), (1, 1), (2, 2)}, cost)
    assert ok and witness is None
    pair = strong_monotone_potentials({(0, 0), (1, 1), (2, 2)}, cost)
    assert pair is not None
    assert all(p + q == 0 for p, q in zip(pair.phi, pair.psi))


def test_two_cycle_violation_with_witness():
    cost = CostMatrix([[0, 1], [1, 0]])
    ok, witness = is_cyclically_monotone({(0, 1), (1, 0)}, cost)
    assert not ok
    assert sorted(witness) == [(0, 1), (1, 0)]
    assert strong_monotone_potentials({(0, 1), (1, 0)}, cost) is None


def test_infinite_cost_in_support():
    cost = CostMatrix([[INF, 1], [1, 0]])
    with pytest.raises(InfiniteCostInSupport):
        is_cyclically_monotone({(0, 0)}, cost)


def test_optimizer_support_is_monotone(repeat=15):
    rng = random.Random(31)
    for k in range(repeat):
        n = 2 + k % 5
        cost = CostMatrix(
            [[F(rng.randint(0, 30), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        )
        plan = solve_primal(cost, Marginals.uniform(n))
        ok, _ = is_cyclically_monotone(sorted(plan.support()), cost)
        assert ok


def test_potentials_pass_slackness_pipeline():
    rng = random.Random(55)
    cost = CostMatrix(
        [[F(rng.randint(0, 30), rng.randint(1, 3)) for _ in range(5)] for _ in range(5)]
    )
    marg = Marginals.uniform(5)
    plan = solve_primal(cost, marg)
    pair = strong_monotone_potentials(sorted(plan.support()), cost)
    assert pair is not None
    assert check_complementary_slackness(plan, pair, cost).passed


def permutation_plan(perm, n):
    w = F(1, n)
    return TransportPlan(
        [[w if perm[i] == j else 0 for j in range(n)] for i in range(n)],
        0,
    )


def test_monotone_iff_optimal_exhaustive_n4(costs=8):
    """Every permutation plan: optimal <=> cyclically monotone support
    <=> potentials exist; checked over all 24 supports."""
    rng = random.Random(123)
    n = 4
    for _ in range(costs):
        cost = CostMatrix(
            [[F(rng.randint(0, 20), rng.randint(1, 2)) for _ in range(n)] for _ in range(n)]
        )
        best = min(
            sum((cost[i, p[i]] for i in range(n)), F(0))
            for p in itertools.permutations(range(n))
        )
        for p in itertools.permutations(range(n)):
            value = sum((cost[i, p[i]] for i in range(n)), F(0))
            support = sorted((i, p[i]) for i in range(n))
            ok, _ = is_cyclically_monotone(support, cost)
            pair = strong_monotone_potentials(support, cost)
            assert ok == (value == best)
            assert (pair is not None) == ok
            if pair is not None:
                assert all(
                    pair.phi[i] + pair.psi[j] == cost[i, j] for (i, j) in support
                )
                assert pair.is_feasible(cost)


def test_monotone_mixtures_are_optimal():
    """Plans supported on a monotone set all share the optimal value."""
    rng = random.Random(9)
    n = 4
    cost = CostMatrix(
        [[F(rng.randint(0, 20), rng.randint(1, 2)) for _ in range(n)] for _ in range(n)]
    )
    marg = Marginals.uniform(n)
    opt = solve_primal(cost, marg)
    opt_perms = []
    for p in itertools.permutations(range(n)):
        value = sum((cost[i, p[i]] for i in range(n)), F(0)) / n
        if value == opt.value:
            opt_perms.append(p)
    # mix two optimal vertices if available; the mixture stays optimal
    if len(opt_perms) >= 2:
        a, b = opt_perms[0], opt_perms[1]
        w = F(1, n)
        entries = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            entries[i][a[i]] += w / 2
            entries[i][b[i]] += w / 2
        mixed = TransportPlan(entries, 0)
        support = sorted(mixed.support())
        ok, _ = is_cyclically_monotone(support, cost)
        assert ok


def _seeded_supports(count, seed=2024):
    """Rectangular costs with about 25% INF cells and supports of up to 8
    of their finite cells, the empty support included."""
    rng = random.Random(seed)
    for _ in range(count):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        cost = CostMatrix(
            [[INF if rng.random() < 0.25 else F(rng.randint(0, 12), rng.randint(1, 3))
              for _ in range(n)] for _ in range(m)]
        )
        finite = list(cost.finite_cells())
        yield cost, rng.sample(finite, rng.randint(0, min(8, len(finite))))


def test_single_pass_agrees_with_the_cell_graph_oracle():
    verdicts = {True: 0, False: 0}
    empty = 0
    for cost, support in _seeded_supports(2000):
        ok, witness = is_cyclically_monotone(support, cost)
        assert ok == cell_graph.is_cyclically_monotone(support, cost)[0]
        pair = strong_monotone_potentials(support, cost)
        verdicts[ok] += 1
        empty += not support
        if ok:
            assert witness is None
            ref = cell_graph.strong_monotone_potentials(support, cost)
            assert (pair.phi, pair.psi) == (ref.phi, ref.psi)
            continue
        assert pair is None
        k = len(witness)
        assert len(set(witness)) == k and set(witness) <= set(support)
        cross = [cost[witness[t][0], witness[(t + 1) % k][1]] for t in range(k)]
        assert INF not in cross
        assert sum(cross, F(0)) - sum((cost[c] for c in witness), F(0)) < 0
    assert verdicts[True] >= 1000 and verdicts[False] >= 500 and empty >= 10


def test_both_refuse_an_infinite_support_cell():
    cost = CostMatrix([[0, INF, 2], [1, 3, INF]])
    for check in (is_cyclically_monotone, strong_monotone_potentials):
        with pytest.raises(InfiniteCostInSupport):
            check({(0, 0), (1, 2)}, cost)
        with pytest.raises(InfiniteCostInSupport):
            check({(2, 0)}, cost)


def _refuse(*args, **kwargs):
    raise AssertionError("unexpected call")


def test_potentials_run_no_separate_monotonicity_check(monkeypatch):
    monkeypatch.setattr(monotonicity, "is_cyclically_monotone", _refuse)
    cost = CostMatrix([[0, 1], [1, 0]])
    assert strong_monotone_potentials({(0, 1), (1, 0)}, cost) is None
    pair = strong_monotone_potentials({(0, 0), (1, 1)}, cost)
    assert pair.phi == (0, 0) and pair.psi == (0, 0)
