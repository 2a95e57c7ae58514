import itertools
import math
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
    solve_certified,
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


def test_slackness_plan_misfit_raises():
    from otlab.finite_ot import DimensionMismatch, DualPair

    cost = CostMatrix([[1, 2], [3, 4]])
    plan = solve_primal(CostMatrix([[1, 2, 3]] * 3), Marginals.uniform(3))
    with pytest.raises(DimensionMismatch, match="plan does not fit"):
        check_complementary_slackness(plan, DualPair([0, 0], [0, 0]), cost)


# (0, 2) and (2, 0) are forbidden; zero potentials are tight on the diagonal
_BANDED = CostMatrix([[0, 5, INF], [5, 0, 5], [INF, 5, 0]])
_THIRDS = TransportPlan([[F(1, 3) if i == j else 0 for j in range(3)] for i in range(3)], 0)


def test_slackness_lists_the_one_cell_a_raised_potential_breaks():
    assert check_complementary_slackness(_THIRDS, DualPair([0] * 3, [0] * 3), _BANDED).passed
    report = check_complementary_slackness(_THIRDS, DualPair([1, 0, 0], [0] * 3), _BANDED)
    assert report.feasibility_violations == ((0, 0),)
    assert report.support_violations == ()


def test_slackness_lists_mass_moved_onto_an_inf_cell():
    t = F(1, 6)
    moved = [list(row) for row in _THIRDS.entries]
    # a cycle keeps the marginals: + on (0,2), (1,0), (2,1); - on the diagonal
    for (i, j), d in zip([(0, 2), (0, 0), (1, 0), (1, 1), (2, 1), (2, 2)], [t, -t] * 3):
        moved[i][j] += d
    report = check_complementary_slackness(
        TransportPlan(moved, 0), DualPair([0] * 3, [0] * 3), _BANDED
    )
    assert report.support_violations == ((0, 2), (1, 0), (2, 1))
    assert report.feasibility_violations == ()


def _recursive_kuhn(cost, big, n):
    """The recursive augmenting-path form of Kuhn's algorithm, kept as
    the oracle for the explicit-stack search in the simplex start."""
    adj = [[j for j in range(n) if cost[i][j] < big] for i in range(n)]
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


def _chain_cost(n):
    """Encoded costs with BIG = 1: row i < n-1 is finite (0) on columns i
    and i+1, row n-1 only on column 0, so the last row's augmenting path
    runs through every earlier row."""
    cost = [[1] * n for _ in range(n)]
    for i in range(n - 1):
        cost[i][i] = cost[i][i + 1] = 0
    cost[n - 1][0] = 0
    return cost


def test_matching_agrees_with_recursive_kuhn():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 9)
        p = rng.choice([0.2, 0.4, 0.7])
        cost = [[0 if rng.random() < p else 1 for _ in range(n)] for _ in range(n)]
        assert simplex._perfect_finite_matching(cost, 1, n) == _recursive_kuhn(cost, 1, n)
    cost = _chain_cost(9)
    assert simplex._perfect_finite_matching(cost, 1, 9) == _recursive_kuhn(cost, 1, 9)


def test_matching_deeper_than_recursion_limit():
    n = sys.getrecursionlimit() + 200
    match_col = simplex._perfect_finite_matching(_chain_cost(n), 1, n)
    assert match_col == [n - 1] + list(range(n - 1))


def test_matching_start_leaves_recursion_limit_alone(monkeypatch):
    # the matching start must not touch process-global interpreter state
    n = 10
    rng = random.Random(3)
    chain = _chain_cost(n)
    cost = CostMatrix(
        [
            [F(rng.randint(0, 9)) if chain[i][j] == 0 or rng.random() < 0.3 else INF
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


# --- the integer simplex against the Fraction simplex and networkx ---

import fraction_simplex  # noqa: E402  (tests/fraction_simplex.py)
from otlab.finite_ot import DualPair, solvers  # noqa: E402


def _ext(cells):
    """The oracle's (inf_units, Fraction) pair for each cost cell."""
    return [[(1, F(0)) if v is INF else (0, v) for v in row] for row in cells]


def _fraction_simplex_on_cells(cells, supply, demand):
    """fraction_simplex.solve_transport behind the production interface:
    cells in as Fractions or INF; the value out as INF when it has an
    infinity unit, and a potential as None when it carries one."""
    flow, value, u, v = fraction_simplex.solve_transport(_ext(cells), supply, demand)

    def potential(p):
        return None if p[0] else p[1]

    value = INF if value[0] > 0 else value[1]
    return flow, value, [potential(p) for p in u], [potential(p) for p in v]


def _oracle_instances(seed):
    """Seeded (cost, marginals, kind) triples: uniform square instances
    (the matching start), with and without INF cells, non-uniform and
    rectangular ones (the north-west start), and zero-mass rows and
    columns."""
    rng = random.Random(seed)
    out = []
    for k in range(160):
        kind = ("uniform", "uniform_inf", "nonuniform", "nonuniform_inf", "zero_mass")[k % 5]
        m = rng.randint(1, 9)
        n = m if kind.startswith("uniform") else rng.randint(1, 9)
        p_inf = 0.3 if kind.endswith("inf") or kind == "zero_mass" else 0.0
        cost = CostMatrix(
            [
                [INF if rng.random() < p_inf else F(rng.randint(0, 40), rng.randint(1, 4))
                 for _ in range(n)]
                for _ in range(m)
            ]
        )
        if kind.startswith("uniform"):
            marg = Marginals.uniform(n)
        else:
            low = 0 if kind == "zero_mass" else 1
            mu = [F(rng.randint(low, 9), rng.randint(1, 3)) for _ in range(m)]
            nu = [F(rng.randint(low, 9)) for _ in range(n)]
            if sum(mu) == 0 or sum(nu) == 0:
                mu[0] += 1
                nu[-1] += 1
            nu = [v * sum(mu) / sum(nu) for v in nu]
            marg = Marginals(mu, nu)
        out.append((cost, marg, kind))
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_integer_simplex_matches_fraction_simplex(seed):
    starts = {"matching": 0, "north_west": 0}
    for cost, marg, kind in _oracle_instances(seed):
        if kind == "zero_mass":
            continue
        supply, demand = list(marg.mu), list(marg.nu)
        encoded = [[1 if c is INF else 0 for c in row] for row in cost.entries]  # BIG = 1
        if simplex._matching_start(encoded, 1, supply, demand) is None:
            starts["north_west"] += 1
        else:
            starts["matching"] += 1
        flow, value, u, v = simplex.solve_transport(cost.entries, supply, demand)
        ref_flow, ref_value, ref_u, ref_v = _fraction_simplex_on_cells(cost.entries, supply, demand)
        assert flow == ref_flow
        assert value == ref_value
        assert u == ref_u and v == ref_v
    assert starts["matching"] >= 20 and starts["north_west"] >= 20


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_solve_primal_plans_match_fraction_simplex(seed, monkeypatch):
    """Whole solve_primal, zero-mass elimination and NoFinitePlan
    included, with either simplex underneath."""
    instances = _oracle_instances(seed)
    plans = []
    for cost, marg, _ in instances:
        try:
            plans.append(solve_primal(cost, marg))
        except NoFinitePlan:
            plans.append(None)
    monkeypatch.setattr(solvers, "solve_transport", _fraction_simplex_on_cells)
    infeasible = 0
    for (cost, marg, kind), plan in zip(instances, plans):
        try:
            ref = solve_primal(cost, marg)
        except NoFinitePlan:
            assert plan is None
            infeasible += 1
            continue
        assert plan is not None
        assert plan.entries == ref.entries and plan.value == ref.value
    assert 0 < infeasible < len(instances) // 2


def _network_simplex_value(cost, marg):
    """networkx's min-cost flow on the finite cells, costs and masses
    scaled to integers; None when no finite plan exists."""
    nx = pytest.importorskip("networkx")

    cost_scale = math.lcm(*(v.denominator for row in cost.entries for v in row if v is not INF))
    mass_scale = math.lcm(*(x.denominator for x in marg.mu + marg.nu))
    g = nx.DiGraph()
    for i, x in enumerate(marg.mu):
        g.add_node(("r", i), demand=-int(x * mass_scale))
    for j, x in enumerate(marg.nu):
        g.add_node(("c", j), demand=int(x * mass_scale))
    for i, j in cost.finite_cells():
        g.add_edge(("r", i), ("c", j), weight=int(cost[i, j] * cost_scale))
    try:
        flow_cost, _ = nx.network_simplex(g)
    except nx.NetworkXUnfeasible:
        return None
    return F(flow_cost, cost_scale * mass_scale)


@pytest.mark.parametrize("n", [3, 8, 16, 40])
def test_values_match_networkx_network_simplex(n):
    rng = random.Random(500 + n)
    for k in range(6 if n < 40 else 1):
        p_inf = (0.0, 0.4, 0.85)[k % 3]
        cost = CostMatrix(
            [
                [INF if rng.random() < p_inf else F(rng.randint(0, 60), rng.randint(1, 6))
                 for _ in range(n)]
                for _ in range(n)
            ]
        )
        if k % 2:
            mu = [F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n)]
            nu = [F(rng.randint(1, 9)) for _ in range(n)]
            nu = [v * sum(mu) / sum(nu) for v in nu]
            marg = Marginals(mu, nu)
        else:
            marg = Marginals.uniform(n)
        expected = _network_simplex_value(cost, marg)
        if expected is None:
            with pytest.raises(NoFinitePlan):
                solve_primal(cost, marg)
            continue
        plan = solve_primal(cost, marg)
        assert plan.value == expected
        assert plan.check_marginals(marg)
        assert all(cost.is_finite(i, j) for i, j in plan.support())


# --- solve_dual: tree potentials from the one solve ---


def _assert_certified(cost, marg, pair):
    plan = solve_primal(cost, marg)
    for i, j in cost.finite_cells():
        assert pair.phi[i] + pair.psi[j] <= cost[i, j], (i, j)
    for i, j in plan.support():
        assert pair.phi[i] + pair.psi[j] == cost[i, j], (i, j)
    assert pair.value == pair.pair_value(marg) == plan.value
    assert check_complementary_slackness(plan, pair, cost).passed


def _refuse(*args, **kwargs):
    raise AssertionError("unexpected call")


def test_solve_dual_zero_mass_rows_and_columns(monkeypatch):
    cost = CostMatrix([[1, 2, INF], [3, 0, 5], [INF, 1, 1]])
    marg = Marginals([0, F(1, 2), F(1, 2)], [F(1, 2), 0, F(1, 2)])
    monkeypatch.setattr(solvers, "strong_monotone_potentials", _refuse)
    pair = solve_dual(cost, marg)
    monkeypatch.undo()
    assert pair.value == 2
    _assert_certified(cost, marg, pair)


def test_solve_dual_zero_mass_seeded():
    instances = [(c, m) for c, m, kind in _oracle_instances(4) if kind == "zero_mass"]
    checked = 0
    for cost, marg in instances:
        if 0 not in marg.mu and 0 not in marg.nu:
            continue
        try:
            pair = solve_dual(cost, marg)
        except NoFinitePlan:
            continue
        _assert_certified(cost, marg, pair)
        checked += 1
    assert checked >= 10


def _tree_crosses_inf(cost, marg):
    _, u, v = solvers._solve(cost, marg)
    return any(p is None for p in u.values()) or any(p is None for p in v.values())


def test_solve_dual_falls_back_when_the_tree_crosses_an_inf_cell(monkeypatch):
    rng = random.Random(8)
    fallbacks = []
    smp = solvers.strong_monotone_potentials

    def recording(support, cost):
        fallbacks.append(support)
        return smp(support, cost)

    monkeypatch.setattr(solvers, "strong_monotone_potentials", recording)
    crossing = 0
    while crossing < 8:
        n = rng.randint(2, 7)
        cost = CostMatrix(
            [[INF if rng.random() < 0.5 else F(rng.randint(0, 9)) for _ in range(n)]
             for _ in range(n)]
        )
        marg = Marginals.uniform(n)
        try:
            crosses = _tree_crosses_inf(cost, marg)
        except NoFinitePlan:
            continue
        before = len(fallbacks)
        pair = solve_dual(cost, marg)
        assert len(fallbacks) == before + crosses
        crossing += crosses
        _assert_certified(cost, marg, pair)


def test_solve_dual_runs_one_simplex_and_no_primal_solve(monkeypatch):
    calls = []
    transport = solvers.solve_transport

    def counting(*args):
        calls.append(1)
        return transport(*args)

    monkeypatch.setattr(solvers, "solve_primal", _refuse)
    monkeypatch.setattr(solvers, "solve_transport", counting)
    rng = random.Random(9)
    pairs = []
    plans = []
    for n in range(1, 9):
        cost = random_cost(rng, n)
        marg = Marginals.uniform(n)
        pairs.append((cost, marg, solve_dual(cost, marg)))
        plan, pair = solve_certified(cost, marg)
        plans.append(plan)
        pairs.append((cost, marg, pair))
    assert len(calls) == len(pairs)
    monkeypatch.undo()
    for cost, marg, pair in pairs:
        _assert_certified(cost, marg, pair)
    for (cost, marg, _), plan in zip(pairs[1::2], plans):
        assert plan.entries == solve_primal(cost, marg).entries


def test_cli_solve_and_gap_solve_each_instance_once(tmp_path, monkeypatch, capsys):
    from otlab import gap
    from otlab.circle import build_tower
    from otlab.cli import main
    from otlab.finite_ot import save_instance

    calls = []
    transport = solvers.solve_transport

    def counting(*args):
        calls.append(1)
        return transport(*args)

    monkeypatch.setattr(solvers, "solve_transport", counting)
    rng = random.Random(11)
    for n in range(2, 6):
        path = tmp_path / f"inst{n}.json"
        save_instance(path, random_cost(rng, n), Marginals.uniform(n))
        assert main(["solve", str(path)]) == 0
    assert len(calls) == 4
    family = gap.build_gap_family(build_tower(5, 2), 2)
    report = gap.verify_truncated_duality(family, 2, 2)
    assert report.values_ok
    assert len(calls) == 5


def test_solve_dual_on_finite_costs_skips_the_monotonicity_fallback(monkeypatch):
    monkeypatch.setattr(solvers, "strong_monotone_potentials", _refuse)
    rng = random.Random(10)
    pairs = []
    for k in range(30):
        n = 2 + k % 8
        cost = random_cost(rng, n)
        mu = [F(rng.randint(1, 9)) for _ in range(n)]
        nu = [F(rng.randint(1, 9)) for _ in range(n)]
        nu = [v * sum(mu) / sum(nu) for v in nu]
        marg = Marginals(mu, nu) if k % 2 else Marginals.uniform(n)
        pairs.append((cost, marg, solve_dual(cost, marg)))
    monkeypatch.undo()
    for cost, marg, pair in pairs:
        _assert_certified(cost, marg, pair)


def test_slackness_reports_charged_inf_cells():
    cost = CostMatrix([[0, INF], [INF, 0]])
    anti = TransportPlan([[0, F(1, 2)], [F(1, 2), 0]], 0)
    report = check_complementary_slackness(anti, DualPair([0, 0], [0, 0]), cost)
    assert not report.passed
    assert report.support_violations == ((0, 1), (1, 0))
    assert report.feasibility_violations == ()
    diag = TransportPlan([[F(1, 2), 0], [0, F(1, 2)]], 0)
    assert check_complementary_slackness(diag, DualPair([0, 0], [0, 0]), cost).passed
