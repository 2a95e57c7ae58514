import itertools
import json
import math
import random
import re
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
from otlab.finite_ot.types import integer_arcs
from otlab.rational import INF

import fraction_slackness


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


# Mersenne primes: pairwise coprime, with a product near 2^415
_WIDE_PRIMES = [2**31 - 1, 2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1]


def _moved(values, rng):
    return [x + F(rng.randint(-3, 3), rng.choice(_WIDE_PRIMES)) for x in values]


def test_slackness_audit_matches_the_fraction_audit():
    """The same two lists, cell for cell and in order, as the Fraction
    audit: on certified pairs of costs with INF cells and zero-mass rows
    and columns; on their potentials moved by multiples of 1/p for wide
    primes p, or with one potential nudged by +-1/p, which on an integer
    cost breaks its row by one unit of the common denominator; and on
    plans charging an INF cell or holding a negative cell."""
    rng = random.Random(404)
    seen = dict.fromkeys(["passed", "support", "feasibility", "inf_charged", "zero_mass"], 0)
    for _ in range(300):
        m, n, q = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 3)
        cost = CostMatrix(
            [[INF if rng.random() < 0.3 else F(rng.randint(0, 12), rng.randint(1, q))
              for _ in range(n)] for _ in range(m)]
        )
        finite = list(cost.finite_cells())
        if not finite:
            continue
        # the masses of a plan on a few finite cells: rows and columns it
        # misses have zero mass
        mass = {c: F(rng.randint(1, 4)) for c in rng.sample(finite, rng.randint(1, len(finite)))}
        mu = [sum((w for (i, _), w in mass.items() if i == r), F(0)) for r in range(m)]
        nu = [sum((w for (_, j), w in mass.items() if j == c), F(0)) for c in range(n)]
        seen["zero_mass"] += 0 in mu or 0 in nu
        plan, pair = solve_certified(cost, Marginals(mu, nu))
        moved = DualPair(_moved(pair.phi, rng), _moved(pair.psi, rng))
        phi = list(pair.phi)
        phi[rng.randrange(m)] += F(rng.choice((-1, 1)), rng.choice(_WIDE_PRIMES))
        nudged = DualPair(phi, pair.psi)
        cells = dict(plan.cells)
        cells[rng.choice(finite)] = F(-1, 5)
        inf_cells = [(i, j) for i in range(m) for j in range(n) if not cost.is_finite(i, j)]
        if inf_cells:
            cells[rng.choice(inf_cells)] = F(1, 7)
        other = TransportPlan.from_cells(m, n, cells, plan.value)
        for p, d in [(plan, pair), (plan, moved), (plan, nudged), (other, pair), (other, moved)]:
            report = check_complementary_slackness(p, d, cost)
            got = (report.support_violations, report.feasibility_violations)
            assert got == fraction_slackness.slackness_violations(p, d, cost)
            seen["passed"] += report.passed
            seen["support"] += bool(report.support_violations)
            seen["feasibility"] += bool(report.feasibility_violations)
            seen["inf_charged"] += any(not cost.is_finite(*c) for c in report.support_violations)
    assert min(seen.values()) >= 100, seen


def _recursive_kuhn(adj, n):
    """The recursive augmenting-path form of Kuhn's algorithm, kept as
    the oracle for the explicit-stack search in the simplex start."""
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


def _chain_adj(n):
    """Finite columns per row: row i < n-1 has columns i and i+1, row n-1
    only column 0, so the last row's augmenting path runs through every
    earlier row."""
    return [[i, i + 1] for i in range(n - 1)] + [[0]]


def test_matching_agrees_with_recursive_kuhn():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 9)
        p = rng.choice([0.2, 0.4, 0.7])
        adj = [[j for j in range(n) if rng.random() < p] for _ in range(n)]
        assert simplex._perfect_finite_matching(adj, n) == _recursive_kuhn(adj, n)
    adj = _chain_adj(9)
    assert simplex._perfect_finite_matching(adj, 9) == _recursive_kuhn(adj, 9)


def test_matching_deeper_than_recursion_limit():
    n = sys.getrecursionlimit() + 200
    match_col = simplex._perfect_finite_matching(_chain_adj(n), n)
    assert match_col == [n - 1] + list(range(n - 1))


def test_matching_start_leaves_recursion_limit_alone(monkeypatch):
    # the matching start must not touch process-global interpreter state
    n = 10
    rng = random.Random(3)
    chain = _chain_adj(n)
    cost = CostMatrix(
        [
            [F(rng.randint(0, 9)) if j in chain[i] or rng.random() < 0.3 else INF
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


def _ext(arcs, n):
    """The oracle's dense (inf_units, Fraction) pair for each cost cell
    of n columns with the finite cells `arcs`, per row."""
    return [[(0, row[j]) if j in row else (1, F(0)) for j in range(n)] for row in arcs]


def _fraction_simplex_on_arcs(arcs, supply, demand):
    """fraction_simplex.solve_transport behind the production interface:
    per-row arcs in; the value out as INF when it has an infinity unit,
    and a potential as None when it carries one."""
    flow, value, u, v = fraction_simplex.solve_transport(
        _ext(arcs, len(demand)), supply, demand
    )

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
        if simplex._matching_start(cost.arcs, supply, demand) is None:
            starts["north_west"] += 1
        else:
            starts["matching"] += 1
        flow, value, u, v = simplex.solve_transport(cost.arcs, supply, demand)
        ref_flow, ref_value, ref_u, ref_v = _fraction_simplex_on_arcs(cost.arcs, supply, demand)
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
    monkeypatch.setattr(solvers, "solve_transport", _fraction_simplex_on_arcs)
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

    cost_scale = math.lcm(*(c.denominator for row in cost.arcs for c in row.values()))
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


# --- sparse costs: finite arcs only ---


def _sparse_instances(seed, count=240):
    """Seeded (cost, marginals, kind) triples built from arcs: uniform
    square instances, rectangular ones with non-uniform masses, zero-mass
    rows and columns, and rows with a single arc or none; about one in
    six rows keeps one arc and one in twelve none, so some instances
    have no finite plan."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        kind = ("uniform", "rectangular", "zero_mass")[k % 3]
        m = rng.randint(1, 9)
        n = m if kind == "uniform" else rng.randint(1, 9)
        arcs = []
        for i in range(m):
            r = rng.random()
            width = 0 if r < 1 / 12 else 1 if r < 1 / 4 else rng.randint(1, n)
            for j in sorted(rng.sample(range(n), width)):
                arcs.append((i, j, F(rng.randint(0, 40), rng.randint(1, 4))))
        rng.shuffle(arcs)  # from_arcs takes the arcs in any order
        cost = CostMatrix.from_arcs(m, n, arcs)
        if kind == "uniform":
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


def _arc_lists(cost):
    return [(i, j, c) for i, row in enumerate(cost.arcs) for j, c in row.items()]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sparse_values_match_networkx_with_certificates(seed):
    seen = {"single_arc_row": 0, "empty_row": 0, "rectangular": 0, "zero_mass": 0,
            "no_finite_plan": 0, "solved": 0}
    for cost, marg, kind in _sparse_instances(seed):
        widths = [len(row) for row in cost.arcs]
        seen["single_arc_row"] += 1 in widths
        seen["empty_row"] += 0 in widths
        seen["rectangular"] += cost.n_rows != cost.n_cols
        seen["zero_mass"] += 0 in marg.mu or 0 in marg.nu
        expected = _network_simplex_value(cost, marg)
        if expected is None:
            with pytest.raises(NoFinitePlan):
                solve_certified(cost, marg)
            seen["no_finite_plan"] += 1
            continue
        plan, pair = solve_certified(cost, marg)
        seen["solved"] += 1
        assert plan.value == expected == pair.value
        assert plan.check_marginals(marg)
        assert all(cost.is_finite(i, j) for i, j in plan.support())
        for i, j, c in _arc_lists(cost):
            assert pair.phi[i] + pair.psi[j] <= c, (i, j)
        for i, j in plan.support():
            assert pair.phi[i] + pair.psi[j] == cost[i, j], (i, j)
        assert pair.value == pair.pair_value(marg)
        assert check_complementary_slackness(plan, pair, cost).passed
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize("seed", [4, 5])
def test_dense_and_arc_builders_give_identical_solves(seed):
    for cost, marg, _ in _sparse_instances(seed, count=120):
        dense = CostMatrix([[cost[i, j] for j in range(cost.n_cols)] for i in range(cost.n_rows)])
        assert dense.arcs == cost.arcs
        assert [list(row) for row in dense.arcs] == [sorted(row) for row in cost.arcs]
        outcomes = []
        for c in (dense, cost):
            try:
                plan, pair = solve_certified(c, marg)
            except NoFinitePlan:
                outcomes.append(None)
                continue
            outcomes.append((plan.cells, plan.value, pair.phi, pair.psi, pair.value))
        assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize(
    "args, message",
    [
        ((2, 2, [(0, 2, 1)]), "arc (0, 2) outside the 2x2 cost"),
        ((2, 2, [(-1, 0, 1)]), "arc (-1, 0) outside the 2x2 cost"),
        ((2, 2, [(1, 1, 1), (1, 1, 2)]), "arc (1, 1) given twice"),
        ((2, 2, [(0, 0, F(-1, 3))]), "cost entries must be >= 0, got -1/3"),
        ((2, 2, [(0, 0, INF)]), "expected a finite rational, got INF"),
        ((2, 2, [(0, 0, "inf")]), "expected a finite rational, got 'inf'"),
        ((0, 2, []), "at least one row"),
        ((2, 0, []), "at least one column"),
    ],
)
def test_from_arcs_rejects_bad_arcs(args, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        CostMatrix.from_arcs(*args)


def test_from_arcs_cells_off_the_arcs_are_inf():
    cost = CostMatrix.from_arcs(2, 3, [(1, 2, 5), (1, 0, F(1, 2)), (0, 1, 0)])
    assert [list(row.items()) for row in cost.arcs] == [[(1, 0)], [(0, F(1, 2)), (2, 5)]]
    assert cost[0, 0] is INF and cost[1, 1] is INF and cost[1, 2] == 5
    assert list(cost.finite_cells()) == [(0, 1), (1, 0), (1, 2)]
    assert not cost.is_finite(0, 2) and cost.is_finite(1, 0)


def test_plan_cells_and_dense_view_agree():
    dense = [[0, F(1, 2)], [F(1, 4), F(1, 4)]]
    plan = TransportPlan(dense, 3)
    assert plan.cells == {(0, 1): F(1, 2), (1, 0): F(1, 4), (1, 1): F(1, 4)}
    assert plan.entries == tuple(tuple(F(v) for v in row) for row in dense)
    assert plan.row_sums() == (F(1, 2), F(1, 2)) and plan.col_sums() == (F(1, 4), F(3, 4))
    assert plan.support() == {(0, 1), (1, 0), (1, 1)}
    assert (plan.n_rows, plan.n_cols, plan.value) == (2, 2, 3)


def test_is_feasible_flags_the_smallest_excess():
    cost = CostMatrix([[F(1, 3), INF], [F(1, 2), F(1, 4)]])
    assert DualPair([F(1, 3), F(1, 4)], [0, 0]).is_feasible(cost)  # tight on the diagonal
    # (1, 1) exceeds its cost by 1/12; (0, 1) is INF and constrains nothing
    assert not DualPair([F(1, 3), F(1, 4)], [0, F(1, 12)]).is_feasible(cost)
    assert DualPair([F(1, 3), F(1, 6)], [0, F(1, 12)]).is_feasible(cost)
    assert DualPair([F(1, 3), F(1, 6)], [0, 10**9]).is_feasible(CostMatrix([[1, INF], [INF, INF]]))
    assert not DualPair([F(1, 3) + F(1, 10**9), 0], [0, 0]).is_feasible(cost)


# --- block pricing on strongly feasible trees ---


def _assert_strongly_feasible(flow, root, m, n):
    """The start's cells form a spanning tree on the m rows and n
    columns in which every zero-flow cell is a row hanging below its
    column, with `root` the root row."""
    assert len(flow) == m + n - 1
    adj = {("r", i): [] for i in range(m)} | {("c", j): [] for j in range(n)}
    for i, j in flow:
        adj[("r", i)].append(("c", j))
        adj[("c", j)].append(("r", i))
    up = {("r", root): None}
    order = [("r", root)]
    for x in order:
        for y in adj[x]:
            if y not in up:
                up[y] = x
                order.append(y)
    assert len(up) == m + n, "the start does not span"
    for (i, j), f in flow.items():
        assert f >= 0
        if f == 0:
            assert up[("r", i)] == ("c", j), (i, j)


def test_both_starts_are_strongly_feasible():
    rng = random.Random(21)
    starts = {"matching": 0, "matching_root_not_0": 0, "north_west": 0}
    for k in range(400):
        m = rng.randint(1, 12)
        square = k % 2 == 0
        n = m if square else rng.randint(1, 12)
        p_inf = rng.choice([0.0, 0.3, 0.6])
        arcs = [
            {j: F(rng.randint(0, 9)) for j in range(n) if rng.random() >= p_inf}
            for _ in range(m)
        ]
        if square:
            supply = demand = [F(1, n)] * n
        else:
            supply = [F(rng.randint(1, 4)) for _ in range(m)]
            demand = [F(rng.randint(1, 4)) for _ in range(n)]
            demand = [x * sum(supply) / sum(demand) for x in demand]
        trees = [(simplex._north_west_start(supply, demand), 0)]
        starts["north_west"] += 1
        matching = simplex._matching_start(arcs, supply, demand)
        if matching is not None:
            trees.append(matching)
            assert all(j in arcs[i] for i, j in matching[0])
            starts["matching"] += 1
            starts["matching_root_not_0"] += matching[1] != 0
        for flow, root in trees:
            _assert_strongly_feasible(flow, root, m, n)
            assert [sum(f for (i, _), f in flow.items() if i == r) for r in range(m)] == supply
            assert [sum(f for (_, j), f in flow.items() if j == c) for c in range(n)] == demand
    assert min(starts.values()) >= 10, starts


def test_matching_start_roots_where_every_pair_is_reached():
    # Row 1's column reaches row 0 through the finite cell (0, 1), but
    # row 0's column 0 has no finite cell in row 1: only a tree rooted
    # at row 1 spans with zero-flow cells below their columns.
    flow, root = simplex._matching_start([{0: 3, 1: 5}, {1: 1}], [1, 1], [1, 1])
    assert root == 1
    assert flow == {(1, 1): 1, (0, 1): 0, (0, 0): 1}
    # No finite connector leaves either matched pair: no strongly
    # feasible tree exists around the matching.
    assert simplex._matching_start([{0: 3}, {1: 1}], [1, 1], [1, 1]) is None


# strong_monotone_potentials calls over the feasible _oracle_instances(seed)
# under solve_dual, counted with Bland pricing on a matching start whose
# connectors came from a union-find pass: the strongly feasible starts
# must not fall back more often.
_FALLBACKS_BEFORE_BLOCK_PRICING = {1: 1, 2: 0, 3: 2}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_strongly_feasible_starts_add_no_monotonicity_fallbacks(seed, monkeypatch):
    calls = []
    smp = solvers.strong_monotone_potentials

    def recording(support, cost):
        calls.append(support)
        return smp(support, cost)

    monkeypatch.setattr(solvers, "strong_monotone_potentials", recording)
    solved = 0
    for cost, marg, _ in _oracle_instances(seed):
        try:
            pair = solve_dual(cost, marg)
        except NoFinitePlan:
            continue
        solved += 1
        assert pair.is_feasible(cost)
    assert solved >= 100
    assert len(calls) <= _FALLBACKS_BEFORE_BLOCK_PRICING[seed]


def _degenerate_cost(rng, family, m, n):
    if family == "zeros":
        return CostMatrix([[0] * n for _ in range(m)])
    if family == "zero_one":
        return CostMatrix([[rng.randint(0, 1) for _ in range(n)] for _ in range(m)])
    if family == "identity":
        return CostMatrix([[0 if i == j else 1 for j in range(n)] for i in range(m)])
    # heavily tied: three distinct values
    return CostMatrix([[F(rng.randint(0, 2), 2) for _ in range(n)] for _ in range(m)])


def _degenerate_instances():
    """(family, cost, marginals) over the four tie-heavy cost families,
    square and rectangular shapes up to 40, uniform and non-uniform
    masses."""
    rng = random.Random(31)
    shapes = [(1, 1), (2, 2), (3, 3), (5, 5), (7, 7), (12, 12), (40, 40),
              (2, 5), (6, 3), (4, 8), (9, 6), (25, 40), (40, 16)]
    out = []
    for family in ("zeros", "zero_one", "identity", "tied"):
        for m, n in shapes:
            for uniform in (True, False):
                if uniform:
                    marg = Marginals([F(1, m)] * m, [F(1, n)] * n)
                else:
                    mu = [F(rng.randint(1, 3)) for _ in range(m)]
                    nu = [F(rng.randint(1, 3)) for _ in range(n)]
                    nu = [v * sum(mu) / sum(nu) for v in nu]
                    marg = Marginals(mu, nu)
                out.append((family, _degenerate_cost(rng, family, m, n), marg))
    return out


@pytest.mark.parametrize("start", ["default", "north_west"])
def test_degenerate_families_terminate_with_exact_values(start, monkeypatch):
    """Tie-heavy costs, on which a careless leaving rule cycles: every
    solve ends within a pivot budget, with the networkx value (and the
    best permutation for uniform square instances up to 7), a
    certificate, and no monotonicity fallback.  With start="north_west"
    the matching start is switched off, so the uniform square instances
    run from the north-west corner too."""
    if start == "north_west":
        monkeypatch.setattr(simplex, "_matching_start", lambda *args: None)
    pivots = []
    reroot = simplex._reroot

    def counting(q, w, adj, *rest):
        if w >= 0:  # w < 0 hangs the start tree from its root
            pivots[-1] += 1
            assert pivots[-1] <= 10 * len(adj) ** 2, "pivot budget exceeded"
        return reroot(q, w, adj, *rest)

    monkeypatch.setattr(simplex, "_reroot", counting)
    monkeypatch.setattr(solvers, "strong_monotone_potentials", _refuse)
    for family, cost, marg in _degenerate_instances():
        m, n = cost.n_rows, cost.n_cols
        pivots.append(0)
        plan, pair = solve_certified(cost, marg)
        assert plan.value == pair.value == _network_simplex_value(cost, marg), (family, m, n)
        if m == n <= 7 and len(set(marg.mu)) == 1:
            assert plan.value == brute_force_value(cost, n)
        assert plan.check_marginals(marg)
        assert check_complementary_slackness(plan, pair, cost).passed
    assert sum(pivots) > 0


def _cheap_permutation_cost(n, off):
    """An n x n cost that is 0 on a seeded permutation and off(rng)
    elsewhere, with that permutation."""
    rng = random.Random(n)
    perm = rng.sample(range(n), n)
    return CostMatrix(
        [[0 if j == perm[i] else off(rng) for j in range(n)] for i in range(n)]
    ), perm


@pytest.mark.parametrize("n", [1, 2, 7, 16, 40])
def test_matching_start_takes_the_cheapest_arc_permutation(n, monkeypatch):
    """The matching start tries each row's cheapest arcs first, so when
    those form a permutation the start carries its mass on it: the start
    plan is optimal, and any pivot after it is degenerate.  With every
    other cell the same cost the start tree is optimal too: no pivot."""
    cost, perm = _cheap_permutation_cost(n, lambda rng: rng.randint(1, 9))
    supply = demand = [F(1, n)] * n
    flow, _ = simplex._matching_start(integer_arcs(cost.arcs)[0], supply, demand)
    assert {cell for cell, f in flow.items() if f} == {(i, perm[i]) for i in range(n)}
    plan, pair = solve_certified(cost, Marginals.uniform(n))
    assert plan.value == pair.value == 0
    assert plan.support() == {(i, perm[i]) for i in range(n)}

    pivots = []
    reroot = simplex._reroot

    def counting(q, w, adj, *rest):
        if w >= 0:  # w < 0 hangs the start tree from its root
            pivots.append((q, w))
        return reroot(q, w, adj, *rest)

    monkeypatch.setattr(simplex, "_reroot", counting)
    cost, perm = _cheap_permutation_cost(n, lambda rng: 5)
    plan, pair = solve_certified(cost, Marginals.uniform(n))
    assert pivots == []
    assert plan.value == pair.value == 0
    assert plan.support() == {(i, perm[i]) for i in range(n)}


def test_cli_solve_dense_200(tmp_path, capsys):
    from otlab.cli import main
    from otlab.finite_ot import save_instance

    n = 200
    cost = random_cost(random.Random(200), n)
    marg = Marginals.uniform(n)
    path = tmp_path / "dense200.json"
    save_instance(path, cost, marg)
    assert main(["solve", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    expected = _network_simplex_value(cost, marg)
    assert report["primal"] == report["dual"] == f"{expected.numerator}/{expected.denominator}"
