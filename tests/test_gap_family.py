import itertools
import random
from fractions import Fraction as F

import numpy as np
import pytest

from otlab import gap
from otlab.circle import build_tower, phi_level, quasi_cost_values
from otlab.gap import (
    GapFamily,
    _cheap_partial_plans,
    _separation_radius,
    build_gap_family,
    gap_demonstration,
    materialize_cost,
    verify_row_map,
    verify_truncated_duality,
)
from otlab.finite_ot import (
    CostMatrix,
    Marginals,
    NoFinitePlan,
    TransportPlan,
    solve_dual,
    solve_primal,
)
from otlab.rational import INF
from otlab.tau import (
    TauLevel,
    build_tau_level1,
    quasi_cost,
    sigma_of,
    singular_ledger,
    transport_cost_tau,
    verify_level,
)


@pytest.fixture(scope="module")
def tower():
    return build_tower(5, 2)


@pytest.fixture(scope="module")
def family(tower):
    return build_gap_family(tower, 2)


@pytest.fixture(scope="module")
def family31():
    return build_gap_family(build_tower(5, 2, growth_floor=[31]), 2)


@pytest.mark.parametrize(
    "fn", [singular_ledger, verify_level, transport_cost_tau],
    ids=lambda fn: fn.__name__,
)
def test_mask_free_cells_refuse_mask_quantities(tower, family, fn):
    # a gap-grid cell has no good/singular sets to sum or check over
    with pytest.raises(ValueError) as e:
        fn(family.cell(2, 2), tower)
    assert str(e.value) == (
        f"{fn.__name__} needs a construction level; this level-2 permutation "
        "has no good_mask and no singular_mask"
    )


def test_seed_is_inverse_of_level1(tower, family):
    base = build_tau_level1(tower)
    seed = family.cell(1, 1)
    assert (sigma_of(tower, 1, seed.tau)[sigma_of(tower, 1, base.tau)] == np.arange(5)).all()


def test_seed_quasi_cost_multiset():
    # the sign-flipped seed: zero on the bulk, (M-1)/2 on two blocks
    t = build_tower(7, 1)
    fam = build_gap_family(t, 1)
    q = quasi_cost(fam.cell(1, 1), t).values
    assert sorted(q.tolist()) == [0, 0, 0, 0, 1, 3, 3]
    assert int(q.sum()) == 7


def test_all_cells_mean_one(tower, family):
    for (n, j), cell in sorted(family.grid.items()):
        q = quasi_cost(cell, tower).values
        assert int(q.sum()) == cell.modulus


def test_all_cells_permutations(tower, family):
    for (n, j), cell in sorted(family.grid.items()):
        assert sorted(sigma_of(tower, j, cell.tau).tolist()) == list(range(cell.modulus))


def test_grid_cells_are_read_only(family, family31):
    # cells are mask-free TauLevels whose arrays are frozen
    for fam in (family, family31):
        for (n, j), cell in sorted(fam.grid.items()):
            assert cell.good_mask is None and cell.singular_mask is None
            arrays = [cell.tau]
            if n < j:
                arrays.append(cell.changed_mask)
            for arr in arrays:
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = arr[0]


def test_stabilization_bound(tower, family):
    # refinement changes tau on at most |tau| <= M_{j-1} children per block
    cell = family.cell(1, 2)
    counts = cell.changed_mask.reshape(5, 11).sum(axis=1)
    assert (counts <= 5).all()


def test_row2_maps_blocks_to_themselves(tower, family):
    cell = family.cell(2, 2)
    blocks = np.arange(55) // 11
    assert (sigma_of(tower, 2, cell.tau) // 11 == blocks).all()


def test_row_map_reports(tower, family):
    r1 = verify_row_map(family, 1, 2)
    assert r1.permutation_ok and r1.quasi_cost_mean_one
    assert r1.eta == F(3, 5)
    r2 = verify_row_map(family, 2, 2)
    assert r2.permutation_ok and r2.quasi_cost_mean_one
    assert r2.displacement_ok
    assert r2.displacement_bound == F(1, 5)


def test_eta_closed_forms(family, family31):
    assert family.eta_closed == {1: F(3, 5), 2: F(1)}
    assert family31.eta_closed == {1: F(3, 5), 2: F(11, 31)}


def test_eta_decreases_with_growth(family31):
    etas = [family31.eta_closed[n] for n in sorted(family31.eta_closed)]
    assert all(a > b for a, b in zip(etas, etas[1:]))


def test_degenerate_diagonal_is_identity(family):
    # m_2 = 2*M_1 + 1 leaves no bulk: the order-preserving matching of
    # the boundary onto itself collapses the seed to the identity
    cell = family.cell(2, 2)
    assert (sigma_of(family.tower, 2, cell.tau) == np.arange(55)).all()


def test_materialize_m1(tower, family):
    trunc = materialize_cost(family, 1, 2)
    cost = trunc.cost
    M = 55
    for l in range(M):
        assert cost[l, l] == 1
    mid = (M - 1) // 2
    P = tower.P[1]
    for l in range(M):
        v = cost[l, (l + P) % M]
        assert v == (0 if l < mid else (1 if l == mid else 2))


def test_materialize_m2_counts(tower, family, family31):
    assert materialize_cost(family, 2, 2).finite_cells == 110
    # non-degenerate tower: three graphs overlapping only at the fixed
    # block centers of the diagonal seed
    assert materialize_cost(family31, 2, 2).finite_cells == 3 * 155 - 5


@pytest.mark.parametrize("M_graphs", [1, 2])
def test_materialized_arcs_are_the_graph_cells(family, family31, M_graphs):
    # the per-index loop over the graphs, as an oracle for the numpy build
    for fam in (family, family31):
        phi = phi_level(fam.tower, 2).values
        want = {}
        for k in range(M_graphs + 1):
            sigma = fam.limit_sigma(k)
            q = quasi_cost_values(phi, sigma)
            for l in range(sigma.size):
                cell = (l, int(sigma[l]))
                assert want.setdefault(cell, max(int(q[l]), 0)) == max(int(q[l]), 0)
        trunc = materialize_cost(fam, M_graphs, 2)
        got = {(i, j): c for i, row in enumerate(trunc.cost.arcs) for j, c in row.items()}
        assert got == want
        assert list(got) == sorted(want)
        assert trunc.finite_cells == len(want)


def test_graphs_on_shared_cells_agree(family31, monkeypatch):
    # q(l) = 1 + phi(l) - phi(sigma(l)) is a function of the cell alone, so
    # a limit map moved onto another graph's cells brings the same costs
    monkeypatch.setattr(family31, "limit_sigma", lambda k: GapFamily.limit_sigma(family31, min(k, 1)))
    trunc = materialize_cost(family31, 2, 2)
    assert trunc.finite_cells == 2 * 155  # the rotation has no fixed point


def test_graph_overlap_with_another_cost_is_refused(family31, monkeypatch):
    # graph 2 lands on the identity's cell at each of its fixed points;
    # its quasi-cost is raised on two of them
    sigma2 = family31.limit_sigma(2)
    l0, l1 = np.flatnonzero(sigma2 == np.arange(sigma2.size))[:2]
    real = gap.quasi_cost_values

    def patched(phi, sigma):
        q = real(phi, sigma)
        if np.array_equal(sigma, sigma2):
            q[l1] += 2
            q[l0] += 5
        return q

    monkeypatch.setattr(gap, "quasi_cost_values", patched)
    with pytest.raises(gap.GraphOverlapInconsistency) as e:
        materialize_cost(family31, 2, 2)
    assert str(e.value) == f"cell ({l0},{l0}): 1 vs 6 from graph 2"


def test_gap_path_builds_no_dense_table(family31, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense table built")

    monkeypatch.setattr(CostMatrix, "__init__", refuse)
    monkeypatch.setattr(TransportPlan, "__init__", refuse)
    monkeypatch.setattr(TransportPlan, "entries", property(refuse))
    report = gap_demonstration(family31, 2, 2)
    assert report["primal"] == report["dual"] == "1/1"


def test_truncated_cost_values(tower, family, family31):
    for fam in (family, family31):
        trunc = materialize_cost(fam, 2, 2)
        plan = solve_primal(trunc.cost, trunc.marginals)
        pair = solve_dual(trunc.cost, trunc.marginals)
        assert plan.value == 1
        assert pair.value == 1


def test_separation_report(tower, family):
    sep = verify_truncated_duality(family, 2, 2)
    assert sep.values_ok
    included = [s for s in sep.samples if not s.get("excluded")]
    assert included
    for s in included:
        assert s["mass"] >= F(2, 3)
        assert s["cost"] <= F(1, 2)
        assert s["beta"] > 0
    assert sep.beta_threshold is not None and sep.beta_threshold > 0


def test_gap_report_shape(tower, family):
    rep = gap_demonstration(family, 2, 2)
    assert rep["primal"] == "1/1" and rep["dual"] == "1/1"
    assert rep["eta"] == {"1": "3/5", "2": "1/1"}
    assert rep["witness_cost"] == {"1": "0/1", "2": "0/1"}
    assert rep["beta_threshold"] is not None


def test_gap_report_eta_trend_on_grown_tower(family31):
    rep = gap_demonstration(family31, 2, 2)
    assert rep["eta_strictly_decreasing"]
    assert rep["primal"] == "1/1" and rep["dual"] == "1/1"


def test_row_map_negative_control(tower, family):
    import copy

    cell = family.cell(1, 2)
    tau = cell.tau.copy()
    tau.setflags(write=True)
    tau[3] += 1
    broken = TauLevel(2, tau)
    fam2 = copy.copy(family)
    fam2.grid = dict(family.grid)
    fam2.grid[(1, 2)] = broken
    rep = verify_row_map(fam2, 1, 2)
    assert not rep.permutation_ok


def test_separation_excludes_full_diagonal(tower, family):
    sep = verify_truncated_duality(family, 2, 2)
    excluded = [s for s in sep.samples if s.get("excluded")]
    assert len(excluded) == 1
    assert excluded[0]["mass"] == 1 and excluded[0]["cost"] == 1


def test_truncated_m1_duality(tower, family):
    trunc = materialize_cost(family, 1, 2)
    assert solve_primal(trunc.cost, trunc.marginals).value == 1
    assert solve_dual(trunc.cost, trunc.marginals).value == 1


@pytest.mark.parametrize("m1,m2", [(5, 31), (7, 29)])
def test_diagonal_zero_set_case_count(m1, m2):
    # fresh diagonal: per block, the two bulk runs of m - 2*M' - 1 zeros
    t = build_tower(m1, 2, growth_floor=[m2])
    assert t.primes == (m1, m2)
    fam = build_gap_family(t, 2)
    cell = fam.cell(2, 2)
    q = quasi_cost(cell, t).values
    zero_measure = F(int((q == 0).sum()), cell.modulus)
    assert zero_measure == 1 - fam.eta_closed[2]


def _circle_distance(a, b, Mj):
    d = abs(a - b)
    return min(d, Mj - d)


def _bisected_radius(cells, Mj):
    """Largest radius with no completion of the partial plan (mass 1/Mj
    on each cell) inside circle distance < radius: a bisection over
    dense-simplex feasibility probes, feasibility being monotone in the
    radius."""
    w = F(1, Mj)
    mu, nu = [w] * Mj, [w] * Mj
    for i, jj in cells:
        mu[i] -= w
        nu[jj] -= w

    def feasible(radius):
        cost = CostMatrix(
            [
                [F(0) if _circle_distance(a, b, Mj) < radius else INF for b in range(Mj)]
                for a in range(Mj)
            ]
        )
        try:
            solve_primal(cost, Marginals(mu, nu))
            return True
        except NoFinitePlan:
            return False

    lo, hi = 1, Mj // 2 + 1
    best = 0
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            best = mid
            lo = mid + 1
    return best


@pytest.mark.parametrize("M_graphs", [1, 2])
def test_separation_radius_matches_bisection(family, M_graphs):
    trunc = materialize_cost(family, M_graphs, 2)
    Mj = trunc.cost.n_rows
    plans = _cheap_partial_plans(family, trunc)
    assert len(plans) == 3
    for cells, _ in plans:
        free_rows = sorted(set(range(Mj)) - {i for i, _ in cells})
        free_cols = sorted(set(range(Mj)) - {jj for _, jj in cells})
        assert _separation_radius(free_rows, free_cols, Mj) == _bisected_radius(cells, Mj)


def _brute_bottleneck(rows, cols, Mj):
    return min(
        max((_circle_distance(a, b, Mj) for a, b in zip(rows, perm)), default=0)
        for perm in itertools.permutations(cols)
    )


def test_separation_radius_matches_brute_force():
    rng = random.Random(20260418)
    cases = [([], [], 1), ([], [], 9), ([4], [4], 9), ([0, 3, 5], [0, 3, 5], 7)]
    for _ in range(400):
        Mj = rng.randint(1, 40)
        n = rng.randint(0, min(6, Mj))
        rows = rng.sample(range(Mj), n)
        cols = list(rows) if rng.random() < 0.1 else rng.sample(range(Mj), n)
        cases.append((rows, cols, Mj))
    for rows, cols, Mj in cases:
        expected = _brute_bottleneck(rows, cols, Mj)
        assert _separation_radius(rows, cols, Mj) == expected, (rows, cols, Mj)
        if rows == cols:
            assert expected == 0


def _all_shifts_radius(free_rows, free_cols, Mj):
    """The separation radius by trying every cyclic shift of the sorted
    columns against the sorted rows: O(n^2), as `gap` computed it before
    the bisection."""
    rows = np.sort(np.asarray(free_rows, dtype=np.int64))
    cols = np.sort(np.asarray(free_cols, dtype=np.int64))
    best = 0 if rows.size == 0 else Mj
    for k in range(rows.size):
        d = np.abs(rows - np.roll(cols, k))
        best = min(best, int(np.minimum(d, Mj - d).max()))
    return best


def _cheap_plan_free_sets(floor):
    """(free rows, free columns, M_j) of every cheap partial plan on the
    truncated cost (M = 2) of the (5, floor) tower."""
    fam = build_gap_family(build_tower(5, 2, growth_floor=[floor]), 2)
    trunc = materialize_cost(fam, 2, 2)
    Mj = trunc.cost.n_rows
    everything = np.arange(Mj)
    out = []
    for cells, _ in _cheap_partial_plans(fam, trunc):
        rows = np.setdiff1d(everything, [i for i, _ in cells])
        cols = np.setdiff1d(everything, [jj for _, jj in cells])
        out.append((rows, cols, Mj))
    return out


def test_bisected_separation_radius_matches_all_shifts():
    rng = random.Random(20261019)
    cases = [([], [], 1), ([], [], 8), ([], [], 9), ([0], [0], 1), ([3], [7], 8), ([3], [8], 9)]
    for Mj in (1, 2, 7, 8, 155, 156):
        everything = list(range(Mj))  # every row free
        cases.append((everything, everything, Mj))
        cases.append((everything, everything[::-1], Mj))
    for _ in range(1500):
        Mj = rng.randint(1, 120)
        n = rng.randint(0, Mj)
        cases.append((rng.sample(range(Mj), n), rng.sample(range(Mj), n), Mj))
    for floor in (31, 101):
        cases += _cheap_plan_free_sets(floor)
    assert {Mj % 2 for _, _, Mj in cases} == {0, 1}
    for rows, cols, Mj in cases:
        assert _separation_radius(rows, cols, Mj) == _all_shifts_radius(rows, cols, Mj), (
            rows, cols, Mj
        )
