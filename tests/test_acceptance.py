"""Acceptance gate: every criterion at its stated tolerance (exact
rational equality unless a runtime budget is named).  Each test prints
one PASS line; run with `pytest -s tests/test_acceptance.py` to see them.
"""

import itertools
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest

from otlab.circle import build_tower, verify_oscillations
from otlab.duals import level_scalars, singular_buildup, verify_feasibility
from otlab.finite_ot import (
    CostMatrix,
    Marginals,
    check_complementary_slackness,
    is_cyclically_monotone,
    solve_dual,
    solve_primal,
    strong_monotone_potentials,
)
from otlab.gap import (
    build_gap_family,
    gap_demonstration,
    verify_row_map,
    verify_truncated_duality,
)
from otlab.tau import (
    build_levels,
    build_tau_level1,
    quasi_cost,
    singular_ledger,
    transport_cost_tau,
    verify_level,
)


def _ok(num, msg):
    print(f"ACCEPTANCE {num:02d} PASS - {msg}")


@pytest.fixture(scope="module")
def tower_5_11():
    return build_tower(5, 2)


@pytest.fixture(scope="module")
def levels_5_11(tower_5_11):
    return build_levels(tower_5_11, 2)


@pytest.fixture(scope="module")
def tower_5c():
    return build_tower(5, 2, growth_floor=[40 * 5**5 + 1])


@pytest.fixture(scope="module")
def levels_5c(tower_5c):
    return build_levels(tower_5c, 2)


@pytest.fixture(scope="module")
def tower_7c():
    return build_tower(7, 2, growth_floor=[40 * 7**5 + 1])


@pytest.fixture(scope="module")
def levels_7c(tower_7c):
    return build_levels(tower_7c, 2)


@pytest.fixture(scope="module")
def family_5_11(tower_5_11):
    return build_gap_family(tower_5_11, 2)


@pytest.fixture(scope="module")
def family_5_31():
    return build_gap_family(build_tower(5, 2, growth_floor=[31]), 2)


def test_criterion_01_exact_strong_duality():
    rng = random.Random(20260810)
    t0 = time.monotonic()
    for k in range(200):
        n = 2 + k % 11
        cost = CostMatrix(
            [[F(rng.randint(0, 40), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
        )
        if k % 2:
            marg = Marginals.uniform(n)
        else:
            mu = [F(rng.randint(1, 9)) for _ in range(n)]
            nu = [F(rng.randint(1, 9)) for _ in range(n)]
            nu = [v * sum(mu) / sum(nu) for v in nu]
            marg = Marginals(mu, nu)
        plan = solve_primal(cost, marg)
        pair = solve_dual(cost, marg)
        assert plan.value == pair.value
        assert check_complementary_slackness(plan, pair, cost).passed
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    _ok(1, f"primal == dual exactly with slackness on 200 instances, {elapsed:.1f}s")


def test_criterion_02_birkhoff_oracle():
    rng = random.Random(99)
    t0 = time.monotonic()
    for k in range(50):
        n = 2 + k % 5
        cost = CostMatrix(
            [[F(rng.randint(0, 40), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
        )
        plan = solve_primal(cost, Marginals.uniform(n))
        best = min(
            sum((cost[i, p[i]] for i in range(n)), F(0))
            for p in itertools.permutations(range(n))
        )
        assert plan.value == best / n
    elapsed = time.monotonic() - t0
    assert elapsed < 10
    _ok(2, f"solver equals permutation enumeration on 50 instances, {elapsed:.1f}s")


def test_criterion_03_monotonicity_equivalence():
    rng = random.Random(123)
    n = 4
    for _ in range(20):
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
            mono, _ = is_cyclically_monotone(support, cost)
            pair = strong_monotone_potentials(support, cost)
            assert mono == (value == best)
            assert (pair is not None) == mono
    _ok(3, "optimal <=> cyclically monotone <=> potentials exist, 20x24 plans")


def test_criterion_04_level1_construction():
    t0 = time.monotonic()
    for m1 in (5, 7, 11, 13):
        tower = build_tower(m1, 1)
        level = build_tau_level1(tower)
        q = quasi_cost(level, tower)
        vals = q.values
        mid = (m1 - 1) // 2
        assert vals[0] == -(m1 - 5) // 2 and vals[m1 - 1] == -(m1 - 5) // 2
        assert vals[mid] == 1
        good = level.good_mask
        assert (vals[good] == 2).all()
        assert singular_ledger(level, tower).singular_mass == F(-1) + F(3, m1)
        assert q.integral() == 1
    elapsed = time.monotonic() - t0
    assert elapsed < 1
    _ok(4, f"level-1 quasi-costs and masses exact for M1 in {{5,7,11,13}}, {elapsed:.2f}s")


def test_criterion_05_level2_structural(tower_5_11, levels_5_11):
    t0 = time.monotonic()
    l1, l2 = levels_5_11
    rep = verify_level(l2, tower_5_11)
    assert rep.permutation_ok
    assert rep.nesting_ok
    assert rep.middle_avoidance_ok  # all 55 indices
    per_parent = l2.singular_mask.reshape(5, 11).sum(axis=1)
    assert per_parent[0] == 10 and per_parent[4] == 10  # M1*(M1-3) each
    changed = l2.changed_mask.reshape(5, 11).sum(axis=1)
    for p in l1.good_indices():
        assert F(int(changed[p]), 11) <= F(5, 11)  # change measure per good parent
    q = quasi_cost(l2, tower_5_11).values
    sp_good = np.repeat(l1.singular_mask, 11) & l2.good_mask
    assert (q[sp_good] == 1).all()
    elapsed = time.monotonic() - t0
    assert elapsed < 1
    _ok(5, f"level-2 structure on (5,11): permutation/nesting/avoidance/counts, {elapsed:.2f}s")


def test_criterion_06_level2_compliant(tower_5c, levels_5c):
    t0 = time.monotonic()
    m2 = tower_5c.primes[1]
    assert m2 > 40 * 5**5 and m2 % 5 == 1
    osc = verify_oscillations(tower_5c, 2)
    assert osc.neighbor_max <= 100
    assert osc.block_rise_min >= F(m2, 10) - 10 * 5**3
    l2 = levels_5c[1]
    drop = quasi_cost(l2, tower_5c).values - 1
    assert (drop[l2.singular_mask] <= F(-m2, 10) + 20 * 5**4).all()
    mass = singular_ledger(l2, tower_5c).singular_mass
    c_reported = (mass - (F(-1) + F(3, 5))) * m2
    assert mass <= F(-1) + F(3, 5) + c_reported / m2
    assert c_reported <= 40 * 5**4 * 2  # explicit ceiling from the split bound
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    _ok(
        6,
        f"compliant (5,{m2}): oscillation and singular-value bounds, "
        f"mass {mass} (c = {c_reported}), {elapsed:.1f}s",
    )


def test_criterion_07_dual_sequence(tower_5_11, levels_5_11, tower_5c, levels_5c):
    for tower, levels in ((tower_5_11, levels_5_11), (tower_5c, levels_5c)):
        for level in levels:
            s = level_scalars(level, tower)
            assert verify_feasibility(level, tower).passed
            assert s.dual_value + s.correction_norm == 1
            if level.level == 1:
                assert s.dual_value == 1
    _ok(7, "corrected pairs feasible; dual_value + correction_norm == 1 on both towers")


def test_criterion_08_singular_buildup(tower_7c, levels_7c):
    diag1, diag2 = singular_buildup(levels_7c, tower_7c)
    assert diag2.carrier_measure < diag1.carrier_measure
    m2 = tower_7c.primes[1]
    c_reported = (F(1) - F(3, 7) - abs(diag2.negative_mass)) * m2
    assert abs(diag2.negative_mass) >= F(1) - F(3, 7) - c_reported / m2
    assert c_reported <= 40 * 7**4 * 4 + 2 * 4
    t11 = build_tower(11, 1)
    _, positive, _ = transport_cost_tau(build_tau_level1(t11), t11)
    assert positive >= F(3, 2)
    _ok(
        8,
        f"carrier shrinks {diag1.carrier_measure} -> {diag2.carrier_measure} "
        f"while |mass| = {abs(diag2.negative_mass)}; positive part 17/11 >= 3/2",
    )


def test_criterion_09_gap_family(tower_5_11, family_5_11, family_5_31):
    for fam in (family_5_11, family_5_31):
        for (n, j), cell in sorted(fam.grid.items()):
            q = quasi_cost(cell, fam.tower).values
            assert int(q.sum()) == cell.modulus
    r2 = verify_row_map(family_5_11, 2, 2)
    assert r2.displacement_max < F(1, 5)
    r2b = verify_row_map(family_5_31, 2, 2)
    assert r2b.displacement_max < F(1, 5)
    sep = verify_truncated_duality(family_5_11, 2, 2)
    assert sep.primal == 1 and sep.dual == 1
    etas = [family_5_31.eta_closed[n] for n in sorted(family_5_31.eta_closed)]
    assert all(a > b for a, b in zip(etas, etas[1:]))
    _ok(
        9,
        f"grid means one; displacement < 1/M1; P == D == 1 on (5,11); "
        f"eta {etas[0]} > {etas[1]}",
    )


def test_criterion_10_limit_claims_as_trends(
    tower_5c, levels_5c, family_5_31, capsys
):
    # the surviving good mass grows toward 2 with the level; reported
    # against the limit bound, never asserted as a limit
    parts = [transport_cost_tau(level, tower_5c) for level in levels_5c]
    good_trend = [p[2] for p in parts]
    assert parts[1][1] >= parts[0][1]  # clipped cost grows with the level
    assert all(p[0] == 1 for p in parts)  # the exact per-level identity

    # row-map trend: two-valued approximation error per built row,
    # reported beside the halving target it meets on fast towers
    approx_errors = [
        (n, verify_row_map(family_5_31, n, 2).two_valued_error, F(1, 2**n))
        for n in (1, 2)
    ]

    # relaxed-value trend: witness transports of cost zero on mass 1-eta
    report = gap_demonstration(family_5_31, 2, 2)
    assert all(v == "0/1" for v in report["witness_cost"].values())
    assert report["primal"] == "1/1"

    print("  limit claims held as trends, not asserted:")
    print(f"    surviving good mass per level: {[str(g) for g in good_trend]} (limit bound 2 - eps)")
    for n, norm, target in approx_errors:
        print(f"    two-valued approximation error, row {n}: {norm} (target {target} for fast towers)")
    print(f"    witness masses {report['witness_mass']} with zero witness cost; relaxed value -> 0 in the limit")
    _ok(10, "desk-scale trends reported; limit statements not asserted")
