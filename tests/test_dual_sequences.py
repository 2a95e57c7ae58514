from fractions import Fraction as F

import pytest

from otlab.circle import build_tower, phi_level
from otlab.duals import (
    default_delta_grid,
    level_scalars,
    singular_buildup,
    verify_feasibility,
)
from otlab.tau import build_levels, build_tau_level1, singular_ledger, verify_level


@pytest.fixture(scope="module")
def tower():
    return build_tower(5, 2)


@pytest.fixture(scope="module")
def levels(tower):
    return build_levels(tower, 2)


def test_corrections_vanish(tower, levels):
    # the raw pair already meets all three graph constraints exactly;
    # the correction is >= 0 index by index, so a zero norm means the
    # corrected phi is the raw one
    for level in levels:
        assert level_scalars(level, tower).correction_norm == 0


def test_dual_value_identity(tower, levels):
    for level in levels:
        s = level_scalars(level, tower)
        assert s.dual_value + s.correction_norm == 1
        assert s.dual_value == 1


def test_feasibility_exact(tower, levels):
    for level in levels:
        rep = verify_feasibility(level, tower)
        assert rep.passed
        # equality holds on the full index set off the correction support
        assert rep.equality_measure == 1


def test_feasibility_negative_control(tower, levels):
    bumped = phi_level(tower, 2).values.copy()
    bumped[3] += 1
    rep = verify_feasibility(levels[1], tower, phi=bumped)
    assert not rep.passed
    assert 3 in rep.diag_violations


def test_refinement_deviation_decays_with_growth():
    # the boundary re-routing deviation scales like M^2/m_2, while the
    # whole-good-set deviation tends to the 2/M_1 mass of the flattened
    # singular-parent children
    t_small = build_tower(5, 2, growth_floor=[11])
    t_big = build_tower(5, 2, growth_floor=[1000])
    dev, bound, whole = [], [], []
    for t in (t_small, t_big):
        l2 = build_levels(t, 2)[1]
        rep = verify_level(l2, t)
        dev.append(rep.refinement_deviation)
        bound.append(F(4 * 25, t.primes[1]))
        whole.append(singular_ledger(l2, t).good_deviation)
    assert dev[1] < dev[0]
    assert dev[0] < bound[0] and dev[1] < bound[1]
    assert abs(whole[1] - F(2, 5)) < F(1, 50)


def test_diagnostics_level1_m11():
    t = build_tower(11, 1)
    diag = singular_buildup([build_tau_level1(t)], t)[0]
    assert diag.negative_mass == F(-6, 11)
    assert diag.carrier_measure == F(2, 11)
    assert diag.singular_set_measure == F(2, 11)
    assert diag.mass_balance_ok


def test_diagnostics_level1_m5(tower, levels):
    diag = singular_buildup(levels[:1], tower)[0]
    # at M1 = 5 the quasi-cost never goes negative: empty carrier
    assert diag.negative_mass == 0
    assert diag.carrier_measure == 0
    assert diag.singular_set_measure == F(2, 5)


def test_diagnostics_level2(tower, levels):
    d1, d2 = singular_buildup(levels, tower)
    assert d2.negative_mass == F(-4, 55)
    assert d2.carrier_measure == F(4, 55)
    assert d2.singular_set_measure == F(20, 55)
    assert d2.mass_balance_ok
    # the small-set suprema are monotone in delta and exhaust the mass
    sups = [d2.small_set_sup[d] for d in sorted(d2.small_set_sup, reverse=True)]
    assert all(a >= b for a, b in zip(sups, sups[1:]))
    assert max(sups) == -d2.negative_mass


def test_delta_grid_shape():
    grid = default_delta_grid(55)
    assert grid[0] == F(1, 2)
    assert all(a / 2 == b for a, b in zip(grid, grid[1:]))
    assert grid[-1] >= F(2, 55)
