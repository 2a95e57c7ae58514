from fractions import Fraction as F

import numpy as np
import pytest

from otlab.circle import (
    CircleIndex,
    build_tower,
    half_partition,
    one_step_quasi_cost,
    orbit_visit_balance,
    phi_level,
    psi_level,
    rotate,
    verify_oscillations,
)


@pytest.fixture(scope="module")
def tower():
    return build_tower(5, 2)


def test_rotate_identity_and_full_cycle(tower):
    x = CircleIndex(2, 17)
    assert rotate(tower, x, 0) == x
    assert rotate(tower, x, 55) == x


def test_rotate_level1_steps_one_interval(tower):
    for k in range(5):
        assert rotate(tower, CircleIndex(1, k), 1).index == (k + 1) % 5


def test_rotate_shift_identities(tower):
    # M_1 rotation steps shift by M_1 indices; m_2 - 2 steps shift by -2
    x = CircleIndex(2, 30)
    assert rotate(tower, x, 5).index == 35
    assert rotate(tower, x, 9).index == 28


def test_orbit_visit_balance_examples(tower):
    assert orbit_visit_balance(tower, CircleIndex(1, 0), 0) == (0, 0, 0)
    assert orbit_visit_balance(tower, CircleIndex(1, 0), 2) == (2, 0, 0)
    # full orbit: equal halves, middle exactly once
    assert orbit_visit_balance(tower, CircleIndex(1, 0), 5) == (2, 2, 1)
    assert orbit_visit_balance(tower, CircleIndex(2, 12), 55) == (27, 27, 1)


def test_orbit_negative_window(tower):
    # steps < 0 is the window {steps+1, ..., 0}
    l, r, m = orbit_visit_balance(tower, CircleIndex(1, 2), -1)
    assert (l, r, m) == (0, 0, 1)


def test_orbit_step_bound(tower):
    with pytest.raises(ValueError):
        orbit_visit_balance(tower, CircleIndex(1, 0), 6)


@pytest.mark.parametrize(
    "m1,expected",
    [
        (5, [0, 1, 2, 2, 1]),
        (11, [0, 1, 2, 3, 4, 5, 5, 4, 3, 2, 1]),
    ],
)
def test_phi_level1_patterns(m1, expected):
    t = build_tower(m1, 1)
    assert list(phi_level(t, 1).values) == expected


def test_phi_anchor_and_spread(tower):
    for n in (1, 2):
        phi = phi_level(tower, n)
        assert phi[0] == 0
        vals = phi.values
        assert int(vals.max() - vals.min()) <= (tower.M[n - 1] - 1) // 2


def test_psi_complement(tower):
    phi = phi_level(tower, 2).values
    psi = psi_level(tower, 2).values
    assert ((phi + psi) == 1).all()
    total = F(int(phi.sum()), 55) + F(int(psi.sum()), 55)
    assert total == 1


def test_phi_integral_two_ways(tower):
    # orbit-order partial sums vs index-order summation agree
    phi = phi_level(tower, 2)
    orbit = (np.arange(55, dtype=np.int64) * tower.P[1]) % 55
    by_orbit = sum(int(phi.values[l]) for l in orbit)
    assert F(by_orbit, 55) == phi.integral()


def test_one_step_quasi_cost_sides(tower):
    for n in (1, 2):
        q = one_step_quasi_cost(tower, n).values
        part = half_partition(tower, n)
        mid = part.middle
        assert (q[:mid] == 0).all()
        assert q[mid] == 1
        assert (q[mid + 1 :] == 2).all()
        assert int(q.sum()) == tower.M[n - 1]


def test_half_partition_weights(tower):
    part = half_partition(tower, 1)
    assert [part.weight(i) for i in range(5)] == [1, 1, 0, -1, -1]
    assert part.middle == 2


def test_oscillation_report_level2(tower):
    rep = verify_oscillations(tower, 2)
    assert rep.neighbor_bound == 100
    assert rep.neighbor_max <= 100
    assert rep.visit_balance_bound == 20
    assert rep.visit_balance_max <= 20
    # relaxed tower: the signed block-rise bound is reported, not binding
    assert rep.block_rise_bound == F(11, 10) - 1250


def test_oscillations_need_level_two(tower):
    with pytest.raises(ValueError):
        verify_oscillations(tower, 1)


def test_step_function_csv(tower):
    csv = phi_level(tower, 1).to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "index,left_endpoint,value"
    assert lines[1] == "0,0/1,0/1"
    assert lines[3] == "2,2/5,2/1"
    assert len(lines) == 6


def test_circle_index_refine(tower):
    block = CircleIndex(1, 3).refine(tower)
    assert list(block) == list(range(33, 44))


def test_running_count_value(tower):
    from otlab.circle import running_count_value

    # matches the step-function increment: 1 + L - R over the window
    assert running_count_value(tower, CircleIndex(1, 0), 2) == 3
    assert running_count_value(tower, CircleIndex(1, 3), 1) == 0
    assert running_count_value(tower, CircleIndex(1, 0), 0) == 1
