from fractions import Fraction as F

import numpy as np
import pytest

from otlab.circle import (
    build_tower,
    build_tower_mode,
    phi_level,
    quasi_cost_values,
    verify_oscillations,
)


@pytest.fixture(scope="module")
def tower():
    return build_tower(5, 2)


def _rotation_towers():
    towers = [build_tower(m1, 2) for m1 in (5, 7, 11, 13)]
    towers += [build_tower_mode(m1, 2, "paper_compliant") for m1 in (5, 7, 11)]
    towers += [build_tower(5, 3, growth_floor=[11, 1000]), build_tower(7, 3)]
    return towers


def test_rotate_level1_steps_one_interval(tower):
    # one level-1 rotation step is one interval: P_1 = 1
    for k in range(5):
        assert (k + tower.step(1)) % tower.modulus(1) == (k + 1) % 5
    for t in _rotation_towers():
        assert t.step(1) == 1


def test_rotate_shift_identities(tower):
    # M_1 rotation steps shift by M_1 indices; m_2 - 2 steps shift by -2.
    # Both follow from P_2 = m_2 + 1 and m_2 = 1 (mod m_1); the first holds
    # at every level j >= 2 as M_{j-1} P_j = M_{j-1} (mod M_j), since
    # P_j = P_{j-1} m_j + 1.
    M2, P2 = tower.modulus(2), tower.step(2)
    assert (30 + 5 * P2) % M2 == 35
    assert (30 + 9 * P2) % M2 == 28
    for t in _rotation_towers():
        M2, m2, P2 = t.modulus(2), t.primes[1], t.step(2)
        assert (m2 - 2) * P2 % M2 == M2 - 2
        for j in range(2, t.depth + 1):
            M_prev, M_j = t.modulus(j - 1), t.modulus(j)
            assert M_prev * t.step(j) % M_j == M_prev


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


def test_phi_integral_two_ways(tower):
    # orbit-order partial sums vs index-order summation agree
    phi = phi_level(tower, 2)
    orbit = (np.arange(55, dtype=np.int64) * tower.P[1]) % 55
    by_orbit = sum(int(phi.values[l]) for l in orbit)
    assert F(by_orbit, 55) == phi.integral()


def test_one_step_quasi_cost_sides():
    # phi(l + P) = phi(l) + w(l) on every level, so the one-step
    # quasi-cost 1 + phi - phi(. + P) is 1 - w: 0 on L^n, 1 on the middle
    # interval, 2 on R^n
    towers = [
        build_tower(5, 2),
        build_tower(7, 2),
        build_tower(5, 3, growth_floor=[11, 1000]),
        build_tower_mode(5, 2, "paper_compliant"),
    ]
    for tower in towers:
        for n in range(1, tower.depth + 1):
            M, mid = tower.modulus(n), tower.middle_index(n)
            rot = (np.arange(M, dtype=np.int64) + tower.step(n)) % M
            q = quasi_cost_values(phi_level(tower, n).values, rot)
            assert (q[:mid] == 0).all()
            assert q[mid] == 1
            assert (q[mid + 1 :] == 2).all()
            assert int(q.sum()) == M


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
