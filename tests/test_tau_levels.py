from fractions import Fraction as F

import numpy as np
import pytest

from otlab.circle import build_tower
from otlab.tau import (
    GrowthTooSmall,
    TauLevel,
    build_levels,
    build_tau_level1,
    extend_tau,
    quasi_cost,
    shuffle_block,
    sigma_of,
    singular_ledger,
    transport_cost_tau,
    verify_level,
)


@pytest.fixture(scope="module")
def tower():
    return build_tower(5, 2)


@pytest.fixture(scope="module")
def levels(tower):
    return build_levels(tower, 2)


def test_level1_pattern_m5(tower):
    l1 = build_tau_level1(tower)
    assert list(l1.tau) == [1, -1, 0, 1, -1]
    assert list(l1.good_indices()) == [1, 3]
    assert list(l1.singular_indices()) == [0, 4]


@pytest.mark.parametrize("m1", [5, 7, 11, 13, 31])
def test_level1_pattern(m1):
    """The closed form of level 1: the outer intervals jump (M-3)/2 steps
    to the middle's neighbours, the bulk steps one interval outward."""
    t = build_tower(m1, 1)
    l1 = build_tau_level1(t)
    M, mid, half = m1, (m1 - 1) // 2, (m1 - 3) // 2
    assert l1.tau[0] == half and l1.tau[M - 1] == -half
    assert (l1.tau[1:mid] == -1).all()
    assert l1.tau[mid] == 0
    assert (l1.tau[mid + 1 : M - 1] == 1).all()
    assert list(l1.good_indices()) == [*range(1, mid), *range(mid + 1, M - 1)]
    assert list(l1.singular_indices()) == [0, M - 1]


def test_shuffle_block_refuses_a_gap_count_unlike_the_mover_count():
    # sub-blocks 1..6 stay at the steps -1, -1, 0, 0, -1, 0 and cover
    # positions 0, 1, 3, 4, 4 and 6, which leaves two positions (2 and 5)
    # for the one mover
    stays = [(1, 3, -1), (3, 5, 0), (5, 6, -1), (6, 7, 0)]
    with pytest.raises(GrowthTooSmall, match="2 uncovered positions for 1 movers"):
        shuffle_block(0, 0, 7, stays, [(0, 1)])
    # with sub-block 5 at step 0 as well, position 5 is covered and left
    # to the mover: sub-block 0 of the block at 14 goes to position 2 of
    # the image block at 21
    stays[2] = (5, 6, 0)
    assert shuffle_block(14, 21, 7, stays, [(0, 1)]) == (
        [(15, -1), (17, 0), (19, 0), (20, 0)], [14], [23]
    )


@pytest.mark.parametrize("m1", [5, 7, 11, 13])
def test_level1_sigma_is_permutation(m1):
    t = build_tower(m1, 1)
    l1 = build_tau_level1(t)
    assert sorted(sigma_of(t, 1, l1.tau).tolist()) == list(range(m1))


@pytest.mark.parametrize(
    "m1,expected_q",
    [(5, [0, 2, 1, 2, 0]), (11, [-3, 2, 2, 2, 2, 1, 2, 2, 2, 2, -3])],
)
def test_level1_quasi_cost(m1, expected_q):
    t = build_tower(m1, 1)
    q = quasi_cost(build_tau_level1(t), t)
    assert list(q.values) == expected_q
    assert q.integral() == 1


@pytest.mark.parametrize("m1", [5, 7, 11, 13])
def test_level1_singular_mass(m1):
    t = build_tower(m1, 1)
    assert singular_ledger(build_tau_level1(t), t).singular_mass == F(-1) + F(3, m1)


def test_level2_hard_invariants(tower, levels):
    rep = verify_level(levels[1], tower)
    assert rep.permutation_ok
    assert rep.middle_avoidance_ok
    assert rep.nesting_ok
    assert rep.tau_zero_on_middle1
    assert rep.partition_ok
    assert rep.change_per_good_parent_ok
    assert rep.singular_count_ok


def test_level2_singular_counts(tower, levels):
    l2 = levels[1]
    m1 = 5
    per_parent = l2.singular_mask.reshape(m1, 11).sum(axis=1)
    # the two singular parents carry M1*(M1-3) singular children each
    assert per_parent.tolist() == [10, 0, 0, 0, 10]
    assert int(l2.singular_mask.sum()) == 2 * m1 * (m1 - 3)


def test_level2_change_bound_per_good_parent(tower, levels):
    l2 = levels[1]
    counts = l2.changed_mask.reshape(5, 11).sum(axis=1)
    for p in levels[0].good_indices():
        assert counts[p] <= 5  # at most M_1 re-routed children per good parent


def test_level2_quasi_cost_structure(tower, levels):
    l1, l2 = levels
    q = quasi_cost(l2, tower).values
    assert int(q.sum()) == 55
    gp_children = np.repeat(l1.good_mask, 11)
    sp_children = np.repeat(l1.singular_mask, 11)
    # unchanged children of good parents keep the parent value 2
    keep = gp_children & ~l2.changed_mask
    assert (q[keep] == 2).all()
    # good children of singular parents sit exactly at 1
    sp_good = sp_children & l2.good_mask
    assert int(sp_good.sum()) == 2
    assert (q[sp_good] == 1).all()
    # singular children never exceed 1
    assert (q[l2.singular_mask] <= 1).all()


def test_level2_mass_balance(tower, levels):
    q = quasi_cost(levels[1], tower).values
    plus = int(np.where(q > 1, q - 1, 0).sum())
    minus = int(np.where(q < 1, 1 - q, 0).sum())
    assert plus == minus


def test_level2_singular_mass_value(tower, levels):
    mass = singular_ledger(levels[1], tower).singular_mass
    assert mass == F(-4, 11)
    assert mass <= 0


def test_ledger_values(tower, levels):
    led = singular_ledger(levels[1], tower)
    assert led.change_measure == F(2, 55)
    assert led.good_deviation == F(4, 55)
    assert led.singular_mass == F(-4, 11)


def test_transport_cost_parts(tower, levels):
    t1 = transport_cost_tau(levels[0], tower)
    assert t1 == (1, 1, 1)
    total, positive, good_part = transport_cost_tau(levels[1], tower)
    assert total == 1
    assert positive == F(59, 55)
    assert positive - total == F(4, 55)  # the singular build-up


def test_transport_cost_m11_level1():
    t = build_tower(11, 1)
    total, positive, good_part = transport_cost_tau(build_tau_level1(t), t)
    assert total == 1
    assert positive == F(17, 11)
    assert positive >= F(3, 2)


def test_corrupted_tau_detected(tower, levels):
    l2 = levels[1]
    tau = l2.tau.copy()
    tau.setflags(write=True)
    tau[7] += 1  # collide two images
    broken = TauLevel(
        2, tau, l2.good_mask.copy(), l2.singular_mask.copy(),
        l2.changed_mask.copy(), parent=levels[0],
    )
    rep = verify_level(broken, tower)
    assert not rep.permutation_ok


def test_deeper_tower_builds_level3():
    t = build_tower(5, 3, growth_floor=[11, 1000])
    lvls = build_levels(t, 3)
    rep = verify_level(lvls[2], t)
    assert rep.permutation_ok
    assert rep.nesting_ok
    assert rep.middle_avoidance_ok
    assert rep.tau_zero_on_middle1
    assert rep.partition_ok
    assert quasi_cost(lvls[2], t).integral() == 1


def test_extend_requires_depth(tower, levels):
    with pytest.raises(Exception):
        extend_tau(levels[1], tower)  # depth-2 tower has no level 3


def test_level1_verify_all_checks(tower, levels):
    rep = verify_level(levels[0], tower)
    assert rep.hard_invariants_ok
    assert rep.singular_count == 2
    assert rep.drop_nonpositive_on_singular
    assert rep.refinement_deviation == 0
