import math

import pytest

from otlab.circle import (
    SearchCapExceeded,
    TowerTooShallow,
    build_tower,
    build_tower_mode,
    is_probable_prime,
)


def test_depth_one():
    t = build_tower(7, 1)
    assert t.primes == (7,) and t.M == (7,) and t.P == (1,)
    assert math.gcd(t.P[0], t.M[0]) == 1


def test_depth_two_smallest():
    t = build_tower(5, 2, growth_floor=[7])
    assert t.primes == (5, 11)
    assert t.M == (5, 55)
    assert t.P == (1, 12)
    assert math.gcd(12, 55) == 1
    assert t.mode == "relaxed"


def test_depth_three_congruences():
    t = build_tower(5, 3, growth_floor=[7, 13])
    assert t.primes == (5, 11, 89)
    assert t.M[2] == 4895 and t.P[2] == 1069
    assert math.gcd(1069, 4895) == 1
    # congruence scheme: +1 mod previous, -1 mod the earlier ones
    assert t.primes[1] % t.primes[0] == 1
    assert t.primes[2] % t.primes[1] == 1
    assert t.primes[2] % t.primes[0] == t.primes[0] - 1


def test_numerator_recurrence():
    t = build_tower(5, 3, growth_floor=[7, 13])
    for j in range(1, t.depth):
        assert t.P[j] == t.P[j - 1] * t.primes[j] + 1


@pytest.mark.parametrize("bad", [4, 3, 2, 9, 15])
def test_m1_must_be_odd_prime_at_least_5(bad):
    with pytest.raises(ValueError):
        build_tower(bad, 1)


def test_search_cap_exceeded(monkeypatch):
    monkeypatch.setenv("TDL_SEARCH_CAP", "8")
    with pytest.raises(SearchCapExceeded):
        build_tower(5, 2)


def test_growth_floor_monotonicity_enforced():
    with pytest.raises(ValueError):
        build_tower(5, 3, growth_floor=[100, 7])


def test_compliant_mode_flag():
    t = build_tower_mode(5, 2, "paper_compliant")
    assert t.mode == "paper_compliant"
    assert t.primes[1] > 40 * 5**5
    assert t.primes[1] % 5 == 1
    # smallest qualifying prime above the threshold
    m2 = t.primes[1]
    for cand in range(40 * 5**5 + 1, m2):
        assert not (cand % 5 == 1 and is_probable_prime(cand))


def test_level_bounds():
    t = build_tower(5, 2)
    with pytest.raises(TowerTooShallow):
        t.alpha(3)
    assert t.alpha(2).numerator == 12


def test_miller_rabin_spot_checks():
    primes = [5, 7, 11, 89, 125101, 672323]
    composites = [1, 4, 9, 15, 125011, 125001]
    assert all(is_probable_prime(p) for p in primes)
    assert not any(is_probable_prime(c) for c in composites)
