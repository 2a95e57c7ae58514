import math

import pytest

from otlab.circle import (
    TowerError,
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


def test_scan_is_bounded_by_the_index_range_alone():
    t = build_tower(5, 2, growth_floor=[10**7 + 1])
    assert t.primes[1] > 10**7 and t.primes[1] % 5 == 1
    with pytest.raises(TowerError, match="level 2"):
        build_tower(5, 2, growth_floor=[600_000_001])


def test_level_moduli_stop_below_2_31():
    # The level arrays are int32: (5, 430000231) would have M_2 =
    # 2,150,001,155, past 2^31 - 1, while a floor just below still builds.
    with pytest.raises(TowerError, match=r"level 2 .* index range \(2147483647\)"):
        build_tower(5, 2, growth_floor=[430_000_000])
    t = build_tower(5, 2, growth_floor=[429_000_000])
    assert t.primes == (5, 429000181) and t.M[1] == 2_145_000_905


def test_m1_past_the_index_range():
    # 2^32 + 15, the least prime above 2^32
    with pytest.raises(TowerError):
        build_tower(4294967311, 1)


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


@pytest.mark.parametrize("mode", ["relaxed", "paper_compliant"])
@pytest.mark.parametrize("depth", [0, -1])
def test_mode_builder_rejects_depth_below_one(mode, depth):
    with pytest.raises(ValueError, match="depth must be >= 1"):
        build_tower_mode(5, depth, mode)


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


def test_miller_rabin_past_the_first_twelve_prime_bases():
    # psi_12 = 399165290221 * 798330580441, the least strong pseudoprime
    # to every prime base 2..37
    assert not is_probable_prime(318665857834031151167461)


def test_miller_rabin_agrees_with_a_sieve():
    n = 10**5
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n, p)))
    assert [k for k in range(n) if is_probable_prime(k)] == [
        k for k in range(n) if sieve[k]
    ]
