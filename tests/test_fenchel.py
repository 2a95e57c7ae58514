import random
from fractions import Fraction as F

import pytest

from otlab.finite_ot import CostMatrix, DimensionMismatch, fenchel_value
from otlab.rational import INF, is_inf


def random_cost(rng, n):
    return CostMatrix(
        [[F(rng.randint(0, 12), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
    )


def test_zero_margins_give_zero():
    cost = CostMatrix([[1, 2], [3, 4]])
    assert fenchel_value([0, 0], [0, 0], cost) == 0


def test_unequal_sums_infinite():
    cost = CostMatrix([[1, 2], [3, 4]])
    assert is_inf(fenchel_value([1, 0], [0, 2], cost))


@pytest.mark.parametrize("f", [[1], [2]], ids=["equal_totals", "unequal_totals"])
def test_margins_that_do_not_fit_raise(f):
    # the shape is checked before the totals, so both raise
    cost = CostMatrix([[1, 2], [3, 4]])
    with pytest.raises(DimensionMismatch):
        fenchel_value(f, [1, 1], cost)


def test_no_finite_coupling_infinite():
    cost = CostMatrix([[INF, INF], [1, 1]])
    assert is_inf(fenchel_value([1, 1], [1, 1], cost))


def test_positive_homogeneity_exact():
    rng = random.Random(17)
    n = 3
    cost = random_cost(rng, n)
    f = [F(rng.randint(1, 5)) for _ in range(n)]
    g = list(f)
    base = fenchel_value(f, g, cost)
    for lam in (F(2), F(1, 3)):
        scaled = fenchel_value([lam * v for v in f], [lam * v for v in g], cost)
        assert scaled == lam * base


def test_midpoint_convexity_sampled(repeat=10):
    rng = random.Random(23)
    n = 3
    cost = random_cost(rng, n)
    for _ in range(repeat):
        f1 = [F(rng.randint(0, 5)) for _ in range(n)]
        f2 = [F(rng.randint(0, 5)) for _ in range(n)]
        g1 = [F(rng.randint(0, 5)) for _ in range(n)]
        g2 = [F(rng.randint(0, 5)) for _ in range(n)]
        # balance the column sums to the row sums
        s1, s2 = sum(f1), sum(f2)
        t1, t2 = sum(g1), sum(g2)
        if t1 == 0 or t2 == 0:
            continue
        g1 = [v * s1 / t1 for v in g1]
        g2 = [v * s2 / t2 for v in g2]
        v1 = fenchel_value(f1, g1, cost)
        v2 = fenchel_value(f2, g2, cost)
        mid = fenchel_value(
            [(a + b) / 2 for a, b in zip(f1, f2)],
            [(a + b) / 2 for a, b in zip(g1, g2)],
            cost,
        )
        assert mid <= (v1 + v2) / 2
