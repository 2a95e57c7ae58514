"""Whole-array formulas that the chunked level kernels replaced.

Each builds its level-sized temporaries in one go, as `otlab` did before
every level pass ran over fixed-size index chunks; the tests compare the
chunked kernels against them at several chunk sizes.  Their arithmetic
is int64 whatever the dtype of the level arrays (int32 in `otlab`), so an
int32 product that wraps cannot agree with them.
"""

from fractions import Fraction

import numpy as np

from otlab.circle import phi_level
from otlab.tau import LevelReport, SingularLedger


def phi_values(tower, n):
    M = tower.modulus(n)
    P = tower.step(n)
    mid = tower.middle_index(n)
    orbit = (np.arange(M, dtype=np.int64) * P) % M
    w = np.where(orbit < mid, 1, np.where(orbit == mid, 0, -1)).astype(np.int64)
    partial = np.empty(M, dtype=np.int64)
    partial[0] = 0
    np.cumsum(w[:-1], out=partial[1:])
    phi = np.empty(M, dtype=np.int64)
    phi[orbit] = partial
    return phi


def sigma_of(tower, n, tau):
    M, P = tower.modulus(n), tower.step(n)
    return (np.arange(M, dtype=np.int64) + tau.astype(np.int64) * P) % M


def is_permutation(sigma):
    return bool((np.bincount(sigma, minlength=sigma.shape[0]) == 1).all())


def avoidance_violations(tau, P_inv, mid):
    M = tau.shape[0]
    tau = tau.astype(np.int64)
    idx = np.arange(M, dtype=np.int64)
    istar = ((mid - idx) * P_inv) % M
    pos = (tau > 0) & (istar <= tau)
    neg = (tau < 0) & (istar >= M + tau)
    zero_mid = (tau != 0) & (idx == mid)
    return np.nonzero(pos | neg | zero_mid)[0]


def changed_mask(level, tower):
    m = tower.primes[level.level - 1]
    return level.tau != np.repeat(level.parent.tau, m)


def level_sigma(level, tower):
    return sigma_of(tower, level.level, level.tau)


def quasi_cost(level, tower):
    phi = phi_level(tower, level.level).values.astype(np.int64)
    return 1 + phi - phi[level_sigma(level, tower)]


def middle1_mask(level, tower):
    M = level.modulus
    span = M // tower.M[0]
    return np.arange(M, dtype=np.int64) // span == tower.middle_index(1)


def singular_ledger(level, tower):
    drop = quasi_cost(level, tower) - 1
    M = level.modulus
    good_dev = int(np.abs(1 - drop[level.good_mask]).sum(dtype=np.int64))
    if level.changed_mask is not None and level.parent is not None:
        m = tower.primes[level.level - 1]
        good_parent_children = np.repeat(level.parent.good_mask, m)
        n_changed = int((level.changed_mask & good_parent_children).sum())
    else:
        n_changed = 0
    return SingularLedger(
        level=level.level,
        singular_mass=Fraction(int(drop[level.singular_mask].sum(dtype=np.int64)), M),
        good_deviation=Fraction(good_dev, M),
        change_measure=Fraction(n_changed, M),
    )


def refinement_deviation(level, tower):
    if level.parent is None:
        return Fraction(0)
    m = tower.primes[level.level - 1]
    drop = quasi_cost(level, tower) - 1
    parent_drop = quasi_cost(level.parent, tower) - 1
    gp_children = np.repeat(level.parent.good_mask, m)
    diff = np.abs(drop - np.repeat(parent_drop, m))[gp_children]
    return Fraction(int(diff.sum(dtype=np.int64)), level.modulus)


def diagnostic(level, tower, grid):
    """(negative_mass, carrier, singular measure, small-set sups, balance)."""
    M = level.modulus
    q = quasi_cost(level, tower)
    neg = np.where(q < 0, q, 0)
    plus = int(np.where(q > 1, q - 1, 0).sum(dtype=np.int64))
    minus = int(np.where(q < 1, 1 - q, 0).sum(dtype=np.int64))
    q_sorted = np.sort(q)
    prefix = np.concatenate([[0], np.cumsum(q_sorted, dtype=np.int64)])
    n_neg = int((q_sorted < 0).sum())
    sup = {}
    for d in grid:
        dM = Fraction(d) * M
        k = int(dM) - 1 if dM.denominator == 1 else int(dM)
        k = min(max(k, 0), n_neg)
        sup[Fraction(d)] = Fraction(-int(prefix[k]), M)
    return (
        Fraction(int(neg.sum(dtype=np.int64)), M),
        Fraction(int((q < 0).sum()), M),
        Fraction(int(level.singular_mask.sum()), M),
        sup,
        plus == minus,
    )


def corrected_pair(level, tower):
    """(phi_corrected, dual value, correction norm)."""
    n = level.level
    M = level.modulus
    P = tower.step(n)
    phi = phi_level(tower, n).values.astype(np.int64)
    psi = 1 - phi
    idx = np.arange(M, dtype=np.int64)
    c_rot = np.full(M, 2, dtype=np.int64)
    c_rot[: tower.middle_index(n)] = 0
    term_diag = np.maximum(phi + psi - 1, 0)
    term_rot = np.maximum(phi + psi[(idx + P) % M] - c_rot, 0)
    term_tau = np.maximum(phi + psi[level_sigma(level, tower)] - quasi_cost(level, tower), 0)
    correction = term_diag + term_rot + term_tau
    phi_corr = phi - correction
    value = Fraction(
        int(phi_corr.sum(dtype=np.int64)) + int(psi.sum(dtype=np.int64)), M
    )
    return phi_corr, value, Fraction(int(correction.sum(dtype=np.int64)), M)


def verify_level(level, tower):
    n = level.level
    M = level.modulus
    bad = avoidance_violations(level.tau, tower.step_inverse(n), tower.middle_index(n))
    sigma = level_sigma(level, tower)
    if level.parent is not None:
        m = tower.primes[n - 1]
        parent_of = np.arange(M, dtype=np.int64) // m
        nesting_ok = bool((sigma // m == level_sigma(level.parent, tower)[parent_of]).all())
    else:
        nesting_ok = True
    mid1 = middle1_mask(level, tower)
    overlap = level.good_mask & level.singular_mask
    partition_ok = bool(
        not overlap.any() and ((level.good_mask | level.singular_mask) ^ mid1).all()
    )
    singular_count = int(level.singular_mask.sum())
    if n == 1:
        singular_count_ok = singular_count == 2
    else:
        singular_count_ok = singular_count < 2 * tower.M[n - 2] ** 2
    if level.parent is not None:
        M_prev = tower.M[n - 2]
        ch = level.changed_mask.reshape(M_prev, tower.primes[n - 1]).sum(axis=1)
        change_ok = bool((ch[level.parent.good_mask] <= M_prev).all())
    else:
        change_ok = True
    drop = quasi_cost(level, tower) - 1
    return LevelReport(
        level=n,
        permutation_ok=is_permutation(sigma),
        middle_avoidance_ok=bad.size == 0,
        nesting_ok=nesting_ok,
        tau_zero_on_middle1=bool((level.tau[mid1] == 0).all()),
        partition_ok=partition_ok,
        singular_count=singular_count,
        singular_count_ok=singular_count_ok,
        change_per_good_parent_ok=change_ok,
        drop_nonpositive_on_singular=bool((drop[level.singular_mask] <= 0).all()),
        refinement_deviation=refinement_deviation(level, tower),
    )
