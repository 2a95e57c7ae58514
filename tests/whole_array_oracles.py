"""Whole-array formulas that the run-based level kernels replaced.

Each builds its level-sized temporaries in one go, as `otlab` did before
a level was held as runs; the tests compare the kernels against them.
Their arithmetic is int64 whatever the dtype of the level arrays (int32
in `otlab`), so an int32 product that wraps cannot agree with them.
`construction_arrays` builds the levels index by index, as
`tau.extend_tau` did while it wrote whole arrays, and `csv_rows` renders
a level's CSV from the whole array, row by row in one block.
"""

from fractions import Fraction

import numpy as np

from otlab import circle
from otlab.circle import phi_level
from otlab.tau import GrowthTooSmall, LevelReport, SingularLedger


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


def csv_rows(values):
    """The bytes of the CSV of the whole array values, every row rendered
    by `circle._csv_rows` in one block: no super-rows and no block cuts."""
    M = len(values)
    return circle._CSV_HEADER + circle._csv_rows(M, 0, values, circle._prime_powers(M))


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


def transport_cost_tau(level, tower):
    """(total, positive part, good-and-middle part) of the quasi-cost."""
    M = level.modulus
    q = quasi_cost(level, tower)
    keep = level.good_mask | middle1_mask(level, tower)
    return (
        Fraction(int(q.sum()), M),
        Fraction(int(np.maximum(q, 0).sum()), M),
        Fraction(int(q[keep].sum()), M),
    )


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


def _avoidance_step(M, Pinv, mid, src, dst):
    """The step count in (-M, M) from src to dst whose orbit avoids the
    middle index."""
    t0 = ((dst - src) * Pinv) % M
    if t0 == 0:
        return 0
    istar = ((mid - src) * Pinv) % M
    if istar == 0 or istar == t0:
        raise GrowthTooSmall(f"cannot route {src} -> {dst} around the middle index {mid}")
    return t0 if istar > t0 else t0 - M


def _shuffle_block(tau, lo, dst, steps, movers, M, Pinv, mid):
    """Sub-block s takes steps[s]; the movers fill the positions of the
    image block that the others leave uncovered, in order."""
    m = len(steps)
    tau[lo : lo + m] = steps
    stay = np.ones(m, dtype=bool)
    stay[movers] = False
    covered = np.zeros(m, dtype=bool)
    covered[np.flatnonzero(stay) + steps[stay]] = True
    gaps = np.flatnonzero(~covered)
    assert gaps.shape[0] == len(movers)
    for s, d in zip(movers, gaps):
        tau[lo + s] = _avoidance_step(M, Pinv, mid, lo + int(s), dst + int(d))


def outward_shuffle(tower, n):
    m = tower.primes[n - 1]
    M = tower.M[n - 1]
    M_prev = tower.M[n - 2] if n >= 2 else 1
    steps = np.sign(np.arange(m) - (m - 1) // 2) * M_prev
    movers = np.r_[0:M_prev, m - M_prev : m]
    Pinv, mid = tower.step_inverse(n), tower.middle_index(n)
    tau = np.empty(M, dtype=np.int64)
    for lo in range(0, M, m):
        _shuffle_block(tau, lo, lo, steps, movers, M, Pinv, mid)
    return tau


def construction_arrays(tower, depth):
    """(tau, good, singular, changed) of construction levels 1..depth as
    whole arrays (changed is None at level 1), refined by keep-and-fill
    and the singular splits, with each parent's drop read from a whole
    phi."""
    M1 = tower.M[0]
    good = np.ones(M1, dtype=bool)
    good[[0, tower.middle_index(1), M1 - 1]] = False
    singular = np.zeros(M1, dtype=bool)
    singular[[0, M1 - 1]] = True
    levels = [(outward_shuffle(tower, 1), good, singular, None)]
    for n in range(2, depth + 1):
        prev_tau, prev_good, prev_singular, _ = levels[-1]
        m, M, M_prev = tower.primes[n - 1], tower.M[n - 1], tower.M[n - 2]
        Pinv, mid = tower.step_inverse(n), tower.middle_index(n)
        sigma_prev = sigma_of(tower, n - 1, prev_tau)
        phi_prev = phi_level(tower, n - 1).values.astype(np.int64)
        tau = np.zeros(M, dtype=np.int64)
        good = np.zeros(M, dtype=bool)
        singular = np.zeros(M, dtype=bool)
        right_half = np.arange(m) >= (m - 1) // 2
        for p in range(M_prev):
            t, q, lo = int(prev_tau[p]), int(sigma_prev[p]), p * m
            split = bool(prev_singular[p])
            dphi = int(phi_prev[q] - phi_prev[p]) if split else 0
            if dphi == 0:
                tau[lo : lo + m] = t
                wrap = t - m if t > 0 else t + m
                for s in range(m - t, m) if t > 0 else range(-t):
                    tau[lo + s] = _avoidance_step(M, Pinv, mid, lo + s, q * m + s + wrap)
                if prev_good[p] or split:
                    good[lo : lo + m] = True
                continue
            tau_r, tau_l = t + dphi * M_prev, t - dphi * M_prev
            if tau_r <= 0 or tau_l >= 0 or -tau_l + tau_r > m:
                raise GrowthTooSmall("singular split does not fit")
            core = np.r_[0:-tau_l, m - tau_r : m]
            _shuffle_block(tau, lo, q * m, np.where(right_half, tau_r, tau_l), core, M, Pinv, mid)
            good[lo - tau_l : lo + m - tau_r] = True
            singular[lo + core] = True
        levels.append((tau, good, singular, tau != np.repeat(prev_tau, m)))
    return levels
