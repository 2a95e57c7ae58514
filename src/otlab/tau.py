"""Inductive construction of the interval permutations tau_n.

Level 1 shifts the outermost interval to the spot left of the middle
(and mirror-symmetrically on the right) while the bulk drifts one step
the other way; each refinement keeps tau on the interior of good blocks,
re-routes the overflowing boundary sub-blocks into the gaps they leave,
and splits singular blocks into compensating good halves plus a small
singular core thrown into the middle region of the image block.

Displacements are stored as step counts tau(l) with the induced map
sigma(l) = l + tau(l) * P_n (mod M_n).  Wherever a sub-block is assigned
a target, the step count is the unique representative in (-M_n, M_n)
whose full rotation orbit (endpoints included) avoids the middle index;
existence is checked, never assumed.

`TauLevel` is the package's one interval-permutation type: it holds the
construction levels built here and, without good/singular masks, the
cells tau_{n,j} of the gap grid (`gap`), which `extend_tau` refines
column by column with the same keep-and-fill rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .circle import (
    ModulusTower,
    StepFunction,
    csv_blocks,
    index_chunks,
    phi_level,
    quasi_cost_values,
)


class GrowthTooSmall(Exception):
    """The boundary/gap combinatorics of a refinement step do not fit."""


def _avoidance_step(M: int, Pinv: int, mid: int, src: int, dst: int) -> int:
    """Unique step count in (-M, M) from src to dst with a middle-free
    orbit.  Exactly one of the two candidates works when neither endpoint
    is the middle index."""
    t0 = ((dst - src) * Pinv) % M
    if t0 == 0:
        return 0
    istar = ((mid - src) * Pinv) % M
    if istar == 0 or istar == t0:
        raise GrowthTooSmall(
            f"cannot route {src} -> {dst} around the middle index {mid}"
        )
    return t0 if istar > t0 else t0 - M


def _avoidance_violations(tau, P_inv: int, mid: int):
    """Indices whose stored orbit (i = 0..tau or tau..0) hits the middle."""
    M = tau.shape[0]
    bad = [np.zeros(0, dtype=np.int64)]
    for lo, hi in index_chunks(M):
        t = tau[lo:hi]
        istar = mid - np.arange(lo, hi, dtype=np.int64)  # orbit step onto mid
        istar *= P_inv
        istar %= M
        hit = ((t > 0) & (istar <= t)) | ((t < 0) & (istar >= M + t))
        if lo <= mid < hi and t[mid - lo] != 0:
            hit[mid - lo] = True
        bad.append(np.flatnonzero(hit) + lo)
    return np.concatenate(bad)


@dataclass
class SingularLedger:
    """Exact per-level accounting of the construction's mass movements."""

    level: int
    singular_mass: Fraction
    good_deviation: Fraction
    change_measure: Fraction


@dataclass(frozen=True, eq=False)
class TauLevel:
    """A level-n interval permutation of Z/M_nZ.

    tau, sigma are int64 arrays.  Construction levels carry disjoint
    good/singular boolean masks excluding the level-1 middle block, whose
    indices keep tau = 0 at every level; gap-grid cells carry no masks.
    A refined level records its parent and where tau changed against it.
    Every array is read-only.
    """

    level: int
    tau: np.ndarray
    sigma: np.ndarray
    good_mask: Optional[np.ndarray] = None
    singular_mask: Optional[np.ndarray] = None
    changed_mask: Optional[np.ndarray] = None
    parent: Optional["TauLevel"] = None

    def __post_init__(self):
        for arr in (self.tau, self.sigma, self.good_mask, self.singular_mask,
                    self.changed_mask):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def modulus(self) -> int:
        return int(self.tau.shape[0])

    def require_masks(self, what: str):
        """ValueError unless this level carries the good/singular masks of
        a construction level (gap-grid cells carry none)."""
        missing = [k for k in ("good_mask", "singular_mask") if getattr(self, k) is None]
        if missing:
            raise ValueError(
                f"{what} needs a construction level; this level-{self.level} "
                f"permutation has no {' and no '.join(missing)}"
            )

    def good_indices(self):
        return np.nonzero(self.good_mask)[0]

    def singular_indices(self):
        return np.nonzero(self.singular_mask)[0]

    def middle1_block(self, tower: ModulusTower) -> slice:
        """Indices below the level-1 middle interval, a contiguous block."""
        span = self.modulus // tower.M[0]
        mid1 = tower.middle_index(1)
        return slice(mid1 * span, (mid1 + 1) * span)


def sigma_of(tower: ModulusTower, n: int, tau):
    """The induced map sigma(l) = l + tau(l) * P_n (mod M_n)."""
    M, P = tower.modulus(n), tower.step(n)
    sigma = np.empty(M, dtype=np.int64)
    for lo, hi in index_chunks(M):
        s = sigma[lo:hi]
        np.multiply(tau[lo:hi], P, out=s)
        s += np.arange(lo, hi, dtype=np.int64)
        s %= M
    return sigma


def is_permutation(sigma) -> bool:
    """Does sigma map 0..M-1 one-to-one onto itself (M = len(sigma))?
    M images inside 0..M-1 that reach every index are one-to-one."""
    M = sigma.shape[0]
    seen = np.zeros(M, dtype=bool)
    for lo, hi in index_chunks(M):
        s = sigma[lo:hi]
        if s.min() < 0 or s.max() >= M:
            return False
        seen[s] = True
    return bool(seen.all())


def _require_permutation(sigma, what: str):
    if not is_permutation(sigma):
        raise GrowthTooSmall(f"{what} is not a permutation")


def build_tau_level1(tower: ModulusTower) -> TauLevel:
    """The seed permutation: outer blocks jump next to the middle, the
    left bulk steps left, the right bulk steps right, middle fixed."""
    tower.require_level(1)
    M = tower.M[0]
    half = (M - 3) // 2
    mid = tower.middle_index(1)
    tau = np.zeros(M, dtype=np.int64)
    tau[0] = half
    tau[1 : mid] = -1
    tau[mid] = 0
    tau[mid + 1 : M - 1] = 1
    tau[M - 1] = -half

    good = np.zeros(M, dtype=bool)
    good[1:mid] = True
    good[mid + 1 : M - 1] = True
    singular = np.zeros(M, dtype=bool)
    singular[0] = singular[M - 1] = True

    level = TauLevel(1, tau, sigma_of(tower, 1, tau), good, singular)
    _require_permutation(level.sigma, "sigma at level 1")
    bad = _avoidance_violations(tau, tower.step_inverse(1), mid)
    if bad.size:
        raise GrowthTooSmall(f"middle avoidance fails at level 1: {bad[:5]}")
    return level


def extend_tau(prev: TauLevel, tower: ModulusTower) -> TauLevel:
    """Refine a level-(n-1) permutation to level n.

    A parent block keeps its step on the interior and re-routes its
    overflowing boundary sub-blocks onto the gaps at the opposite end of
    the image block (keep-and-fill), unless it is singular with a strict
    potential drop, in which case it splits.  A parent without masks (a
    gap-grid cell) keeps and fills every block and yields a child
    without masks.
    """
    n = prev.level + 1
    tower.require_level(n)
    m = tower.primes[n - 1]
    M = tower.M[n - 1]
    Pinv = tower.step_inverse(n)
    mid = tower.middle_index(n)
    M_prev = tower.M[n - 2]
    phi_prev = phi_level(tower, n - 1).values

    masked = prev.singular_mask is not None
    tau = np.zeros(M, dtype=np.int64)
    good = np.zeros(M, dtype=bool) if masked else None
    singular = np.zeros(M, dtype=bool) if masked else None
    half_sub = (m - 1) // 2

    def fill_gaps(block_lo, srcs, dsts):
        for s, d in zip(srcs, dsts):
            l_src = block_lo + int(s)
            tau[l_src] = _avoidance_step(M, Pinv, mid, l_src, int(d))

    for p in range(M_prev):
        t = int(prev.tau[p])
        q = int(prev.sigma[p])
        lo = p * m
        block = slice(lo, lo + m)
        is_singular_parent = masked and bool(prev.singular_mask[p])
        dphi = int(phi_prev[q]) - int(phi_prev[p]) if is_singular_parent else 0

        if is_singular_parent and dphi < 0:
            raise GrowthTooSmall(
                f"singular parent {p} at level {n - 1} has rising potential"
            )

        if not is_singular_parent or dphi == 0:
            tau[block] = t
            if t > 0:
                fill_gaps(lo, range(m - t, m), range(q * m, q * m + t))
            elif t < 0:
                fill_gaps(lo, range(-t), range(q * m + m + t, q * m + m))
            if masked and (prev.good_mask[p] or is_singular_parent):
                good[block] = True
            continue

        tau_r = t + dphi * M_prev
        tau_l = t - dphi * M_prev
        if tau_r <= 0 or tau_l >= 0 or (-tau_l) + tau_r > m:
            raise GrowthTooSmall(
                f"singular split at level {n} does not fit: "
                f"tau_r={tau_r}, tau_l={tau_l}, m={m}"
            )
        is_sing_sub = np.zeros(m, dtype=bool)
        is_sing_sub[: -tau_l] = True
        is_sing_sub[m - tau_r :] = True
        subs = np.arange(m)
        good_subs = subs[~is_sing_sub]
        right = good_subs >= half_sub
        tau[lo + good_subs[right]] = tau_r
        tau[lo + good_subs[~right]] = tau_l
        covered = np.zeros(m, dtype=bool)
        covered[good_subs[right] + tau_r] = True
        covered[good_subs[~right] + tau_l] = True
        gaps = subs[~covered]
        sing_subs = subs[is_sing_sub]
        if gaps.shape[0] != sing_subs.shape[0]:
            raise GrowthTooSmall(
                f"gap count {gaps.shape[0]} != singular count "
                f"{sing_subs.shape[0]} in parent {p}"
            )
        fill_gaps(lo, sing_subs, q * m + gaps)
        good[lo + good_subs] = True
        singular[lo + sing_subs] = True

    changed = np.empty(M, dtype=bool)
    np.not_equal(tau.reshape(M_prev, m), prev.tau[:, None], out=changed.reshape(M_prev, m))

    level = TauLevel(n, tau, sigma_of(tower, n, tau), good, singular, changed,
                     parent=prev)
    _require_permutation(level.sigma, f"sigma at level {n}")
    bad = _avoidance_violations(tau, Pinv, mid)
    if bad.size:
        raise GrowthTooSmall(
            f"middle avoidance fails at level {n} for {bad.size} indices "
            f"(first: {bad[:5]})"
        )
    return level


def quasi_cost_chunks(level: TauLevel, tower: ModulusTower):
    """(lo, q[lo:hi]) over the index chunks of the level, for the
    quasi-cost q = 1 + phi - phi o sigma; no level-sized array is made."""
    phi = phi_level(tower, level.level).values
    for lo, hi in index_chunks(level.modulus):
        yield lo, quasi_cost_values(phi, level.sigma[lo:hi], lo)


def fold_quasi_cost(level: TauLevel, tower: ModulusTower, *sums):
    """One pass over the quasi-cost chunks of the level: every chunk goes
    to each accumulator's add(lo, q); returns their result()s in order."""
    for lo, q in quasi_cost_chunks(level, tower):
        for s in sums:
            s.add(lo, q)
    return [s.result() for s in sums]


def quasi_cost(level: TauLevel, tower: ModulusTower) -> StepFunction:
    """q(l) = phi(l) + psi(sigma(l)) = 1 + phi(l) - phi(sigma(l))."""
    values = np.empty(level.modulus, dtype=np.int64)
    for lo, q in quasi_cost_chunks(level, tower):
        values[lo : lo + len(q)] = q
    return StepFunction(level.level, values)


def quasi_cost_csv(level: TauLevel, tower: ModulusTower):
    """Byte blocks of the level's quasi-cost CSV artifact, chunk by chunk."""
    return csv_blocks(level.modulus, quasi_cost_chunks(level, tower))


def _changed_per_parent(level: TauLevel, tower: ModulusTower):
    """Number of changed children of each parent index."""
    m = tower.primes[level.level - 1]
    return level.changed_mask.reshape(-1, m).sum(axis=1)


class LedgerSums:
    """Chunk sums of the singular ledger: the potential drop q - 1 over
    the singular set and |1 - drop| over the good set."""

    def __init__(self, level: TauLevel, tower: ModulusTower):
        self.level = level
        self.tower = tower
        self.singular_drop = 0
        self.good_dev = 0

    def add(self, lo: int, q):
        hi = lo + len(q)
        drop = q - 1
        self.singular_drop += int(
            drop[self.level.singular_mask[lo:hi]].sum(dtype=np.int64)
        )
        self.good_dev += int(
            np.abs(1 - drop[self.level.good_mask[lo:hi]]).sum(dtype=np.int64)
        )

    def result(self) -> SingularLedger:
        level = self.level
        M = level.modulus
        n_changed = 0
        if level.changed_mask is not None and level.parent is not None:
            ch = _changed_per_parent(level, self.tower)
            n_changed = int(ch[level.parent.good_mask].sum())
        return SingularLedger(
            level=level.level,
            singular_mass=Fraction(self.singular_drop, M),
            good_deviation=Fraction(self.good_dev, M),
            change_measure=Fraction(n_changed, M),
        )


class RefinementSums:
    """Chunk sums of |drop - parent drop| over the children of good
    parents (zero without a parent): the refinement deviation, the L1
    distance between the potential drop and its parent value, nonzero
    only on re-routed boundary sub-blocks and of order M^2/m at level 2."""

    def __init__(self, level: TauLevel, tower: ModulusTower):
        self.level = level
        self.total = 0
        if level.parent is not None:
            self.m = tower.primes[level.level - 1]
            self.parent_q = quasi_cost(level.parent, tower).values

    def add(self, lo: int, q):
        parent = self.level.parent
        if parent is None:
            return
        parent_of = np.arange(lo, lo + len(q), dtype=np.int64) // self.m
        gp = parent.good_mask[parent_of]
        diff = q[gp] - self.parent_q[parent_of[gp]]  # the drops' -1s cancel
        self.total += int(np.abs(diff).sum(dtype=np.int64))

    def result(self) -> Fraction:
        return Fraction(self.total, self.level.modulus)


def singular_ledger(level: TauLevel, tower: ModulusTower) -> SingularLedger:
    level.require_masks("singular_ledger")
    return fold_quasi_cost(level, tower, LedgerSums(level, tower))[0]


@dataclass
class LevelReport:
    """Machine checks of every construction invariant at one level, and
    its refinement deviation.  The level's singular ledger comes from
    `singular_ledger` or `duals.level_scalars`."""

    level: int
    permutation_ok: bool
    middle_avoidance_ok: bool
    nesting_ok: bool
    tau_zero_on_middle1: bool
    partition_ok: bool
    singular_count: int
    singular_count_ok: bool
    change_per_good_parent_ok: bool
    drop_nonpositive_on_singular: bool
    refinement_deviation: Fraction

    @property
    def hard_invariants_ok(self) -> bool:
        return (
            self.permutation_ok
            and self.middle_avoidance_ok
            and self.nesting_ok
            and self.tau_zero_on_middle1
            and self.partition_ok
            and self.singular_count_ok
            and self.change_per_good_parent_ok
        )


class _LevelChecks:
    """Chunk checks of verify_level: nesting under the parent map, the
    good/singular/middle-block partition, and a non-positive drop on the
    singular set."""

    def __init__(self, level: TauLevel, tower: ModulusTower):
        self.level = level
        self.mid1 = level.middle1_block(tower)
        if level.parent is not None:
            self.m = tower.primes[level.level - 1]
        self.nesting_ok = self.partition_ok = self.drop_nonpositive = True

    def add(self, lo: int, q):
        level = self.level
        hi = lo + len(q)
        good = level.good_mask[lo:hi]
        sing = level.singular_mask[lo:hi]
        mid1 = np.zeros(hi - lo, dtype=bool)
        mid1[max(self.mid1.start - lo, 0) : max(self.mid1.stop - lo, 0)] = True
        self.partition_ok &= bool(
            not (good & sing).any() and ((good | sing) ^ mid1).all()
        )
        self.drop_nonpositive &= bool((q[sing] - 1 <= 0).all())
        if level.parent is not None:
            parent_of = np.arange(lo, hi, dtype=np.int64) // self.m
            self.nesting_ok &= bool(
                (level.sigma[lo:hi] // self.m == level.parent.sigma[parent_of]).all()
            )

    def result(self):
        return self


def verify_level(level: TauLevel, tower: ModulusTower) -> LevelReport:
    """The construction's invariant checks at one level and its
    refinement deviation, from one pass over the quasi-cost chunks (see
    `LevelReport`); the ledger is `singular_ledger`'s."""
    level.require_masks("verify_level")
    n = level.level
    refinement, checks = fold_quasi_cost(
        level, tower, RefinementSums(level, tower), _LevelChecks(level, tower)
    )
    bad = _avoidance_violations(
        level.tau, tower.step_inverse(n), tower.middle_index(n)
    )
    singular_count = int(np.count_nonzero(level.singular_mask))
    if n == 1:
        singular_count_ok = singular_count == 2
    else:
        singular_count_ok = singular_count < 2 * tower.M[n - 2] ** 2

    if level.parent is not None:
        ch = _changed_per_parent(level, tower)
        change_per_good_parent_ok = bool(
            (ch[level.parent.good_mask] <= tower.M[n - 2]).all()
        )
    else:
        change_per_good_parent_ok = True

    return LevelReport(
        level=n,
        permutation_ok=is_permutation(level.sigma),
        middle_avoidance_ok=bad.size == 0,
        nesting_ok=checks.nesting_ok,
        tau_zero_on_middle1=np.count_nonzero(level.tau[level.middle1_block(tower)]) == 0,
        partition_ok=checks.partition_ok,
        singular_count=singular_count,
        singular_count_ok=singular_count_ok,
        change_per_good_parent_ok=change_per_good_parent_ok,
        drop_nonpositive_on_singular=checks.drop_nonpositive,
        refinement_deviation=refinement,
    )


def transport_cost_tau(level: TauLevel, tower: ModulusTower):
    """(total, positive_part, good_part) of the quasi-cost, as exact
    fractions of the uniform measure.  total is always 1; positive_part
    is the plan cost under the clipped cost; good_part is the mass on
    good-and-middle indices that survives refinement."""
    level.require_masks("transport_cost_tau")
    q = quasi_cost(level, tower).values
    M = level.modulus
    total = Fraction(int(q.sum(dtype=np.int64)), M)
    positive = Fraction(int(np.where(q > 0, q, 0).sum(dtype=np.int64)), M)
    keep = level.good_mask.copy()
    keep[level.middle1_block(tower)] = True
    good_part = Fraction(int(q[keep].sum(dtype=np.int64)), M)
    return total, positive, good_part


def build_levels(tower: ModulusTower, depth: int):
    """Levels 1..depth of the construction on the given tower."""
    levels = [build_tau_level1(tower)]
    for _ in range(depth - 1):
        levels.append(extend_tau(levels[-1], tower))
    return levels
