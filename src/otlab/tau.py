"""Inductive construction of the interval permutations tau_n.

One router moves the sub-blocks of a block (`shuffle_block`): the
staying sub-blocks take their step counts, and the movers fill the
positions those leave uncovered in the image block, in order.  Level 1
is the outward shuffle at scale 1 (`outward_shuffle`, which also gives
the gap grid's diagonal seeds): the outermost intervals move next to the
middle while the bulk steps one interval outward.  Each refinement keeps
tau on the interior of good blocks, wraps the overflowing boundary
sub-blocks round into the gaps they leave, and routes each singular
block as compensating good halves plus a small singular core thrown
into the middle region of the image block.

Displacements are stored as step counts tau(l); the induced map
sigma(l) = l + tau(l) * P_n (mod M_n) is not stored but computed from tau
one index chunk at a time (`sigma_chunks`).  Wherever a sub-block is assigned
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


def _avoidance_hits(t, lo: int, M: int, P_inv: int, mid: int):
    """Indices lo, lo+1, ... of the tau chunk t whose stored orbit
    (i = 0..tau or tau..0) hits the middle index of Z/MZ."""
    hi = lo + len(t)
    istar = mid - np.arange(lo, hi, dtype=np.int64)  # orbit step onto mid
    istar *= P_inv
    istar %= M
    hit = ((t > 0) & (istar <= t)) | ((t < 0) & (istar - M >= t))
    if lo <= mid < hi and t[mid - lo] != 0:
        hit[mid - lo] = True
    return np.flatnonzero(hit) + lo


@dataclass
class SingularLedger:
    """Exact per-level accounting of the construction's mass movements."""

    level: int
    singular_mass: Fraction
    good_deviation: Fraction
    change_measure: Fraction


@dataclass(frozen=True, eq=False)
class TauLevel:
    """A level-n interval permutation of Z/M_nZ, held by its step counts.

    tau is an int32 array; the map sigma it induces is computed from it
    chunk by chunk (`sigma_chunks`), never stored.  Construction levels
    carry disjoint good/singular boolean masks excluding the level-1
    middle block, whose indices keep tau = 0 at every level; gap-grid
    cells carry no masks.  A refined level records its parent and where
    tau changed against it.  Every array is read-only.
    """

    level: int
    tau: np.ndarray
    good_mask: Optional[np.ndarray] = None
    singular_mask: Optional[np.ndarray] = None
    changed_mask: Optional[np.ndarray] = None
    parent: Optional["TauLevel"] = None

    def __post_init__(self):
        for arr in (self.tau, self.good_mask, self.singular_mask, self.changed_mask):
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


def sigma_chunk(tower: ModulusTower, n: int, tau, lo: int, hi: int, out=None):
    """The induced map sigma(l) = l + tau(l) * P_n (mod M_n) on the
    indices lo..hi-1, as int64: tau(l) * P_n (up to about M_n^2) does not
    fit int32.  Written into the front of the int64 buffer out when
    given."""
    M, P = tower.modulus(n), tower.step(n)
    s = np.empty(hi - lo, dtype=np.int64) if out is None else out[: hi - lo]
    s[:] = tau[lo:hi]
    s *= P
    s += np.arange(lo, hi, dtype=np.int64)
    s %= M
    return s


def sigma_chunks(tower: ModulusTower, n: int, tau):
    """(lo, sigma[lo:hi]) over the index chunks of Z/M_nZ, in one int64
    chunk buffer that every chunk reuses: a chunk is valid until the
    next one is made."""
    buf = np.empty(0, dtype=np.int64)
    for lo, hi in index_chunks(tau.shape[0]):
        if buf.size < hi - lo:  # the first chunk, the longest
            buf = np.empty(hi - lo, dtype=np.int64)
        yield lo, sigma_chunk(tower, n, tau, lo, hi, buf)


def sigma_of(tower: ModulusTower, n: int, tau):
    """The whole induced map sigma as int32, filled from `sigma_chunks`."""
    sigma = np.empty(tau.shape[0], dtype=np.int32)
    for lo, s in sigma_chunks(tower, n, tau):
        sigma[lo : lo + len(s)] = s
    return sigma


class _PermutationMarks:
    """Is a map of 0..M-1, fed chunk by chunk, one-to-one onto itself?
    M images inside 0..M-1 that reach every index are."""

    def __init__(self, M: int):
        self.seen = np.zeros(M, dtype=bool)
        self.in_range = True

    def add(self, s):
        if not self.in_range:
            return
        if s.min() < 0 or s.max() >= self.seen.shape[0]:
            self.in_range = False
        else:
            self.seen[s] = True

    def result(self) -> bool:
        return self.in_range and bool(self.seen.all())


def is_permutation(sigma) -> bool:
    """Does sigma map 0..M-1 one-to-one onto itself (M = len(sigma))?"""
    M = sigma.shape[0]
    marks = _PermutationMarks(M)
    for lo, hi in index_chunks(M):
        marks.add(sigma[lo:hi])
    return marks.result()


def _require_permutation(sigma, what: str):
    if not is_permutation(sigma):
        raise GrowthTooSmall(f"{what} is not a permutation")


def shuffle_block(tau, lo, dst, steps, movers, M: int, Pinv: int, mid: int):
    """Route the sub-blocks of the block at lo into the image block at dst.

    Sub-block s takes the step count steps[s] and covers position
    s + steps[s] of the image block, except the movers (ascending), which
    fill the positions left uncovered, in order, by middle-avoiding
    steps."""
    m = len(steps)
    tau[lo : lo + m] = steps
    stay = np.ones(m, dtype=bool)
    stay[movers] = False
    covered = np.zeros(m, dtype=bool)
    covered[np.flatnonzero(stay) + steps[stay]] = True
    gaps = np.flatnonzero(~covered)
    if gaps.shape[0] != len(movers):
        raise GrowthTooSmall(
            f"{gaps.shape[0]} uncovered positions for {len(movers)} movers "
            f"in the block at {lo}"
        )
    for s, d in zip(movers, gaps):
        tau[lo + s] = _avoidance_step(M, Pinv, mid, lo + int(s), dst + int(d))


def outward_shuffle(tower: ModulusTower, n: int):
    """tau of the within-block shuffle at scale n: in every level-(n-1)
    block the bulk steps M_{n-1} sub-blocks outward (M_0 = 1), the middle
    sub-block stays, and the 2*M_{n-1} boundary sub-blocks fill the
    central gaps."""
    tower.require_level(n)
    m = tower.primes[n - 1]
    M = tower.M[n - 1]
    M_prev = tower.M[n - 2] if n >= 2 else 1
    if m < 2 * M_prev + 1:
        raise GrowthTooSmall(f"m_{n} = {m} < 2*M_{n-1}+1 = {2 * M_prev + 1}")
    steps = np.sign(np.arange(m) - (m - 1) // 2) * M_prev
    movers = np.r_[0:M_prev, m - M_prev : m]
    Pinv, mid = tower.step_inverse(n), tower.middle_index(n)
    tau = np.empty(M, dtype=np.int32)
    for lo in range(0, M, m):
        shuffle_block(tau, lo, lo, steps, movers, M, Pinv, mid)
    return tau


def _checked(level: TauLevel, tower: ModulusTower) -> TauLevel:
    """The level, once its sigma is a permutation and every orbit avoids
    the middle index, both checked in one walk over the sigma chunks;
    GrowthTooSmall otherwise."""
    n, M = level.level, level.modulus
    P_inv, mid = tower.step_inverse(n), tower.middle_index(n)
    marks = _PermutationMarks(M)
    bad = [np.zeros(0, dtype=np.int64)]
    for lo, s in sigma_chunks(tower, n, level.tau):
        marks.add(s)
        bad.append(_avoidance_hits(level.tau[lo : lo + len(s)], lo, M, P_inv, mid))
    if not marks.result():
        raise GrowthTooSmall(f"sigma at level {n} is not a permutation")
    bad = np.concatenate(bad)
    if bad.size:
        raise GrowthTooSmall(
            f"middle avoidance fails at level {n} for {bad.size} indices "
            f"(first: {bad[:5]})"
        )
    return level


def build_tau_level1(tower: ModulusTower) -> TauLevel:
    """The seed permutation: the outward shuffle at scale 1, whose bulk
    is good and whose two movers, the outer intervals, are singular."""
    tau = outward_shuffle(tower, 1)
    M = tower.M[0]
    good = np.ones(M, dtype=bool)
    good[[0, tower.middle_index(1), M - 1]] = False
    singular = np.zeros(M, dtype=bool)
    singular[[0, M - 1]] = True
    return _checked(TauLevel(1, tau, good, singular), tower)


def extend_tau(prev: TauLevel, tower: ModulusTower) -> TauLevel:
    """Refine a level-(n-1) permutation to level n.

    A parent block keeps its step on the interior and re-routes its
    overflowing boundary sub-blocks onto the gaps at the opposite end of
    the image block (keep-and-fill), unless it is singular with a strict
    potential drop, in which case it splits: the good halves step tau_r
    or tau_l and the singular core fills the gaps (`shuffle_block`).  A
    parent without masks (a gap-grid cell) keeps and fills every block
    and yields a child without masks.
    """
    n = prev.level + 1
    tower.require_level(n)
    m = tower.primes[n - 1]
    M = tower.M[n - 1]
    Pinv = tower.step_inverse(n)
    mid = tower.middle_index(n)
    M_prev = tower.M[n - 2]
    sigma_prev = sigma_of(tower, n - 1, prev.tau)
    phi_prev = phi_level(tower, n - 1).values

    masked = prev.singular_mask is not None
    tau = np.zeros(M, dtype=np.int32)
    good = np.zeros(M, dtype=bool) if masked else None
    singular = np.zeros(M, dtype=bool) if masked else None
    right_half = np.arange(m) >= (m - 1) // 2

    for p in range(M_prev):
        t = int(prev.tau[p])
        q = int(sigma_prev[p])
        lo = p * m
        is_singular_parent = masked and bool(prev.singular_mask[p])
        dphi = int(phi_prev[q]) - int(phi_prev[p]) if is_singular_parent else 0

        if is_singular_parent and dphi < 0:
            raise GrowthTooSmall(
                f"singular parent {p} at level {n - 1} has rising potential"
            )

        if not is_singular_parent or dphi == 0:
            tau[lo : lo + m] = t
            # the |t| sub-blocks that overflow the image block wrap round
            # to the gaps at its other end
            wrap = t - m if t > 0 else t + m
            for s in range(m - t, m) if t > 0 else range(-t):
                tau[lo + s] = _avoidance_step(M, Pinv, mid, lo + s, q * m + s + wrap)
            if masked and (prev.good_mask[p] or is_singular_parent):
                good[lo : lo + m] = True
            continue

        tau_r = t + dphi * M_prev
        tau_l = t - dphi * M_prev
        if tau_r <= 0 or tau_l >= 0 or (-tau_l) + tau_r > m:
            raise GrowthTooSmall(
                f"singular split at level {n} does not fit: "
                f"tau_r={tau_r}, tau_l={tau_l}, m={m}"
            )
        core = np.r_[0:-tau_l, m - tau_r : m]
        shuffle_block(tau, lo, q * m, np.where(right_half, tau_r, tau_l), core,
                      M, Pinv, mid)
        good[lo - tau_l : lo + m - tau_r] = True
        singular[lo + core] = True

    changed = np.empty(M, dtype=bool)
    np.not_equal(tau.reshape(M_prev, m), prev.tau[:, None], out=changed.reshape(M_prev, m))

    return _checked(TauLevel(n, tau, good, singular, changed, parent=prev), tower)


def quasi_cost_chunks(level: TauLevel, tower: ModulusTower, *sums):
    """(lo, sigma[lo:hi], q[lo:hi]) over the index chunks of the level,
    for the quasi-cost q = 1 + phi - phi o sigma; each chunk goes first
    to every accumulator's add(lo, sigma, q).  sigma is the int64 buffer
    of `sigma_chunks`, so both chunks are valid until the next is made;
    no level-sized array is made."""
    n = level.level
    phi = phi_level(tower, n).values
    for lo, sigma in sigma_chunks(tower, n, level.tau):
        q = quasi_cost_values(phi, sigma, lo)
        for s in sums:
            s.add(lo, sigma, q)
        yield lo, sigma, q


def fold_quasi_cost(level: TauLevel, tower: ModulusTower, *sums):
    """One pass over the quasi-cost chunks of the level, feeding every
    accumulator; returns their result()s in order."""
    for _ in quasi_cost_chunks(level, tower, *sums):
        pass
    return [s.result() for s in sums]


def quasi_cost(level: TauLevel, tower: ModulusTower) -> StepFunction:
    """q(l) = phi(l) + psi(sigma(l)) = 1 + phi(l) - phi(sigma(l))."""
    values = np.empty(level.modulus, dtype=np.int32)
    for lo, _, q in quasi_cost_chunks(level, tower):
        values[lo : lo + len(q)] = q
    return StepFunction(level.level, values)


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

    def add(self, lo: int, sigma, q):
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


class LevelChecks:
    """Chunk checks of `verify_level`, fed by the level's quasi-cost pass:
    sigma is a permutation, every stored orbit avoids the middle index,
    tau is zero on the level-1 middle block, nesting under the parent
    map, the good/singular/middle-block partition, a non-positive drop on
    the singular set, and the refinement deviation, the sum of
    |drop - parent drop| over the children of good parents (zero without
    a parent; nonzero only on re-routed boundary sub-blocks and of order
    M^2/m at level 2).  The parent's sigma and quasi-cost are computed on
    the parents of each chunk only."""

    def __init__(self, level: TauLevel, tower: ModulusTower):
        level.require_masks("verify_level")
        n = level.level
        self.level = level
        self.tower = tower
        self.P_inv, self.mid = tower.step_inverse(n), tower.middle_index(n)
        self.mid1 = level.middle1_block(tower)
        if level.parent is not None:
            self.m = tower.primes[n - 1]
            self.phi_prev = phi_level(tower, n - 1).values
        self.permutation = _PermutationMarks(level.modulus)
        self.avoidance_ok = self.tau_zero_on_mid1 = True
        self.nesting_ok = self.partition_ok = self.drop_nonpositive = True
        self.deviation = 0

    def add(self, lo: int, sigma, q):
        level = self.level
        hi = lo + len(q)
        t = level.tau[lo:hi]
        self.permutation.add(sigma)
        self.avoidance_ok &= _avoidance_hits(t, lo, level.modulus, self.P_inv, self.mid).size == 0
        good = level.good_mask[lo:hi]
        sing = level.singular_mask[lo:hi]
        mid1 = np.zeros(hi - lo, dtype=bool)
        mid1[max(self.mid1.start - lo, 0) : max(self.mid1.stop - lo, 0)] = True
        self.tau_zero_on_mid1 &= not t[mid1].any()
        self.partition_ok &= bool(
            not (good & sing).any() and ((good | sing) ^ mid1).all()
        )
        self.drop_nonpositive &= bool((q[sing] - 1 <= 0).all())
        parent = level.parent
        if parent is not None:
            # the parents of this chunk are p_lo..p_hi-1
            p_lo, p_hi = lo // self.m, (hi - 1) // self.m + 1
            parent_sigma = sigma_chunk(self.tower, parent.level, parent.tau, p_lo, p_hi)
            parent_of = np.arange(lo, hi, dtype=np.int64) // self.m - p_lo
            self.nesting_ok &= bool((sigma // self.m == parent_sigma[parent_of]).all())
            parent_q = quasi_cost_values(self.phi_prev, parent_sigma, p_lo)
            gp = parent.good_mask[p_lo:p_hi][parent_of]
            # the drops' -1s cancel; |q| <= M_n and |parent q| <= M_{n-1}
            diff = np.subtract(q[gp], parent_q[parent_of[gp]], dtype=np.int64)
            self.deviation += int(np.abs(diff).sum())

    def result(self) -> LevelReport:
        level, tower = self.level, self.tower
        n = level.level
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
            permutation_ok=self.permutation.result(),
            middle_avoidance_ok=self.avoidance_ok,
            nesting_ok=self.nesting_ok,
            tau_zero_on_middle1=self.tau_zero_on_mid1,
            partition_ok=self.partition_ok,
            singular_count=singular_count,
            singular_count_ok=singular_count_ok,
            change_per_good_parent_ok=change_per_good_parent_ok,
            drop_nonpositive_on_singular=self.drop_nonpositive,
            refinement_deviation=Fraction(self.deviation, level.modulus),
        )


def verify_level(level: TauLevel, tower: ModulusTower) -> LevelReport:
    """The construction's invariant checks at one level and its
    refinement deviation, from one pass over the quasi-cost chunks (see
    `LevelChecks`); the ledger is `singular_ledger`'s."""
    return fold_quasi_cost(level, tower, LevelChecks(level, tower))[0]


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
