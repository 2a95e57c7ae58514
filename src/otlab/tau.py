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

Displacements are step counts tau(l); the induced map is
sigma(l) = l + tau(l) * P_n (mod M_n).  Wherever a sub-block is assigned
a target, the step count is the unique representative in (-M_n, M_n)
whose full rotation orbit (endpoints included) avoids the middle index;
existence is checked, never assumed.

A level is held as what it is, a few constant runs per parent index
(`circle.Runs`): tau and its good, singular and changed masks, which
`extend_tau` emits block by block.  No level-sized array is stored, and
none is made on the way from one level to the next.  On a run, sigma is
a translation, so the permutation and middle-avoidance checks take
O(runs) work (`_tiles`, `_avoidance_hits`), and the quasi-cost is a
handful of constant pieces computed from the runs with no phi array
(`quasi_cost_pieces`).  The ledger, the invariant checks and the plan
costs are sums of value x length over the common pieces of the runs
(`circle.overlay`).  Only the CSV visits every index, rendered from
the pieces (`circle.runs_csv_blocks`).

`TauLevel` is the package's one interval-permutation type: it holds the
construction levels built here and, without good/singular masks, the
cells tau_{n,j} of the gap grid (`gap`), which `extend_tau` refines
column by column with the same keep-and-fill rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .circle import ModulusTower, Runs, StepFunction, overlay, phi_points


class GrowthTooSmall(Exception):
    """The boundary/gap combinatorics of a refinement step do not fit."""


def _avoidance_steps(M: int, Pinv: int, mid: int, src, dst):
    """The step counts in (-M, M) from each index of src to the index of
    dst beside it whose orbits avoid the middle index, as int64: exactly
    one of the two candidates t0 and t0 - M does when neither endpoint is
    the middle index.  GrowthTooSmall names the first pair with no such
    step."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    t0 = (dst - src) * Pinv % M
    onto_mid = (mid - src) * Pinv % M  # the orbit step from src onto mid
    bad = np.flatnonzero((t0 != 0) & ((onto_mid == 0) | (onto_mid == t0)))
    if bad.size:
        k = bad[0]
        raise GrowthTooSmall(
            f"cannot route {src[k]} -> {dst[k]} around the middle index {mid}"
        )
    return np.where((onto_mid > t0) | (t0 == 0), t0, t0 - M)


def _segments(lengths):
    """(segment, offset) of each element of consecutive segments of the
    given lengths: segment r contributes (r, 0), ..., (r, lengths[r] - 1)."""
    lengths = np.asarray(lengths, dtype=np.int64)
    seg = np.repeat(np.arange(lengths.size), lengths)
    first = np.cumsum(lengths) - lengths
    return seg, np.arange(seg.size, dtype=np.int64) - first[seg]


@dataclass
class SingularLedger:
    """Exact per-level accounting of the construction's mass movements."""

    level: int
    singular_mass: Fraction
    good_deviation: Fraction
    change_measure: Fraction


class TauLevel:
    """A level-n interval permutation of Z/M_nZ, held by the runs of its
    step counts.

    tau_runs holds tau.  A construction level also holds its disjoint
    good and singular masks as runs; they leave out the level-1 middle
    block, whose indices keep tau = 0 at every level.  Gap-grid cells
    carry no masks.  A refined level records its parent and, as runs,
    where tau changed against it.  tau and each mask may be given as
    runs or as a whole array.

    The properties tau, good_mask, singular_mask and changed_mask expand
    a whole read-only array on each call and keep none: they serve `gap`,
    the demos and the tests.  The level's records and checks take its
    runs.
    """

    __slots__ = ("level", "tau_runs", "good_runs", "singular_runs", "changed_runs", "parent")

    def __init__(self, level: int, tau, good_mask=None, singular_mask=None,
                 changed_mask=None, parent: "TauLevel | None" = None):
        self.level = level
        self.tau_runs = _as_runs(tau, np.int32)
        self.good_runs = _as_runs(good_mask, bool)
        self.singular_runs = _as_runs(singular_mask, bool)
        self.changed_runs = _as_runs(changed_mask, bool)
        self.parent = parent

    @property
    def modulus(self) -> int:
        return self.tau_runs.size

    @property
    def tau(self):
        return _expanded(self.tau_runs)

    @property
    def good_mask(self):
        return _expanded(self.good_runs)

    @property
    def singular_mask(self):
        return _expanded(self.singular_runs)

    @property
    def changed_mask(self):
        return _expanded(self.changed_runs)

    def require_masks(self, what: str):
        """ValueError unless this level carries the good/singular masks of
        a construction level (gap-grid cells carry none)."""
        missing = [
            k for k, runs in (("good_mask", self.good_runs), ("singular_mask", self.singular_runs))
            if runs is None
        ]
        if missing:
            raise ValueError(
                f"{what} needs a construction level; this level-{self.level} "
                f"permutation has no {' and no '.join(missing)}"
            )

    def good_indices(self):
        return np.flatnonzero(self.good_mask)

    def singular_indices(self):
        return np.flatnonzero(self.singular_mask)

    def middle1_runs(self, tower: ModulusTower) -> Runs:
        """The runs of the mask of the indices below the level-1 middle
        interval, a contiguous block."""
        span = self.modulus // tower.M[0]
        lo = tower.middle_index(1) * span
        return Runs.from_starts([0, lo, lo + span], [False, True, False], self.modulus)


def _as_runs(x, dtype):
    if x is None or isinstance(x, Runs):
        return x
    return Runs.from_array(np.asarray(x, dtype=dtype))


def _expanded(runs):
    if runs is None:
        return None
    a = runs.array()
    a.setflags(write=False)
    return a


def _sigma(tower: ModulusTower, n: int, index, t):
    """sigma(l) = l + tau(l) * P_n (mod M_n) at the indices index, whose
    step counts are t, as int64: tau(l) * P_n (up to about M_n^2) does
    not fit int32."""
    s = np.asarray(t, dtype=np.int64) * tower.step(n)
    s += index
    s %= tower.modulus(n)
    return s


def sigma_of(tower: ModulusTower, n: int, tau):
    """The whole induced map sigma of a tau array, as int32."""
    return _sigma(tower, n, np.arange(tau.shape[0]), tau).astype(np.int32)


def _tiles(level: TauLevel, tower: ModulusTower) -> bool:
    """Is the level's sigma a permutation?  On a run of tau, sigma is the
    translation by tau * P_n, so the run's image is one cyclic interval
    as long as the run.  The run lengths add up to M_n, so sigma is onto,
    and so one-to-one, exactly when those intervals, ordered by their
    first index, each begin where the one before ends."""
    r = level.tau_runs
    first = _sigma(tower, level.level, r.starts, r.values)
    order = np.argsort(first, kind="stable")
    first, length = first[order], r.lengths()[order]
    return bool((first[1:] == first[:-1] + length[:-1]).all())


def _avoidance_hits(level: TauLevel, tower: ModulusTower):
    """The indices, ascending, whose stored orbit (i = 0..tau(l) or
    tau(l)..0 steps of P_n) passes the middle index.

    On a run with step t != 0, only the |t| + 1 indices mid - i * sgn(t)
    * P_n (i = 0..|t|) can, so a run looks at min(|t| + 1, its length)
    indices: those candidates, or else each of its own indices l, whose
    orbit reaches the middle at step (mid - l) * P_n^-1 (mod M_n)."""
    n, M = level.level, level.modulus
    P, P_inv, mid = tower.step(n), tower.step_inverse(n), tower.middle_index(n)
    r = level.tau_runs
    moving = np.flatnonzero(r.values)
    a, L, t = r.starts[moving], r.lengths()[moving], r.values[moving].astype(np.int64)
    few = np.abs(t) < L  # look at the candidates
    seg, i = _segments(np.where(few, np.abs(t) + 1, L))
    a, L, t, few = a[seg], L[seg], t[seg], few[seg]
    cand = (mid - np.sign(t) * i * P) % M  # i * P < M^2 fits int64
    idx = np.where(few, cand, a + i)
    onto_mid = (mid - idx) * P_inv % M
    hit = np.where(
        few,
        (cand >= a) & (cand < a + L),
        ((t > 0) & (onto_mid <= t)) | ((t < 0) & ((onto_mid == 0) | (onto_mid - M >= t))),
    )
    return np.sort(idx[hit])


def shuffle_block(lo: int, dst: int, m: int, stays, movers):
    """Route the sub-blocks of the block at lo into the image block at dst.

    Each stay (start, stop, step) keeps the sub-blocks start..stop-1 at
    the step count step, and they cover the positions start + step ..
    stop - 1 + step of the image block.  The movers, ascending (start,
    stop) ranges of sub-blocks, fill the positions left uncovered, in
    order.  Returns the runs of the stays, as (index, step) pairs, and
    the movers' indices with their targets, whose middle-avoiding steps
    the caller takes for many blocks at once (`_avoidance_steps`)."""
    stays = [(a, b, t) for a, b, t in stays if b > a]
    free, end = [], 0
    for a, b in sorted((max(a + t, 0), min(b + t, m)) for a, b, t in stays):
        free.extend(range(end, a))
        end = max(end, b)
    free.extend(range(end, m))
    moving = [s for a, b in movers for s in range(a, b)]
    if len(free) != len(moving):
        raise GrowthTooSmall(
            f"{len(free)} uncovered positions for {len(moving)} movers "
            f"in the block at {lo}"
        )
    return [(lo + a, t) for a, _, t in stays], [lo + s for s in moving], [dst + d for d in free]


def _routed(stay_at, stay_step, sources, targets, M: int, Pinv: int, mid: int):
    """(starts, steps) of the runs of the stays (at stay_at, of step
    stay_step) and of the movers, each a run of its own, by index."""
    starts = np.concatenate([stay_at, sources]).astype(np.int64)
    steps = np.concatenate([stay_step, _avoidance_steps(M, Pinv, mid, sources, targets)])
    order = np.argsort(starts, kind="stable")
    return starts[order], steps[order].astype(np.int32)


def outward_shuffle(tower: ModulusTower, n: int) -> Runs:
    """Runs of the tau of the within-block shuffle at scale n: in every
    level-(n-1) block the bulk steps M_{n-1} sub-blocks outward (M_0 =
    1), the middle sub-block stays, and the 2*M_{n-1} boundary sub-blocks
    fill the central gaps.  Every block is routed as the first one is,
    shifted to its place."""
    tower.require_level(n)
    m = tower.primes[n - 1]
    M = tower.M[n - 1]
    M_prev = tower.M[n - 2] if n >= 2 else 1
    if m < 2 * M_prev + 1:
        raise GrowthTooSmall(f"m_{n} = {m} < 2*M_{n-1}+1 = {2 * M_prev + 1}")
    h = (m - 1) // 2
    stays = [(M_prev, h, -M_prev), (h, h + 1, 0), (h + 1, m - M_prev, M_prev)]
    runs, sources, targets = shuffle_block(0, 0, m, stays, [(0, M_prev), (m - M_prev, m)])
    shift = np.arange(0, M, m, dtype=np.int64)[:, None]
    stay_at, stay_step = zip(*runs)
    starts, steps = _routed(
        (shift + stay_at).ravel(), np.tile(stay_step, shift.size),
        (shift + sources).ravel(), (shift + targets).ravel(),
        M, tower.step_inverse(n), tower.middle_index(n),
    )
    return Runs.from_starts(starts, steps, M)


def _checked(level: TauLevel, tower: ModulusTower) -> TauLevel:
    """The level, once its sigma is a permutation (`_tiles`) and every
    orbit avoids the middle index (`_avoidance_hits`); GrowthTooSmall
    otherwise."""
    n = level.level
    if not _tiles(level, tower):
        raise GrowthTooSmall(f"sigma at level {n} is not a permutation")
    bad = _avoidance_hits(level, tower)
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
    """Refine a level-(n-1) permutation to level n, as runs.

    A parent block keeps its step on the interior run and re-routes its
    |t| overflowing boundary sub-blocks onto the gaps at the opposite end
    of the image block (keep-and-fill), unless it is singular with a
    strict potential drop phi(sigma(p)) - phi(p) = 1 - q(p), read from
    the parent's quasi-cost pieces, in which case it splits: the good
    halves step tau_r or tau_l and the singular core fills the gaps
    (`shuffle_block`).  A parent without masks (a gap-grid cell) keeps
    and fills every block and yields a child without masks.  The parent
    is read whole: M_{n-1} = M_n / m_n indices.
    """
    n = prev.level + 1
    tower.require_level(n)
    m = tower.primes[n - 1]
    M = tower.M[n - 1]
    Pinv = tower.step_inverse(n)
    mid = tower.middle_index(n)
    M_prev, P_prev = tower.M[n - 2], tower.P[n - 2]
    t_prev = prev.tau

    masked = prev.singular_runs is not None
    if masked:
        good_prev, singular_prev = prev.good_mask, prev.singular_mask
        q_prev = quasi_cost_pieces(prev, tower)
    stay_at, stay_step, sources, targets = [], [], [], []
    good, singular = [], []
    h = (m - 1) // 2

    for p in range(M_prev):
        t = int(t_prev[p])
        q = (p + t * P_prev) % M_prev  # sigma of the parent
        lo = p * m
        is_singular_parent = masked and bool(singular_prev[p])
        dphi = 1 - int(q_prev.at(p)) if is_singular_parent else 0

        if is_singular_parent and dphi < 0:
            raise GrowthTooSmall(
                f"singular parent {p} at level {n - 1} has rising potential"
            )

        if not is_singular_parent or dphi == 0:
            if abs(t) > m:
                raise GrowthTooSmall(
                    f"step {t} of parent {p} at level {n - 1} overflows its block of {m}"
                )
            if abs(t) < m:
                stay_at.append(lo if t >= 0 else lo - t)
                stay_step.append(t)
            # the |t| sub-blocks that overflow the image block wrap round
            # to the gaps at its other end
            wrap = t - m if t > 0 else t + m
            for s in range(m - t, m) if t > 0 else range(-t):
                sources.append(lo + s)
                targets.append(q * m + s + wrap)
            if masked:
                good.append((lo, bool(good_prev[p]) or is_singular_parent))
                singular.append((lo, False))
        else:
            tau_r = t + dphi * M_prev
            tau_l = t - dphi * M_prev
            if tau_r <= 0 or tau_l >= 0 or (-tau_l) + tau_r > m:
                raise GrowthTooSmall(
                    f"singular split at level {n} does not fit: "
                    f"tau_r={tau_r}, tau_l={tau_l}, m={m}"
                )
            halves = [(-tau_l, min(h, m - tau_r), tau_l), (max(h, -tau_l), m - tau_r, tau_r)]
            core = [(0, -tau_l), (m - tau_r, m)]
            runs, src, dst = shuffle_block(lo, q * m, m, halves, core)
            stay_at += [i for i, _ in runs]
            stay_step += [t for _, t in runs]
            sources += src
            targets += dst
            good += [(lo, False), (lo - tau_l, True), (lo + m - tau_r, False)]
            singular += [(lo, True), (lo - tau_l, False), (lo + m - tau_r, True)]

    # each block starts a run of its own: its first stay or mover
    starts, steps = _routed(stay_at, stay_step, sources, targets, M, Pinv, mid)
    changed = Runs.from_starts(starts, steps != t_prev[starts // m], M)
    masks = (
        (Runs.from_starts(*zip(*good), M), Runs.from_starts(*zip(*singular), M))
        if masked else (None, None)
    )
    tau = Runs.from_starts(starts, steps, M)
    return _checked(TauLevel(n, tau, *masks, changed, parent=prev), tower)


def quasi_cost_pieces(level: TauLevel, tower: ModulusTower) -> Runs:
    """The quasi-cost q = 1 + phi - phi o sigma of the level as constant
    pieces, computed run by run of tau with no phi array.

    Along the orbit phi(l + P) = phi(l) + w(l), with w = +1 below the
    middle index, 0 at it and -1 above it (the +-1 weights balance on an
    odd modulus, so this holds across the wrap too).  On a run of step
    t > 0 therefore q(l) = 1 - sum_{i<t} w(l + iP), and for t < 0
    q(l) = 1 + sum_{i=1..|t|} w(l - iP).  As l walks the run, each of the
    |t| terms changes only where its point reaches the middle index (-1),
    the index after it (-1) or wraps to 0 (+2): the run's pieces start
    at its first index and at those events.  A run at least |t| long is
    done so, in O(|t|) work; a shorter one takes phi at each of its
    indices and their images from floor sums (`circle.phi_points`)."""
    n = level.level
    M, P, mid = tower.modulus(n), tower.step(n), tower.middle_index(n)
    r = level.tau_runs
    a, L, t = r.starts, r.lengths(), r.values.astype(np.int64)
    by_events = np.abs(t) <= L

    ev = np.flatnonzero(by_events)
    sign = np.sign(t[ev])
    seg, i = _segments(np.abs(t[ev]))
    offset = np.where(sign[seg] > 0, i, -1 - i) * P  # |offset| < M^2 fits int64
    x0 = (a[ev][seg] + offset) % M  # each term's point at the run's first index
    w0 = np.bincount(seg, weights=np.sign(mid - x0), minlength=ev.size).astype(np.int64)
    at = np.concatenate([(mid - x0) % M, (mid + 1 - x0) % M, -x0 % M])
    delta = np.repeat(np.array([-1, -1, 2], dtype=np.int64), x0.size)
    eseg = np.tile(seg, 3)
    inside = (at > 0) & (at < L[ev][eseg])
    at = a[ev][eseg[inside]] + at[inside]
    order = np.argsort(at, kind="stable")
    at, delta, eseg = at[order], delta[inside][order], eseg[inside][order]
    per_run = np.bincount(eseg, weights=delta, minlength=ev.size).astype(np.int64)
    before = np.cumsum(per_run) - per_run  # the events of the runs before each run
    w_at = w0[eseg] + np.cumsum(delta) - before[eseg]

    pt = np.flatnonzero(~by_events)
    seg, off = _segments(L[pt])
    idx = a[pt][seg] + off
    phi = phi_points(tower, n, np.concatenate([idx, (idx + t[pt][seg] * P) % M]))

    starts = np.concatenate([a[ev], at, idx])
    values = np.concatenate(
        [1 - sign * w0, 1 - sign[eseg] * w_at, 1 + phi[: idx.size] - phi[idx.size :]]
    )
    order = np.argsort(starts, kind="stable")
    return Runs.from_starts(starts[order], values[order].astype(np.int32), M)


def quasi_cost(level: TauLevel, tower: ModulusTower) -> StepFunction:
    """q(l) = phi(l) + psi(sigma(l)) = 1 + phi(l) - phi(sigma(l)), whole."""
    return StepFunction(level.level, quasi_cost_pieces(level, tower).array())


def _changed_per_parent(level: TauLevel, tower: ModulusTower):
    """Number of changed children of each parent index."""
    m = tower.primes[level.level - 1]
    return np.diff(level.changed_runs.sum_below(np.arange(0, level.modulus + 1, m)))


def singular_ledger(level: TauLevel, tower: ModulusTower) -> SingularLedger:
    """The level's potential drop q - 1 summed over its singular set and
    |1 - drop| over its good set, as sums of value x length over the
    common pieces of the quasi-cost and the masks, and the measure of the
    changed children of good parents."""
    level.require_masks("singular_ledger")
    M = level.modulus
    _, lengths, (q, good, sing) = overlay(
        quasi_cost_pieces(level, tower), level.good_runs, level.singular_runs
    )
    q = q.astype(np.int64)
    n_changed = 0
    if level.changed_runs is not None and level.parent is not None:
        n_changed = int(_changed_per_parent(level, tower)[level.parent.good_mask].sum())
    return SingularLedger(
        level=level.level,
        singular_mass=Fraction(int(((q - 1) * lengths)[sing].sum()), M),
        good_deviation=Fraction(int((np.abs(2 - q) * lengths)[good].sum()), M),
        change_measure=Fraction(n_changed, M),
    )


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


def verify_level(level: TauLevel, tower: ModulusTower) -> LevelReport:
    """The construction's invariant checks at one level and its
    refinement deviation, from its runs and quasi-cost pieces; the ledger
    is `singular_ledger`'s.

    The permutation and middle-avoidance checks take the tau runs
    (`_tiles`, `_avoidance_hits`).  The rest read the common pieces of
    tau, the masks, the level-1 middle block, the quasi-cost and, with a
    parent, the parent index: tau is zero on the middle block, the good
    and singular sets and the middle block partition the indices, the
    drop q - 1 is non-positive on the singular set, and the refinement
    deviation sums |drop - parent drop| over the children of good parents
    (zero without a parent; nonzero only on re-routed boundary sub-blocks
    and of order M^2/m at level 2).

    Nesting, sigma(l) div m_n = sigma_{n-1}(l div m_n), is checked at the
    first and last index of each piece.  A piece lies inside one parent
    block p with one step t, and there, with s = l mod m_n and
    P_n = m_n * P_{n-1} + 1, sigma(l) div m_n is
    (p + t * P_{n-1} + floor((s + t) / m_n)) mod M_{n-1}: the floor rises
    with s and, over at most m_n consecutive s, takes at most two values,
    both at the piece's ends."""
    level.require_masks("verify_level")
    n, M, parent = level.level, level.modulus, level.parent
    functions = [
        level.tau_runs, level.good_runs, level.singular_runs,
        level.middle1_runs(tower), quasi_cost_pieces(level, tower),
    ]
    if parent is not None:
        m = tower.primes[n - 1]
        functions.append(Runs(np.arange(0, M, m), np.arange(M // m), M))  # the parent index
    starts, lengths, values = overlay(*functions)
    t, good, sing, mid1, q = values[:5]

    singular_count = int(lengths[sing].sum())
    if n == 1:
        singular_count_ok = singular_count == 2
    else:
        singular_count_ok = singular_count < 2 * tower.M[n - 2] ** 2

    nesting_ok = change_per_good_parent_ok = True
    deviation = 0
    if parent is not None:
        p = values[5]
        ends = np.concatenate([starts, starts + lengths - 1])
        sigma = _sigma(tower, n, ends, np.tile(t, 2))
        parent_sigma = _sigma(tower, n - 1, p, parent.tau_runs.at(p))
        nesting_ok = bool((sigma // m == np.tile(parent_sigma, 2)).all())
        # |q| <= M_n and |parent q| <= M_{n-1}: the difference can pass int32
        diff = q.astype(np.int64) - quasi_cost_pieces(parent, tower).at(p)
        deviation = int((np.abs(diff) * lengths)[parent.good_runs.at(p)].sum())
        ch = _changed_per_parent(level, tower)
        change_per_good_parent_ok = bool((ch[parent.good_mask] <= tower.M[n - 2]).all())

    return LevelReport(
        level=n,
        permutation_ok=_tiles(level, tower),
        middle_avoidance_ok=_avoidance_hits(level, tower).size == 0,
        nesting_ok=nesting_ok,
        tau_zero_on_middle1=bool((t[mid1] == 0).all()),
        partition_ok=bool(not (good & sing).any() and ((good | sing) ^ mid1).all()),
        singular_count=singular_count,
        singular_count_ok=singular_count_ok,
        change_per_good_parent_ok=change_per_good_parent_ok,
        drop_nonpositive_on_singular=bool((q[sing] <= 1).all()),
        refinement_deviation=Fraction(deviation, M),
    )


def transport_cost_tau(level: TauLevel, tower: ModulusTower):
    """(total, positive_part, good_part) of the quasi-cost, as exact
    fractions of the uniform measure, from its pieces.  total is always
    1; positive_part is the plan cost under the clipped cost; good_part
    is the mass on good-and-middle indices that survives refinement."""
    level.require_masks("transport_cost_tau")
    _, lengths, (q, good, mid1) = overlay(
        quasi_cost_pieces(level, tower), level.good_runs, level.middle1_runs(tower)
    )
    mass = q.astype(np.int64) * lengths
    M = level.modulus
    return (
        Fraction(int(mass.sum()), M),
        Fraction(int(mass[q > 0].sum()), M),
        Fraction(int(mass[good | mid1].sum()), M),
    )


def build_levels(tower: ModulusTower, depth: int):
    """Levels 1..depth of the construction on the given tower."""
    levels = [build_tau_level1(tower)]
    for _ in range(depth - 1):
        levels.append(extend_tau(levels[-1], tower))
    return levels
