"""Dual pairs along the construction and the singular-mass diagnostics.

The pair at level n is (phi^n, psi^n = 1 - phi^n).  Along the rotation
orbit phi steps by the weight w of the index it leaves (+1 on L^n, 0 on
the middle interval, -1 on R^n), and the orbit's +-1 weights balance on
every odd modulus, so phi(l + P) = phi(l) + w(l) for every index l and
the one-step quasi-cost is

    q(l) = 1 + phi(l) - phi(l + P) = 1 - w(l):  0 on L^n, 1 on the
    middle interval, 2 on R^n.

The corrected pair subtracts from phi the positive part of the
constraint excess on each of the three level-n graphs (diagonal, one
rotation step, the constructed permutation).  The diagonal excess
phi + (1 - phi) - 1 and the constructed-graph excess q - q vanish
identically, so only the one-step excess is computed, against the bound
0 on L^n and 2 on the middle interval and R^n.  By the identity above
it is never positive: every level's correction is 0 and its dual value
is 1.

`level_scalars` is the one per-level record: the singular ledger, the
singular build-up diagnostic, and the dual value and correction norm,
from one chunked pass over the quasi-cost pieces.  `LevelScalarSums` gathers
the same record from a pass that something else drives, such as the
level's CSV pass in `construct` and `verify`.  `verify_feasibility` is the
index-by-index check of the pair on the three graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .circle import ModulusTower, phi_level, quasi_cost_values
from .tau import LedgerSums, SingularLedger, TauLevel, fold_quasi_cost, quasi_cost, sigma_of


def _one_step_cost(tower: ModulusTower, n: int, lo: int = 0, hi: Optional[int] = None):
    """Level-n cost on the one-step graph at indices lo..hi-1 (default
    all): 0 on L^n, 2 on middle u R^n.

    The middle interval straddles the half point; it is grouped with the
    2-valued side so the bound is the weaker of its two limit values.
    """
    hi = tower.modulus(n) if hi is None else hi
    idx = np.arange(lo, hi, dtype=np.int64)
    return np.where(idx < tower.middle_index(n), 0, 2)


def _correction(tower: ModulusTower, n: int, lo: int, hi: int):
    """phi_raw - phi_corrected at indices lo..hi-1: the positive part of
    the one-step excess of (phi, psi = 1 - phi), the diagonal and
    constructed-graph excesses being zero.  The one-step quasi-cost is
    1 - w by the identity above, so no phi is read."""
    w = np.sign(tower.middle_index(n) - np.arange(lo, hi, dtype=np.int64))
    return np.maximum(1 - w - _one_step_cost(tower, n, lo, hi), 0)


class _CorrectionSums:
    """Chunk sums of the correction.  With psi = 1 - phi the corrected
    pair integrates to 1 - correction norm, so only the correction is
    summed."""

    def __init__(self, level: TauLevel, tower: ModulusTower):
        self.level = level
        self.tower = tower
        self.correction = 0

    def add(self, lo: int, q):
        corr = _correction(self.tower, self.level.level, lo, lo + len(q))
        self.correction += int(corr.sum(dtype=np.int64))

    def result(self):
        """(dual value, correction norm)."""
        norm = Fraction(self.correction, self.level.modulus)
        return 1 - norm, norm


@dataclass
class FeasibilityReport:
    """Exact check of the pair against all three graph constraints."""

    level: int
    diag_violations: list
    rot_violations: list
    tau_violations: list
    equality_measure: Fraction

    @property
    def passed(self) -> bool:
        return not (self.diag_violations or self.rot_violations or self.tau_violations)


def verify_feasibility(level: TauLevel, tower: ModulusTower, phi=None) -> FeasibilityReport:
    """Check phi+psi <= cost on the diagonal, the one-step graph and the
    constructed graph, index by index; also measure where the pair is
    tight on the diagonal and the one-step graph simultaneously.  phi is
    the level's raw potential unless given; psi is always 1 - phi_raw."""
    n = level.level
    M = level.modulus
    P = tower.step(n)
    phi_raw = phi_level(tower, n)
    if phi is None:
        phi = phi_raw.values
    psi = 1 - phi_raw.values
    idx = np.arange(M, dtype=np.int64)

    diag = phi + psi
    diag_bad = np.nonzero(diag > 1)[0]

    rot = (idx + P) % M
    pair_rot = phi + psi[rot]
    c_rot = _one_step_cost(tower, n)
    rot_bad = np.nonzero(pair_rot > c_rot)[0]

    q = quasi_cost(level, tower).values
    pair_tau = phi + psi[sigma_of(tower, n, level.tau)]
    tau_bad = np.nonzero(pair_tau > q)[0]

    # Tightness against the graded (step-count) one-step values, which
    # differ from the bound only on the middle interval.
    one_step_graded = quasi_cost_values(phi_raw.values, rot)
    tight = (diag == 1) & (pair_rot == one_step_graded)
    eq_measure = Fraction(int(tight.sum()), M)

    return FeasibilityReport(
        level=n,
        diag_violations=diag_bad.tolist(),
        rot_violations=rot_bad.tolist(),
        tau_violations=tau_bad.tolist(),
        equality_measure=eq_measure,
    )


@dataclass
class SingularDiagnostic:
    """Finite surrogate of the singular-part build-up at one level."""

    level: int
    negative_mass: Fraction
    carrier_measure: Fraction
    singular_set_measure: Fraction
    small_set_sup: dict = field(default_factory=dict)
    mass_balance_ok: bool = True


def default_delta_grid(M: int):
    grid = []
    d = Fraction(1, 2)
    floor = Fraction(2, M)
    while d >= floor:
        grid.append(d)
        d /= 2
    return grid or [Fraction(2, M)]


class _DiagnosticSums:
    """Chunk sums of the singular build-up diagnostic; only the negative
    entries of q are kept, and sorted once at the end."""

    def __init__(self, level: TauLevel):
        self.level = level
        self.negatives = [np.zeros(0, dtype=np.int64)]
        self.plus = self.minus = 0

    def add(self, lo: int, q):
        self.negatives.append(q[q < 0])
        self.plus += int(np.where(q > 1, q - 1, 0).sum(dtype=np.int64))
        self.minus += int(np.where(q < 1, 1 - q, 0).sum(dtype=np.int64))

    def result(self) -> SingularDiagnostic:
        M = self.level.modulus
        neg = np.sort(np.concatenate(self.negatives))
        prefix = np.concatenate([[0], np.cumsum(neg, dtype=np.int64)])
        sup = {}
        for d in default_delta_grid(M):
            dM = Fraction(d) * M
            k = int(dM) - 1 if dM.denominator == 1 else int(dM)  # largest k/M < d
            k = min(max(k, 0), len(neg))  # only negative entries help
            sup[Fraction(d)] = Fraction(-int(prefix[k]), M)
        return SingularDiagnostic(
            level=self.level.level,
            negative_mass=Fraction(int(prefix[-1]), M),
            carrier_measure=Fraction(len(neg), M),
            singular_set_measure=Fraction(int(self.level.singular_runs.sum_below(M)), M),
            small_set_sup=sup,
            mass_balance_ok=self.plus == self.minus,
        )


def singular_buildup(levels, tower: ModulusTower):
    """Per level: the negative mass of the quasi-cost, the measure of its
    carrier, and the greedy small-set suprema of -<(phi+psi)1_A, pi_tau>
    over sets of measure < delta, for delta on `default_delta_grid`."""
    out = []
    for level in levels:
        level.require_masks("singular_buildup")
        out += fold_quasi_cost(level, tower, _DiagnosticSums(level))
    return out


@dataclass
class LevelScalars:
    """The per-level numbers `construct` records and `verify` re-checks."""

    ledger: SingularLedger
    diagnostic: SingularDiagnostic
    dual_value: Fraction
    correction_norm: Fraction


class LevelScalarSums:
    """Chunk sums of `level_scalars`: the ledger, the diagnostic and the
    correction, fed together by one quasi-cost pass."""

    def __init__(self, level: TauLevel, tower: ModulusTower):
        level.require_masks("level_scalars")
        self.sums = (
            LedgerSums(level, tower), _DiagnosticSums(level), _CorrectionSums(level, tower)
        )

    def add(self, lo: int, q):
        for s in self.sums:
            s.add(lo, q)

    def result(self) -> LevelScalars:
        ledger, diagnostic, (value, norm) = (s.result() for s in self.sums)
        return LevelScalars(ledger, diagnostic, value, norm)


def level_scalars(level: TauLevel, tower: ModulusTower) -> LevelScalars:
    """The ledger, the singular diagnostic (default delta grid), and the
    dual value and correction norm of the corrected pair, from one
    chunked pass over the quasi-cost: the one per-level dual record."""
    return fold_quasi_cost(level, tower, LevelScalarSums(level, tower))[0]
