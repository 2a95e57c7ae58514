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
singular build-up diagnostic, and the dual value and correction norm.
Each is a sum of value x length over constant pieces: of the quasi-cost
(`tau.quasi_cost_pieces`) for the ledger and the diagnostic, and of the
weight w and the one-step bound for the correction, so no index is
visited.  `verify_feasibility` is the index-by-index check of the pair
on the three graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .circle import ModulusTower, Runs, overlay, phi_level, quasi_cost_values
from .tau import (
    SingularLedger, TauLevel, quasi_cost, quasi_cost_pieces, sigma_of, singular_ledger,
)


def _one_step_cost(tower: ModulusTower, n: int) -> Runs:
    """Level-n cost on the one-step graph, as runs: 0 on L^n, 2 on
    middle u R^n.

    The middle interval straddles the half point; it is grouped with the
    2-valued side so the bound is the weaker of its two limit values.
    """
    return Runs.from_starts([0, tower.middle_index(n)], [0, 2], tower.modulus(n))


def _correction(tower: ModulusTower, n: int) -> int:
    """The sum of phi_raw - phi_corrected over the indices: the positive
    part of the one-step excess of (phi, psi = 1 - phi), the diagonal and
    constructed-graph excesses being zero.  The one-step quasi-cost is
    1 - w by the identity above, so no phi is read: the excess is
    1 - w - cost on the common pieces of the 3 runs of w and the 2 of the
    bound."""
    mid = tower.middle_index(n)
    w = Runs.from_starts([0, mid, mid + 1], [1, 0, -1], tower.modulus(n))
    _, lengths, (w, cost) = overlay(w, _one_step_cost(tower, n))
    return int((np.maximum(1 - w - cost, 0) * lengths).sum())


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
    c_rot = _one_step_cost(tower, n).array()
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


def _diagnostic(level: TauLevel, tower: ModulusTower) -> SingularDiagnostic:
    """The singular build-up diagnostic of one level, from its quasi-cost
    pieces.  The greedy set of measure k/M takes the k most negative
    entries of q: the negative pieces in ascending order of value, the
    last one in part."""
    M = level.modulus
    q = quasi_cost_pieces(level, tower)
    v, lengths = q.values.astype(np.int64), q.lengths()
    neg = np.argsort(v, kind="stable")[: np.count_nonzero(v < 0)]
    count = np.concatenate([[0], np.cumsum(lengths[neg])])  # entries before each piece
    mass = np.concatenate([[0], np.cumsum(v[neg] * lengths[neg])])
    grid = default_delta_grid(M)
    # the largest k with k/M < d, at most the number of negative entries
    ks = np.array([min(max(math.ceil(d * M) - 1, 0), int(count[-1])) for d in grid])
    piece = np.searchsorted(count, ks, side="right") - 1
    prefix = mass[piece] + np.append(v[neg], 0)[piece] * (ks - count[piece])
    return SingularDiagnostic(
        level=level.level,
        negative_mass=Fraction(int(mass[-1]), M),
        carrier_measure=Fraction(int(count[-1]), M),
        singular_set_measure=Fraction(int(level.singular_runs.sum_below(M)), M),
        small_set_sup={d: Fraction(-int(x), M) for d, x in zip(grid, prefix)},
        # what q - 1 moves up balances what it moves down
        mass_balance_ok=int(((v - 1) * lengths).sum()) == 0,
    )


def singular_buildup(levels, tower: ModulusTower):
    """Per level: the negative mass of the quasi-cost, the measure of its
    carrier, and the greedy small-set suprema of -<(phi+psi)1_A, pi_tau>
    over sets of measure < delta, for delta on `default_delta_grid`."""
    out = []
    for level in levels:
        level.require_masks("singular_buildup")
        out.append(_diagnostic(level, tower))
    return out


@dataclass
class LevelScalars:
    """The per-level numbers `construct` records and `verify` re-checks."""

    ledger: SingularLedger
    diagnostic: SingularDiagnostic
    dual_value: Fraction
    correction_norm: Fraction


def level_scalars(level: TauLevel, tower: ModulusTower) -> LevelScalars:
    """The ledger, the singular diagnostic (default delta grid), and the
    dual value and correction norm of the corrected pair: the one
    per-level dual record, from the level's runs and pieces.  With
    psi = 1 - phi the corrected pair integrates to 1 - correction norm."""
    level.require_masks("level_scalars")
    norm = Fraction(_correction(tower, level.level), level.modulus)
    diagnostic = singular_buildup([level], tower)[0]
    return LevelScalars(singular_ledger(level, tower), diagnostic, 1 - norm, norm)
