"""Dual pairs along the construction and the singular-mass diagnostics.

The raw pair at level n is (phi^n, 1 - phi^n).  Its corrected version
subtracts the positive part of the constraint excess on each of the
three level-n graphs (diagonal, one rotation step, the constructed
permutation).  By construction the raw pair meets all three constraints
-- with equality off the middle interval -- so the corrections are
computed, recorded, and come out zero; the quantities that actually
shrink with the level (the good-set deviation from the stable value and
the rotation drift against the next level's angle) are reported instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .circle import ModulusTower, phi_level, quasi_cost_values
from .tau import TauLevel, quasi_cost, refinement_deviation, singular_ledger

ZERO = Fraction(0)


def _one_step_cost(tower: ModulusTower, n: int):
    """Level-n cost on the one-step graph: 0 on L^n, 2 on middle u R^n.

    The middle interval straddles the half point; it is grouped with the
    2-valued side so the bound is the weaker of its two limit values.
    """
    M = tower.modulus(n)
    mid = tower.middle_index(n)
    c = np.full(M, 2, dtype=np.int64)
    c[:mid] = 0
    return c


@dataclass
class DualPairLevel:
    """Raw and corrected potentials at one level, with exact norms."""

    level: int
    phi_raw: np.ndarray
    psi: np.ndarray
    phi_corrected: np.ndarray
    correction_norm: Fraction
    good_deviation: Fraction
    refinement_deviation: Fraction
    rotation_drift_bound: Optional[Fraction]

    @property
    def modulus(self) -> int:
        return int(self.phi_raw.shape[0])


def corrected_pair(level: TauLevel, tower: ModulusTower) -> DualPairLevel:
    n = level.level
    M = level.modulus
    P = tower.step(n)
    phi = phi_level(tower, n).values
    psi = 1 - phi

    idx = np.arange(M, dtype=np.int64)
    term_diag = np.maximum(phi + psi - 1, 0)
    pair_rot = phi + psi[(idx + P) % M]
    term_rot = np.maximum(pair_rot - _one_step_cost(tower, n), 0)
    q = quasi_cost(level, tower).values
    pair_tau = phi + psi[level.sigma]
    term_tau = np.maximum(pair_tau - q, 0)

    correction = term_diag + term_rot + term_tau
    phi_corr = phi - correction
    norm = Fraction(int(correction.sum(dtype=np.int64)), M)

    drift = None
    if n < tower.depth:
        drift = Fraction(4 * tower.M[n - 1], tower.primes[n])

    return DualPairLevel(
        level=n,
        phi_raw=phi,
        psi=psi,
        phi_corrected=phi_corr,
        correction_norm=norm,
        good_deviation=singular_ledger(level, tower).good_deviation,
        refinement_deviation=refinement_deviation(level, tower),
        rotation_drift_bound=drift,
    )


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


def verify_feasibility(
    pair: DualPairLevel, level: TauLevel, tower: ModulusTower, phi=None
) -> FeasibilityReport:
    """Check phi+psi <= cost on the diagonal, the one-step graph and the
    constructed graph, index by index; also measure where the pair is
    tight on the diagonal and the one-step graph simultaneously."""
    n = level.level
    M = level.modulus
    P = tower.step(n)
    if phi is None:
        phi = pair.phi_corrected
    psi = pair.psi
    idx = np.arange(M, dtype=np.int64)

    diag = phi + psi
    diag_bad = np.nonzero(diag > 1)[0]

    rot = (idx + P) % M
    pair_rot = phi + psi[rot]
    c_rot = _one_step_cost(tower, n)
    rot_bad = np.nonzero(pair_rot > c_rot)[0]

    q = quasi_cost(level, tower).values
    pair_tau = phi + psi[level.sigma]
    tau_bad = np.nonzero(pair_tau > q)[0]

    # Tightness against the graded (step-count) one-step values, which
    # differ from the bound only on the middle interval.
    one_step_graded = quasi_cost_values(phi_level(tower, n).values, rot)
    tight = (diag == 1) & (pair_rot == one_step_graded)
    eq_measure = Fraction(int(tight.sum()), M)

    return FeasibilityReport(
        level=n,
        diag_violations=diag_bad.tolist(),
        rot_violations=rot_bad.tolist(),
        tau_violations=tau_bad.tolist(),
        equality_measure=eq_measure,
    )


def dual_value(pair: DualPairLevel) -> Fraction:
    M = pair.modulus
    total = int(pair.phi_corrected.sum(dtype=np.int64)) + int(
        pair.psi.sum(dtype=np.int64)
    )
    return Fraction(total, M)


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


def singular_buildup(levels, tower: ModulusTower, delta_grid=None):
    """Per level: the negative mass of the quasi-cost, the measure of its
    carrier, and the greedy small-set suprema of -<(phi+psi)1_A, pi_tau>
    over sets of measure < delta."""
    out = []
    for level in levels:
        M = level.modulus
        q = quasi_cost(level, tower).values
        neg = np.where(q < 0, q, 0)
        negative_mass = Fraction(int(neg.sum(dtype=np.int64)), M)
        carrier = Fraction(int((q < 0).sum()), M)
        sing_meas = Fraction(int(level.singular_mask.sum()), M)

        plus = int(np.where(q > 1, q - 1, 0).sum(dtype=np.int64))
        minus = int(np.where(q < 1, 1 - q, 0).sum(dtype=np.int64))
        balance_ok = plus == minus

        grid = delta_grid if delta_grid is not None else default_delta_grid(M)
        q_sorted = np.sort(q)
        prefix = np.concatenate([[0], np.cumsum(q_sorted, dtype=np.int64)])
        sup = {}
        n_neg = int((q_sorted < 0).sum())
        for d in grid:
            dM = Fraction(d) * M
            k = int(dM) - 1 if dM.denominator == 1 else int(dM)  # largest k/M < d
            k = min(max(k, 0), n_neg)  # only negative entries help
            sup[Fraction(d)] = Fraction(-int(prefix[k]), M)
        out.append(
            SingularDiagnostic(
                level=level.level,
                negative_mass=negative_mass,
                carrier_measure=carrier,
                singular_set_measure=sing_meas,
                small_set_sup=sup,
                mass_balance_ok=balance_ok,
            )
        )
    return out
