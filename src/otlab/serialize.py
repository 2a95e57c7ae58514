"""Deterministic artifact formats.

All rationals go out as canonical "p/q" strings, JSON keys are sorted,
and nothing carries a timestamp, so identical inputs give byte-identical
artifacts (the regression tests diff them).
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from .circle import ModulusTower
from .rational import format_rational
from .tau import TauLevel


def rle_encode(values) -> list:
    """[[value, run_length], ...] over the sequence, as Python ints."""
    a = np.asarray(values, dtype=np.int64)
    if a.size == 0:
        return []
    starts = np.concatenate(([0], np.flatnonzero(a[1:] != a[:-1]) + 1))
    lengths = np.diff(starts, append=a.size)
    return np.stack([a[starts], lengths], axis=1).tolist()


def rle_decode(pairs) -> np.ndarray:
    """Inverse of rle_encode; ValueError unless pairs is a list of
    [value, run_length] integer pairs with non-negative run lengths."""
    if not pairs:
        return np.zeros(0, dtype=np.int64)
    a = np.asarray(pairs)
    if a.dtype.kind != "i" or a.ndim != 2 or a.shape[1] != 2:
        raise ValueError("RLE must be a list of [value, run_length] integer pairs")
    if (a[:, 1] < 0).any():
        raise ValueError(f"RLE run length {int(a[:, 1].min())} is negative")
    return np.repeat(a[:, 0].astype(np.int64), a[:, 1])


def tower_to_dict(tower: ModulusTower) -> dict:
    return {
        "primes": list(tower.primes),
        "moduli": list(tower.M),
        "numerators": list(tower.P),
        "mode": tower.mode,
    }


def tau_level_to_dict(level: TauLevel, tower: ModulusTower) -> dict:
    return {
        "level": level.level,
        "modulus": level.modulus,
        "primes": list(tower.primes[: level.level]),
        "tau_rle": rle_encode(level.tau),
        "good_rle": rle_encode(level.good_mask),
        "singular_rle": rle_encode(level.singular_mask),
    }


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1)


def ledger_to_dict(ledger) -> dict:
    return {
        "level": ledger.level,
        "singular_mass": format_rational(ledger.singular_mass),
        "good_deviation": format_rational(ledger.good_deviation),
        "change_measure": format_rational(ledger.change_measure),
    }


def diagnostic_to_dict(diag, dual_value: Fraction, correction_norm: Fraction) -> dict:
    """One JSONL record of the per-level diagnostics series."""
    return {
        "level": diag.level,
        "dual_value": format_rational(dual_value),
        "correction_norm": format_rational(correction_norm),
        "carrier_measure": format_rational(diag.carrier_measure),
        "negative_mass": format_rational(diag.negative_mass),
        "singular_set_measure": format_rational(diag.singular_set_measure),
        "small_set_sup": {
            format_rational(d): format_rational(v)
            for d, v in sorted(diag.small_set_sup.items())
        },
    }
