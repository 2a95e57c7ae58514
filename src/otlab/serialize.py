"""Deterministic artifact formats.

All rationals go out as canonical "p/q" strings, JSON keys are sorted,
and nothing carries a timestamp, so identical inputs give byte-identical
artifacts (the regression tests diff them).

Only the RLE functions of the construction's tau levels use numpy, and
import it when called: `otlab solve` and `finite_ot` callers that write
their reports with `dumps` never load numpy or the construction modules.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING

from .rational import format_rational

if TYPE_CHECKING:
    import numpy as np

    from .circle import ModulusTower
    from .tau import TauLevel


def rle_encode(values) -> list:
    """[[value, run_length], ...] over the sequence, as Python ints, from
    its runs (`circle.Runs`)."""
    import numpy as np

    from .circle import Runs

    return Runs.from_array(np.asarray(values)).rle()


def rle_pairs(pairs) -> np.ndarray:
    """The RLE as a (runs, 2) int64 array; ValueError unless pairs is a
    list of [value, run_length] integer pairs with non-negative run
    lengths."""
    import numpy as np

    if not pairs:
        return np.zeros((0, 2), dtype=np.int64)
    a = np.asarray(pairs)
    if a.dtype.kind != "i" or a.ndim != 2 or a.shape[1] != 2:
        raise ValueError("RLE must be a list of [value, run_length] integer pairs")
    if (a[:, 1] < 0).any():
        raise ValueError(f"RLE run length {int(a[:, 1].min())} is negative")
    return a.astype(np.int64)


def rle_decode(pairs) -> np.ndarray:
    """Inverse of rle_encode; ValueError as `rle_pairs`."""
    import numpy as np

    a = rle_pairs(pairs)
    return np.repeat(a[:, 0], a[:, 1])


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
        "tau_rle": level.tau_runs.rle(),
        "good_rle": level.good_runs.rle(),
        "singular_rle": level.singular_runs.rle(),
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


def artifact_json(obj) -> str:
    """Text of a JSON artifact file (tower, tau level, ledger)."""
    return dumps(obj) + "\n"


def diagnostics_jsonl(records) -> str:
    """Text of diagnostics.jsonl: one sorted-key JSON line per level."""
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


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
