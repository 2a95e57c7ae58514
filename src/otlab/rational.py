"""Exact rational scalars with a distinguished +infinity.

Everything downstream (solvers, constructions, reports) works in
`fractions.Fraction`; infinity is the singleton `INF`, never a large
sentinel number.  Inside the transport simplex alone an INF cell is
encoded exactly as an integer larger than any finite part a reduced cost
can reach (see `finite_ot.simplex`); nothing encoded leaves the solver.  Serialization is the canonical "p/q" form with q > 0
and gcd(p, q) = 1, so byte-identical inputs give byte-identical outputs.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm


class _Infinity:
    """The single +infinity value used for forbidden transport cells."""

    __slots__ = ()

    def __repr__(self):
        return "INF"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("otlab-inf")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True


INF = _Infinity()


def is_inf(x) -> bool:
    return x is INF


def as_fraction(x) -> Fraction:
    """Coerce ints/strings/Fractions to Fraction; INF is rejected."""
    if x is INF:
        raise ValueError("expected a finite rational, got INF")
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        f = parse_rational_str(x)
        if f is INF:
            raise ValueError(f"expected a finite rational, got {x!r}")
        return f
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def over_common_denominator(values):
    """(numerators, d): the sequence of Fractions `values` as plain ints
    over their least common denominator d, for exact sums and
    comparisons without a Fraction per step."""
    d = lcm(*{v.denominator for v in values})
    return [v.numerator * (d // v.denominator) for v in values], d


# An optional sign and ASCII digits, then optionally "/" and ASCII digits:
# int() alone would also take "1_000", inner spaces and non-ASCII digits.
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_rational_str(s: str):
    """Parse 'p/q', 'p', or 'inf' (case-insensitive), ignoring surrounding
    whitespace; p is ASCII digits with an optional sign, q ASCII digits.

    Raises ValueError on anything else, including a non-string (such as
    a bare JSON number) and a zero denominator.
    """
    if not isinstance(s, str):
        raise ValueError(f"expected a 'p/q' string, got {s!r}")
    t = s.strip()
    if t.lower() in ("inf", "+inf", "infinity"):
        return INF
    m = _RATIONAL.fullmatch(t)
    if m is None:
        raise ValueError(f"expected a 'p/q' string of ASCII digits, got {s!r}")
    num, den = m.groups()
    if den is None:
        return Fraction(int(num))
    den = int(den)
    if den == 0:
        raise ValueError(f"zero denominator in {s!r}")
    return Fraction(int(num), den)


def format_rational(x) -> str:
    """Canonical 'p/q' string (always with the denominator), or 'inf'."""
    if x is INF:
        return "inf"
    f = as_fraction(x)
    return f"{f.numerator}/{f.denominator}"
