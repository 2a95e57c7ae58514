"""Discrete circle model on Z/M_nZ.

Every function of interest is constant on the M_n level-n intervals
[l/M_n, (l+1)/M_n), so the whole level-n system lives on integer indices:
one rotation step is the shift l -> l + P_n (mod M_n), where
alpha_n = P_n/M_n is the level-n rational angle of the modulus tower.
Real-valued circle points never appear.

Indices are 0-based; the one-based digit labels used in hand notation
correspond to k_j = digit_j(l) + 1 in mixed radix (m_1, ..., m_n).
"""

from __future__ import annotations

import math
from functools import lru_cache
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

# int64 index arithmetic multiplies an index by a step count; keep the
# product clear of 2^63.  The one bound on a tower: no level modulus,
# M_1 = m_1 included, may exceed it.
_MAX_MODULUS = 3_000_000_000


class TowerError(Exception):
    pass


class TowerTooShallow(IndexError):
    """A level past the depth the tower was built to: a caller's bug,
    not a tower that cannot be built."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24 (fixed base set)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _crt(residues: Sequence[int], moduli: Sequence[int]) -> int:
    """Solution mod prod(moduli) for pairwise coprime moduli."""
    x, mod = 0, 1
    for r, m in zip(residues, moduli):
        inv = pow(mod % m, -1, m)
        x = x + mod * ((r - x) * inv % m)
        mod *= m
    return x % mod


@dataclass(frozen=True)
class ModulusTower:
    """Primes m_1..m_n with products M_j and numerators P_j of the
    level angles alpha_j = P_j/M_j = sum_{i<=j} 1/M_i.

    The congruence scheme m_{i+1} = +1 (mod m_i), m_{i+j} = -1 (mod m_i)
    for j >= 2 keeps every P_j coprime to M_j.  mode records whether the
    quintic growth condition m_j > 40*M_{j-1}^5 holds at every step.
    """

    primes: tuple
    M: tuple
    P: tuple
    mode: str

    @property
    def depth(self) -> int:
        return len(self.primes)

    def require_level(self, n: int):
        if not 1 <= n <= self.depth:
            raise TowerTooShallow(f"level {n} of a depth-{self.depth} tower")

    def alpha(self, n: int) -> Fraction:
        self.require_level(n)
        return Fraction(self.P[n - 1], self.M[n - 1])

    def modulus(self, n: int) -> int:
        self.require_level(n)
        return self.M[n - 1]

    def step(self, n: int) -> int:
        self.require_level(n)
        return self.P[n - 1]

    def middle_index(self, n: int) -> int:
        return (self.modulus(n) - 1) // 2

    def step_inverse(self, n: int) -> int:
        return pow(self.step(n) % self.modulus(n), -1, self.modulus(n))


def build_tower(m1: int, depth: int, growth_floor=None) -> ModulusTower:
    """Scan the congruence-determined arithmetic progressions for primes.

    growth_floor gives a minimum for each of m_2..m_depth (monotone);
    the smallest qualifying prime at or above each floor is taken.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if m1 < 5 or m1 % 2 == 0 or not is_probable_prime(m1):
        raise ValueError(f"m1 must be an odd prime >= 5, got {m1}")
    if m1 > _MAX_MODULUS:
        raise TowerError(f"modulus {m1} exceeds the supported index range")
    if growth_floor is None:
        floors = [0] * (depth - 1)
    else:
        floors = list(growth_floor)
        if len(floors) != depth - 1:
            raise ValueError("growth_floor must give one minimum per level >= 2")
        if any(a > b for a, b in zip(floors, floors[1:])):
            raise ValueError("growth_floor must be monotone")

    primes = [m1]
    M = [m1]
    P = [1]
    for j in range(2, depth + 1):
        # x = +1 (mod m_{j-1}),  x = -1 (mod m_i) for i <= j-2
        residues = [-1] * (j - 2) + [1]
        x0 = _crt(residues, primes)
        if x0 == 0:
            x0 = M[-1]
        floor = floors[j - 2]
        k0 = max(0, -(-(floor - x0) // M[-1]))  # ceil((floor - x0)/M)
        cand = x0 + k0 * M[-1]
        while cand * M[-1] <= _MAX_MODULUS:
            if cand > max(primes[-1], 4) and is_probable_prime(cand):
                break
            cand += M[-1]
        else:
            raise TowerError(
                f"no qualifying prime for level {j} keeps the level modulus "
                f"within the supported index range ({_MAX_MODULUS})"
            )
        primes.append(cand)
        M.append(M[-1] * cand)
        P.append(P[-1] * cand + 1)
        if math.gcd(P[-1], M[-1]) != 1:
            raise AssertionError("tower congruences failed to keep P, M coprime")

    compliant = all(
        primes[j] > 40 * M[j - 1] ** 5 for j in range(1, depth)
    )
    return ModulusTower(
        primes=tuple(primes),
        M=tuple(M),
        P=tuple(P),
        mode="paper_compliant" if compliant else "relaxed",
    )


def build_tower_mode(m1: int, depth: int, mode: str) -> ModulusTower:
    """Convenience builder: 'relaxed' takes the smallest qualifying
    primes, 'paper_compliant' floors each m_j above 40*M_{j-1}^5."""
    if mode == "relaxed":
        return build_tower(m1, depth)
    if mode != "paper_compliant":
        raise ValueError(f"unknown mode {mode!r}")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    tower = build_tower(m1, 1)
    floors = []
    for j in range(2, depth + 1):
        floors.append(40 * tower.M[-1] ** 5 + 1)
        tower = build_tower(m1, j, growth_floor=floors)
    return tower


class StepFunction:
    """Exact function constant on the M_n level-n intervals, held as an
    int64 array of its values."""

    __slots__ = ("level", "values")

    def __init__(self, level: int, values: np.ndarray):
        self.level = level
        self.values = values

    @property
    def modulus(self) -> int:
        return len(self.values)

    def __getitem__(self, l) -> int:
        return int(self.values[l])

    def integral(self) -> Fraction:
        return Fraction(int(self.values.sum(dtype=np.int64)), self.modulus)

    def to_csv(self) -> str:
        """The plot-ready rows as one string, rendered one index chunk at
        a time (see `csv_blocks`)."""
        M = self.modulus
        chunks = ((lo, self.values[lo:hi]) for lo, hi in index_chunks(M))
        return b"".join(csv_blocks(M, chunks)).decode("ascii")


# Indices per chunk of every level-sized pass: a chunk's int64 temporaries
# and the character planes of its CSV rows stay in cache, and no pass holds
# a level-sized temporary.  A row takes one text byte and one mask byte per
# character slot: 28 slots for most rows of (7c) level 2, with no sign plane
# for the index and left-endpoint columns.
_CHUNK = 1 << 15


def index_chunks(M: int):
    """Consecutive index ranges (lo, hi) of at most _CHUNK indices that
    cover 0..M-1 in order."""
    step = _CHUNK
    for lo in range(0, M, step):
        yield lo, min(lo + step, M)


_CSV_HEADER = b"index,left_endpoint,value\n"


def csv_blocks(M: int, chunks):
    """Bytes of the plot-ready CSV of a level step function on Z/MZ: the
    header, then one block of rows per (lo, values) chunk.

    Row l reads "l,p/q,v/1" with p/q = l/M in lowest terms (0/1 at
    l = 0), the canonical form of `format_rational`; the chunks must
    cover 0..M-1 in order.
    """
    yield _CSV_HEADER
    powers = _prime_powers(M)
    for lo, values in chunks:
        l = np.arange(lo, lo + len(values), dtype=np.int64)
        g = np.ones(len(l), dtype=np.int64)  # gcd(l, M), one pass per p^k | M
        for p, pk in powers:
            g[l % pk == 0] *= p
        rows = _render_rows((l, l // g, M // g, values), (b",", b"/", b",", b"/1\n"))
        yield rows.tobytes()


@lru_cache(maxsize=16)
def _prime_powers(M: int) -> tuple:
    """(p, p^k) for every prime power p^k > 1 dividing M, by trial
    division; a tower modulus has one per prime of the tower."""
    out, rest, p = [], M, 2
    while p * p <= rest:
        pk = p
        while rest % p == 0:
            rest //= p
            out.append((p, pk))
            pk *= p
        p += 1 if p == 2 else 2
    if rest > 1:
        out.append((rest, rest))
    return tuple(out)


# 10^1 .. 10^18: an int64 magnitude m has 1 + #{p : p <= m} digits.
_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)


def _render_rows(columns, seps) -> np.ndarray:
    """ASCII text of the rows "c0 s0 c1 s1 ... ck sk" as a uint8 array.

    Each column is an int64 array (one entry per row) written in decimal
    with a leading '-' when negative; each separator is literal bytes
    following its column.  Every character slot gets one plane of a
    (slots, rows) matrix plus a mask of the rows that use it; the text is
    the masked matrix read row by row.  A column has a sign plane only
    when it holds a negative entry.  Its digits come from `//` by the
    scalar 10 (several times faster than `np.divmod`) in the narrowest
    unsigned dtype that holds its largest magnitude: uint32 below 2^32,
    else uint64.
    """
    fields = []
    for c in columns:
        lo, hi = int(c.min()), int(c.max())
        if lo == np.iinfo(np.int64).min:
            raise OverflowError("int64 minimum has no int64 magnitude")
        top = max(-lo, hi)
        D = 1 + int(np.searchsorted(_POW10, top, side="right"))
        fields.append((lo < 0, D, np.uint32 if top < 1 << 32 else np.uint64))
    slots = sum(neg + D + len(sep) for (neg, D, _), sep in zip(fields, seps))
    text = np.empty((slots, len(columns[0])), dtype=np.uint8)
    used = np.ones(text.shape, dtype=bool)
    off = 0
    for c, (neg, D, dtype), sep in zip(columns, fields, seps):
        if neg:
            text[off] = ord("-")
            np.less(c, 0, out=used[off])
            off += 1
        mag = np.abs(c, out=np.empty(len(c), dtype=dtype), casting="unsafe")
        for k in range(D):  # k-th digit from the right; mag = |c| // 10^k
            slot = off + D - 1 - k
            if k:
                np.greater(mag, 0, out=used[slot])
            q = mag // 10
            np.add(mag - q * 10, ord("0"), out=text[slot], casting="unsafe")
            mag = q
        off += D
        text[off : off + len(sep)] = np.frombuffer(sep, dtype=np.uint8)[:, None]
        off += len(sep)
    return text.T[used.T]


def _half_weights(mid: int, index):
    """The L/R weight at each index: +1 on L^n (below the middle index
    mid), 0 on the middle interval, -1 on R^n."""
    return np.sign(mid - index)


def _orbit_weights(tower: ModulusTower, n: int, lo: int, hi: int):
    """Orbit steps lo..hi-1: the index at step i, and the L/R weight
    there."""
    M = tower.modulus(n)
    orbit = np.arange(lo, hi, dtype=np.int64)
    orbit *= tower.step(n)
    orbit %= M
    return orbit, _half_weights(tower.middle_index(n), orbit)


@lru_cache(maxsize=16)
def _phi_values(tower: ModulusTower, n: int):
    """phi at the orbit index of step i is the sum of the weights of
    steps 0..i-1, accumulated chunk by chunk with a carry."""
    M = tower.modulus(n)
    phi = np.empty(M, dtype=np.int64)
    carry = 0
    for lo, hi in index_chunks(M):
        orbit, w = _orbit_weights(tower, n, lo, hi)
        partial = np.cumsum(w)
        partial -= w
        partial += carry
        phi[orbit] = partial
        carry = int(partial[-1] + w[-1])
    phi.setflags(write=False)
    return phi


def phi_level(tower: ModulusTower, n: int) -> StepFunction:
    """The level-n counting potential: zero at index 0, stepping by +1
    after a left-half visit and -1 after a right-half visit along the
    rotation orbit.  The full orbit balances, so the partial sums give a
    well-defined function of the index.
    """
    tower.require_level(n)
    return StepFunction(n, _phi_values(tower, n))


def quasi_cost_values(phi: np.ndarray, sigma: np.ndarray, lo: int = 0) -> np.ndarray:
    """1 + phi - phi o sigma: the quasi-cost phi(l) + psi(sigma(l)) of the
    index map sigma under the pair (phi, psi = 1 - phi), as a fresh array.
    sigma may be the chunk of the map on indices lo, lo+1, ..."""
    q = phi[lo : lo + len(sigma)] - phi[sigma]
    q += 1
    return q


@dataclass
class OscillationReport:
    """Empirical oscillation extrema of phi^n with the bounds that carry
    explicit constants (level 2); deeper levels report empirics only."""

    level: int
    neighbor_max: int
    neighbor_bound: Optional[int]
    block_rise_min: int
    block_rise_bound: Optional[Fraction]
    boundary_spread: int
    boundary_bound: Optional[int]
    visit_balance_max: Optional[int]
    visit_balance_bound: Optional[int]

    @property
    def neighbor_ok(self):
        return self.neighbor_bound is None or self.neighbor_max <= self.neighbor_bound

    @property
    def block_rise_ok(self):
        return self.block_rise_bound is None or self.block_rise_min >= self.block_rise_bound

    @property
    def visit_balance_ok(self):
        return self.visit_balance_bound is None or (
            self.visit_balance_max is not None
            and self.visit_balance_max <= self.visit_balance_bound
        )


def verify_oscillations(tower: ModulusTower, n: int) -> OscillationReport:
    """Exhaustive oscillation scan of phi^n (report style; callers decide
    which bounds are assertable for the tower's growth mode)."""
    if n < 2:
        raise ValueError("oscillation bounds concern levels >= 2")
    tower.require_level(n)
    phi = phi_level(tower, n).values
    M = tower.modulus(n)
    m_n = tower.primes[n - 1]
    M_prev = tower.M[n - 2]
    M1 = tower.M[0]

    neighbor_max = int(np.abs(phi - np.roll(phi, -1)).max())

    starts = phi[0::m_n]
    mids = phi[(m_n - 1) // 2 :: m_n]
    block_rise_min = int(mids.min() - starts.max())

    sub = np.arange(M, dtype=np.int64) % m_n
    k1 = sub + 1
    boundary = np.minimum(k1, m_n - k1) < M_prev
    bvals = phi[boundary]
    boundary_spread = int(bvals.max() - bvals.min()) if bvals.size else 0

    visit_balance_max = None
    visit_balance_bound = None
    if n == 2:
        # windowed orbit sums over m_2 - 2 steps, all starting points
        _, w = _orbit_weights(tower, n, 0, M)
        S = np.concatenate([[0], np.cumsum(np.concatenate([w, w]))])
        k = m_n - 2
        D = S[k : k + M] - S[:M]
        visit_balance_max = int(np.abs(D).max())
        visit_balance_bound = 4 * M1

    return OscillationReport(
        level=n,
        neighbor_max=neighbor_max,
        neighbor_bound=4 * M1 * M1 if n == 2 else None,
        block_rise_min=block_rise_min,
        block_rise_bound=Fraction(m_n, 2 * M_prev) - 10 * M1**3 if n == 2 else None,
        boundary_spread=boundary_spread,
        boundary_bound=None,
        visit_balance_max=visit_balance_max,
        visit_balance_bound=visit_balance_bound,
    )
