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

# The one bound on a tower: no level modulus, M_1 = m_1 included, may
# exceed it.  Below 2^31 - 1 every value a level takes fits int32, the
# dtype of the runs of tau and of the quasi-cost pieces and of every
# array expanded from them: 0 <= sigma < M, |tau| < M, |phi| <= (M-1)/2
# and the quasi-cost |1 + phi - phi o sigma| <= M.  Products of an index
# by a step count (< 2^62) and the floor sums behind `phi_points` (< 2^62)
# are formed in int64.
_MAX_MODULUS = 2**31 - 1


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
    integer array of its values (int32 for phi and the quasi-costs)."""

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
        """The plot-ready rows as one string, rendered from the runs of
        the values (see `runs_csv_blocks`)."""
        return b"".join(runs_csv_blocks(Runs.from_array(self.values))).decode("ascii")


# The most rows in a block of a CSV.  On `construct` and `verify` the CSV
# is the one walk over a level's indices, a block at a time, so no
# level-sized text is held.  A block of super-rows (`runs_csv_blocks`) is
# its rows' text, about 28 bytes a row at (7c) level 2, under 1 MB a
# block; a block rendered row by row (`_render_rows`) is first laid out at
# its widest row.
_CHUNK = 1 << 15


class Runs:
    """A function on 0..size-1 held by its maximal constant runs.

    Run r takes values[r] on the indices starts[r]..starts[r+1]-1, the
    last run up to size-1; starts rises from 0 and neighbouring runs
    differ in value, so a function has one Runs, and its run-length code
    is (values, run lengths).  A construction level is a few runs per
    parent index whatever its modulus, so its records and checks are sums
    over the common pieces of its runs (`overlay`), and the CSV expands
    only the runs that meet each block of rows (`chunk`); `array` expands
    the whole function, for callers that need it, into a fresh array.
    starts and values are read-only."""

    __slots__ = ("starts", "values", "size")

    def __init__(self, starts, values, size: int):
        starts.setflags(write=False)
        values.setflags(write=False)
        self.starts = starts
        self.values = values
        self.size = size

    @classmethod
    def from_starts(cls, starts, values, size: int) -> "Runs":
        """The function that takes values[i] from starts[i] on, up to the
        next start: starts ascend from 0, and of equal starts the last
        one counts."""
        starts = np.asarray(starts, dtype=np.int64)
        values = np.asarray(values)
        last = np.ones(starts.size, dtype=bool)
        np.not_equal(starts[1:], starts[:-1], out=last[:-1])
        starts, values = starts[last], values[last]
        new = np.ones(starts.size, dtype=bool)
        np.not_equal(values[1:], values[:-1], out=new[1:])
        return cls(starts[new], values[new], size)

    @classmethod
    def from_array(cls, a) -> "Runs":
        """The runs of the array a: a run starts at 0 and wherever a
        value differs from the one before."""
        new = np.ones(a.size, dtype=bool)
        np.not_equal(a[1:], a[:-1], out=new[1:])
        starts = np.flatnonzero(new).astype(np.int64, copy=False)
        return cls(starts, a[starts], a.size)

    def lengths(self) -> np.ndarray:
        out = np.empty_like(self.starts)
        np.subtract(self.starts[1:], self.starts[:-1], out=out[:-1])
        out[-1:] = self.size - self.starts[-1:]
        return out

    def chunk(self, lo: int, hi: int) -> np.ndarray:
        """The values at the indices lo..hi-1, as a fresh array."""
        first = int(np.searchsorted(self.starts, lo, side="right")) - 1
        stop = int(np.searchsorted(self.starts, hi, side="left"))
        edges = np.append(self.starts[first:stop], hi)
        edges[0] = lo
        return np.repeat(self.values[first:stop], np.diff(edges))

    def array(self) -> np.ndarray:
        return np.repeat(self.values, self.lengths())

    def at(self, x):
        """The values at the indices x."""
        return self.values[np.searchsorted(self.starts, x, side="right") - 1]

    def sum_below(self, x):
        """The sums of the values at the indices below each of x, as int64
        (for a mask: how many of those indices it holds)."""
        r = np.searchsorted(self.starts, x, side="right") - 1
        v = self.values.astype(np.int64)
        before = np.concatenate([[0], np.cumsum(v * self.lengths())])
        return before[r] + v[r] * (np.asarray(x) - self.starts[r])

    def rle(self) -> list:
        """[[value, run_length], ...], as Python ints."""
        pairs = np.stack([self.values.astype(np.int64), self.lengths()], axis=1)
        return pairs.tolist()


def overlay(*functions: Runs):
    """The common pieces of functions of one size, each constant on every
    piece: (starts, lengths, values), where values holds each function's
    value on each piece, in the order given."""
    # Sorted, each start once.  np.unique would do, but on its first call
    # numpy 2 imports numpy.ma, which adds 1.4 MB to a verb's peak RSS.
    starts = np.sort(np.concatenate([f.starts for f in functions]))
    starts = starts[np.diff(starts, prepend=-1) != 0]
    lengths = np.diff(np.append(starts, functions[0].size))
    return starts, lengths, [f.at(starts) for f in functions]


_CSV_HEADER = b"index,left_endpoint,value\n"


def _csv_rows(M: int, lo: int, values, powers) -> bytes:
    """The rows lo, lo+1, ... of the CSV, one per entry of values."""
    l = np.arange(lo, lo + len(values), dtype=np.int64)
    # l/M divided by gcd(l, M): by p once for each p^k | M that divides l
    num, den = l.copy(), np.full(len(l), M, dtype=np.int64)
    for p, pk in powers:
        num[-lo % pk :: pk] //= p
        den[-lo % pk :: pk] //= p
    return _render_rows((l, num, den, values), (b",", b"/", b",", b"/1\n"))


def runs_csv_blocks(q: Runs):
    """Bytes of the plot-ready CSV of the function q on Z/MZ (M = q.size):
    the header, then the rows, rendered from q's runs in blocks of at most
    _CHUNK rows.  `construct` and `verify` render a level's CSV from its
    quasi-cost pieces, mostly as super-rows; `StepFunction.to_csv` renders
    any array from its runs.

    Row l reads "l,a/b,v/1" with a/b = l/M in lowest terms (0/1 at l = 0),
    the canonical form of `format_rational`, and v = q(l).

    Let P be M with its prime factor above sqrt(M), if any, taken out: at
    a tower level, M_{n-1}, as m_n > M_{n-1}.  Cut 0..M-1 at the starts of
    the runs, at each multiple of that prime and the index after it, and
    where the digit count of l or of l/g steps for a divisor g of P (at
    g*10^d).  Between two cuts the value and the digit count of l hold,
    and gcd(l, M) (a multiple of the prime stands alone) and the digit
    count of the numerator l/gcd(l, M) depend on l mod P only, so P
    consecutive rows make one fixed-width super-row.  When a block holds
    _SUPER_ROW_PERIODS periods, a stretch of at least as many is rendered
    as copies of its super-row (`_super_rows`), and the rest, merged, row
    by row (`_csv_rows`).  M must be below 2^32, as every level modulus is.
    """
    yield _CSV_HEADER
    M = q.size
    powers = _prime_powers(M)
    big = powers[-1][0] if powers and powers[-1][0] ** 2 > M else 0
    P = M // (big or 1)
    divisors = [1]
    for p, pk in powers:
        if p != big:
            divisors += [d * pk for d in divisors if d % p]
    tens = 10 ** np.arange(1, len(str(M)), dtype=np.int64)
    cuts = [q.starts, [M], np.outer(divisors, tens).ravel()]
    if big:
        cuts += [np.arange(0, M, big), np.arange(1, M + 1, big)]
    cuts = np.sort(np.concatenate(cuts))
    cuts = cuts[(cuts <= M) & (np.diff(cuts, prepend=-1) != 0)]
    done = 0
    if _SUPER_ROW_PERIODS * P <= _CHUNK:
        for i in np.flatnonzero(np.diff(cuts) >= _SUPER_ROW_PERIODS * P):
            a, b = int(cuts[i]), int(cuts[i + 1])
            yield from _row_blocks(q, done, a, powers)
            yield from _super_rows(M, P, a, b, int(q.at(a)))
            done = b
    yield from _row_blocks(q, done, M, powers)


# Periods a stretch of a level's CSV, and a block, must hold to be
# rendered as super-rows.  A block of super-rows makes some numpy calls
# per row of its period whatever its length, so few periods render faster
# row by row.  Measured on pieces of k periods at P = 7 (M = 4,706,261),
# in two runs, against every row one by one: 1.2-1.3 times as long at
# k = 128, 0.74-0.9 at 256, about 0.5 at 512.  On M = 5 x 11 x 1409 and
# 5 x 31 x 1489 (P = 55 and 155), whose stretches end at each multiple
# of 1409 or 1489 and so hold at most 25 or 9 periods, super-rows took
# 5 to 15 times as long.
_SUPER_ROW_PERIODS = 256


def _row_blocks(q: Runs, lo: int, hi: int, powers):
    """The rows lo..hi-1 of q's CSV, one block per _CHUNK rows."""
    for a in range(lo, hi, _CHUNK):
        b = min(a + _CHUNK, hi)
        yield _csv_rows(q.size, a, q.chunk(a, b), powers)


def _super_rows(M: int, P: int, a: int, b: int, value: int):
    """The rows a..b-1 of a stretch of `runs_csv_blocks` on which q takes
    value, in blocks of _CHUNK // P super-rows.

    The super-row template holds the denominators and the values.  The
    digits of l are spelled once for the whole block (`_consecutive_digits`)
    and go to the index and, on the rows coprime to P, to the numerator;
    only the numerators l/g, g > 1, are spelled apart.  The last
    super-row is cut at b."""
    D = len(str(a))
    g = [math.gcd(a + j, M) for j in range(P)]
    num = [len(str((a + j) // g[j])) for j in range(P)]
    template, row_at = bytearray(), []
    for j in range(P):
        row_at.append(len(template))
        template += b"0" * D + b"," + b"0" * num[j] + f"/{M // g[j]},{value}/1\n".encode()
    width = len(template)
    step = _CHUNK // P * P
    for lo in range(a, b, step):
        n = min(b - lo, step)
        K = -(-n // P)
        block = template * K
        text = np.frombuffer(block, dtype=np.uint8).reshape(K, width)
        digits = [(s, w.reshape(K, P).T.copy()) for s, w in _consecutive_digits(lo, K * P, D)]
        for j in range(P):
            _put_digits(text, row_at[j], digits, j)
            if g[j] == 1:
                _put_digits(text, row_at[j] + D + 1, digits, j)
            else:
                l = np.arange(lo + j, lo + K * P, P, dtype=np.uint32)
                _put_digits(text, row_at[j] + D + 1, _digit_groups(l[None] // g[j], num[j]), 0)
        del text
        del block[(n // P) * width + row_at[n % P] :]
        yield block


def _consecutive_digits(lo: int, n: int, D: int):
    """`_digit_groups` of the D-digit numbers lo..lo+n-1, with no division:
    the words of l mod 10^4 are a slice of the table repeated, and each
    word above them holds for 10^k consecutive numbers."""
    if D < 4:
        return _digit_groups(np.arange(lo, lo + n, dtype=np.uint32), D)
    words = _four_digit_words()
    out = []
    for s in _word_slots(D):
        d = 10 ** (D - 4 - s)
        if d == 1:
            r = lo % 10_000
            out.append((s, np.resize(words, r + n)[r:]))
        else:
            tops = np.arange(lo // d, (lo + n - 1) // d + 1)
            counts = np.diff(np.clip(np.append(tops, tops[-1] + 1) * d, lo, lo + n))
            out.append((s, np.repeat(words.take(tops % 10_000), counts)))
    return out


def _digit_groups(x, D):
    """The D-digit numbers x (uint32) spelled as (slot, array) pairs: for
    D >= 4, four-digit words of `_four_digit_words` at `_word_slots`;
    below that, one digit byte per slot."""
    if D < 4:
        return [(s, (x // 10 ** (D - 1 - s) % 10 + ord("0")).astype(np.uint8)) for s in range(D)]
    words = _four_digit_words()
    return [(s, words.take(x // 10 ** (D - 4 - s) % 10_000)) for s in _word_slots(D)]


def _word_slots(D: int) -> list:
    """Where the four-digit words of a number of D >= 4 digits start: 0,
    4, ... and D - 4, the last overlapping the one before."""
    return sorted({*range(0, D - 4, 4), D - 4})


def _put_digits(text, off, groups, j):
    """Write row j of each (slot, array) of `_digit_groups` into the text
    matrix at column off + slot, through a view of the array's dtype."""
    for s, w in groups:
        text[:, off + s : off + s + w.itemsize].view(w.dtype)[:, 0] = w[j]


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


@lru_cache(maxsize=1)
def _four_digit_words() -> np.ndarray:
    """Entry r is the uint32 word whose four bytes spell r as "0000".."9999".
    Built on first use: only the CSV writers need it."""
    text = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    text[..., 0] = digits[:, None, None, None]
    text[..., 1] = digits[:, None, None]
    text[..., 2] = digits[:, None]
    text[..., 3] = digits
    words = text.view(np.uint32).reshape(10_000)
    words.setflags(write=False)
    return words


def _render_rows(columns, seps) -> bytearray:
    """ASCII text of the rows "c0 s0 c1 s1 ... ck sk".

    Each column is an int64 or int32 array (one entry per row) written
    in decimal with a leading '-' when negative; each separator is
    literal bytes following its column.  Every row is laid out at the
    widest field widths of the block, in one C-contiguous (rows, width)
    byte matrix made of copies of a template row that holds the
    separators.  A column has a sign slot only when it holds a negative
    entry.  The slots a row does not use (the sign slot of a non-negative
    entry, the leading zeros of an entry with fewer digits than the
    widest) are set to NUL, and the text is the matrix with its NULs
    dropped.

    Digits come from `//` by a scalar (several times faster than
    `np.divmod`) in the narrowest unsigned dtype that holds the column's
    largest magnitude: uint32 below 2^32, else uint64.  Each full group of
    four digits is one uint32 word of `_four_digit_words`, written through a
    uint32 view of its four slots; the digits left over go one slot at a
    time.
    """
    n = len(columns[0])
    template = bytearray()
    fields = []
    for c, sep in zip(columns, seps):
        lo, hi = int(c.min()), int(c.max())
        if lo == np.iinfo(np.int64).min:
            raise OverflowError("int64 minimum has no int64 magnitude")
        top = max(-lo, hi)
        D = 1 + int(np.searchsorted(_POW10, top, side="right"))
        fields.append((len(template), lo < 0, D, np.uint32 if top < 1 << 32 else np.uint64))
        template += b"-" * (lo < 0) + b"0" * D + sep
    rows = template * n
    text = np.frombuffer(rows, dtype=np.uint8).reshape(n, len(template))
    for c, (off, neg, D, dtype) in zip(columns, fields):
        if neg:
            np.multiply(c < 0, ord("-"), out=text[:, off], casting="unsafe")
            off += 1
        mag = np.abs(c, out=np.empty(n, dtype=dtype), casting="unsafe")
        rest, end = mag, off + D  # rest = mag // 10^(off + D - end)
        for _ in range(D // 4):
            q = rest // 10_000
            words = text[:, end - 4 : end].view(np.uint32)
            words[:, 0] = _four_digit_words().take(rest - q * 10_000)
            rest = q
            end -= 4
        for slot in range(end - 1, off - 1, -1):
            q = rest // 10
            np.add(rest - q * 10, ord("0"), out=text[:, slot], casting="unsafe")
            rest = q
        # Leading zeros: slot off + j pads the rows of fewer than D - j digits.
        short = np.flatnonzero(mag < 10 ** (D - 1))
        for j in range(D - 1):
            text[short, off + j] = 0
            short = short[mag[short] < 10 ** (D - 2 - j)]
    return rows.replace(b"\0", b"")


def _half_weights(mid: int, index):
    """The L/R weight at each index: +1 on L^n (below the middle index
    mid), 0 on the middle interval, -1 on R^n."""
    return np.sign(mid - index)


def _orbit_weights(tower: ModulusTower, n: int):
    """The whole orbit: the index at step i, and the L/R weight there."""
    M = tower.modulus(n)
    orbit = np.arange(M, dtype=np.int64)
    orbit *= tower.step(n)
    orbit %= M
    return orbit, _half_weights(tower.middle_index(n), orbit)


def _phi_values(tower: ModulusTower, n: int):
    """phi at the orbit index of step i is the sum of the weights of
    steps 0..i-1, one cumulative sum over the whole orbit, into a fresh
    level-sized array: the whole potential, for `gap`, the oscillation
    scan and the demos.  The construction reads phi at points only
    (`phi_points`)."""
    M = tower.modulus(n)
    orbit, w = _orbit_weights(tower, n)
    partial = np.cumsum(w)
    partial -= w
    phi = np.empty(M, dtype=np.int32)
    phi[orbit] = partial
    phi.setflags(write=False)
    return phi


def _floor_sums(n, m: int, a: int, b):
    """sum_{i<n} floor((a*i + b)/m) for each entry of the int64 arrays n
    and b (n, b >= 0; 0 <= a < m < 2^31), by the Euclid-like reduction
    of `floor_sum` in the AtCoder Library, on every entry at once.  The
    entries still reducing are kept compact; each sum, and every term
    and product on the way, stays below 2^62."""
    n = np.array(n, dtype=np.int64)
    b = np.array(b, dtype=np.int64)
    m = np.full(n.shape, m, dtype=np.int64)
    a = np.full(n.shape, a, dtype=np.int64)
    out = np.zeros(n.shape, dtype=np.int64)
    at = np.arange(n.size)
    while at.size:
        part = (n - 1) * n // 2 * (a // m)
        a %= m
        part += n * (b // m)
        b %= m
        out[at] += part
        y = a * n + b
        more = y >= m
        at, y, m, a = at[more], y[more], m[more], a[more]
        n, b = y // m, y % m
        m, a = a, m
    return out


def phi_points(tower: ModulusTower, n: int, x) -> np.ndarray:
    """phi at the indices x (int64), each in O(log M_n) steps.

    x is the orbit index of step k = x * P_n^-1 (mod M_n), and phi(x)
    counts the steps i < k that land below the middle index minus those
    that land above it.  For 0 <= b <= M the steps with iP mod M >= b
    number floor_sum(k, M, P, M - b) - floor_sum(k, M, P, 0)."""
    M, P, mid = tower.modulus(n), tower.step(n), tower.middle_index(n)
    k = np.asarray(x, dtype=np.int64) % M * tower.step_inverse(n) % M
    fs = _floor_sums(np.tile(k, 3), M, P, np.repeat([M - mid, M - mid - 1, 0], k.size))
    at_or_above_mid, above_mid, base = fs.reshape(3, -1)
    return k - (at_or_above_mid - base) - (above_mid - base)


def phi_level(tower: ModulusTower, n: int) -> StepFunction:
    """The level-n counting potential: zero at index 0, stepping by +1
    after a left-half visit and -1 after a right-half visit along the
    rotation orbit.  The full orbit balances, so the partial sums give a
    well-defined function of the index.
    """
    tower.require_level(n)
    return StepFunction(n, _phi_values(tower, n))


def quasi_cost_values(phi: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """1 + phi - phi o sigma: the quasi-cost phi(l) + psi(sigma(l)) of the
    index map sigma under the pair (phi, psi = 1 - phi), as a fresh array."""
    q = phi - phi[sigma]
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
        _, w = _orbit_weights(tower, n)
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
