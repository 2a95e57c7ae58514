"""The vectorised artifact writers against the per-element formulas they
replaced: `StepFunction.to_csv` and the level CSV rendered from runs
(`runs_csv_blocks`) row by row through `Fraction`, and `rle_encode` as a
run-merging loop over `int(v)`."""

import random
from fractions import Fraction

import numpy as np
import pytest

import whole_array_oracles as oracle
from otlab import circle, tau
from otlab.circle import Runs, StepFunction, build_tower
from otlab.rational import format_rational
from otlab.serialize import rle_encode

INT64 = np.iinfo(np.int64)


def csv_row(l, M, v):
    return f"{l},{format_rational(Fraction(l, M))},{format_rational(Fraction(int(v)))}"


def csv_oracle(values):
    M = len(values)
    lines = ["index,left_endpoint,value"]
    lines += [csv_row(l, M, values[l]) for l in range(M)]
    return "\n".join(lines) + "\n"


def rle_oracle(values):
    out = []
    for v in values:
        v = int(v)
        if out and out[-1][0] == v:
            out[-1][1] += 1
        else:
            out.append([v, 1])
    return out


@pytest.mark.parametrize("chunk", [1, 7, 64, 1 << 20])
def test_to_csv_matches_fraction_rows(monkeypatch, chunk):
    monkeypatch.setattr(circle, "_CHUNK", chunk)
    rng = random.Random(chunk)
    for _ in range(60):
        M = rng.randint(1, 400)
        bound = rng.choice([9, 10**3, 10**9])
        values = np.array([rng.randint(-bound, bound) for _ in range(M)], dtype=np.int64)
        assert StepFunction(1, values).to_csv() == csv_oracle(values)


# Magnitudes on either side of the uint32/uint64 switch of `_render_rows`
# (2^32) and of a digit-count step (10^9, 10^10).
DTYPE_EDGES = [2**32 - 1, 2**32, 2**32 + 1, 10**9 - 1, 10**10]


def _chunk_aligned_values(chunk):
    """Chunks whose largest magnitude is each of DTYPE_EDGES, once all
    non-negative (no sign plane) and once with exactly one negative row;
    then a chunk whose digit widths change within it, and an all-negative
    one."""
    blocks = []
    for top in DTYPE_EDGES:
        block = [top - 3 * i for i in range(chunk)]
        blocks.append(block)
        blocks.append([-v if i == chunk // 2 else v for i, v in enumerate(block)])
    blocks.append([10 ** (i % 12) - (i % 2) for i in range(chunk)])
    blocks.append([-DTYPE_EDGES[i % len(DTYPE_EDGES)] for i in range(chunk)])
    return np.array([v for block in blocks for v in block], dtype=np.int64)


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_to_csv_around_the_unsigned_dtype_switch(monkeypatch, chunk):
    monkeypatch.setattr(circle, "_CHUNK", chunk)
    values = _chunk_aligned_values(chunk)
    assert StepFunction(1, values).to_csv() == csv_oracle(values)
    shifted = np.concatenate([values[chunk // 2 :], values[: chunk // 2]])
    assert StepFunction(1, shifted).to_csv() == csv_oracle(shifted)


def _width_chunk(D, negative):
    """Values whose widest field has D digits: the D-digit edges (10^(D-1)
    and 10^D - 1, capped at the int64 maximum); 10^(d-1), a middle d-digit
    value and 10^d - 1 for every shorter digit count d; and 0.  With
    negative, each nonzero value also once negated."""
    top = min(10**D - 1, INT64.max)
    rows = [10 ** (D - 1), top]
    for d in range(1, D):
        rows += [10 ** (d - 1), 5 * 10 ** (d - 1) + 3 * (d > 1), 10**d - 1]
    rows.append(0)
    if negative:
        rows += [-v for v in rows if v]
    return np.array(rows, dtype=np.int64)


@pytest.mark.parametrize("chunk", [1, 7, 64, 1 << 15])
def test_to_csv_every_digit_width(monkeypatch, chunk):
    """Every width 1..19 of the value column, with rows of each shorter
    digit count in both signs: the full and partial four-digit groups
    (D = 4, 5, 8, 9, 12, 13, 16, 17) and the short rows' padding."""
    monkeypatch.setattr(circle, "_CHUNK", chunk)
    for D in range(1, 20):
        for negative in (False, True):
            values = _width_chunk(D, negative)
            blocks = list(circle.runs_csv_blocks(Runs.from_array(values)))
            assert not any(b"\0" in block for block in blocks)
            assert b"".join(blocks).decode("ascii") == csv_oracle(values)
            assert StepFunction(1, values).to_csv() == csv_oracle(values)


def test_to_csv_modulus_one_and_int64_extremes():
    assert StepFunction(1, np.array([-3], dtype=np.int64)).to_csv() == (
        "index,left_endpoint,value\n0,0/1,-3/1\n"
    )
    values = np.array(
        [INT64.max, -INT64.max, 0, -1, 9, 10, -10, 99, 100, 10**18 - 1, 10**18],
        dtype=np.int64,
    )
    assert StepFunction(1, values).to_csv() == csv_oracle(values)


def test_to_csv_refuses_int64_min():
    values = np.array([0, INT64.min], dtype=np.int64)
    with pytest.raises(OverflowError):
        StepFunction(1, values).to_csv()


def test_to_csv_past_chunk_boundaries():
    M = 2 * 3 * 5 * 7 * 11 * 13 * 17  # many left endpoints reduce
    chunk = circle._CHUNK
    assert M > chunk
    rng = np.random.default_rng(5)
    values = rng.integers(-(10**6), 10**6, size=M, dtype=np.int64)
    lines = StepFunction(2, values).to_csv().split("\n")
    assert lines[0] == "index,left_endpoint,value" and lines[-1] == ""
    assert len(lines) == M + 2
    sample = {0, 1, M - 1, *rng.integers(0, M, size=200).tolist()}
    for lo in range(chunk, M, chunk):
        sample.update(range(lo - 2, lo + 2))
    for l in sorted(sample):
        assert lines[l + 1] == csv_row(l, M, values[l])


def _piecewise(rng, M, P):
    """A random step function on 0..M-1 of at most 6 pieces, each but the
    first starting off the period P (where P > 1), and each taking a
    value of up to 12 digits of either sign."""
    cuts = rng.choice(np.arange(1, M), size=rng.integers(0, 6), replace=False)
    if P > 1:
        cuts = cuts[cuts % P != 0]
    values = [rng.integers(-(10**e), 10**e) for e in rng.integers(1, 13, size=cuts.size + 1)]
    return Runs.from_starts(np.r_[0, np.sort(cuts)], np.array(values, dtype=np.int64), M)


def _recorded_super_rows(monkeypatch):
    """The row counts of the stretches rendered as super-rows from this
    call on, in order."""
    rendered = []
    real = circle._super_rows

    def super_rows(M, P, a, b, value):
        rendered.append(b - a)
        return real(M, P, a, b, value)

    monkeypatch.setattr(circle, "_super_rows", super_rows)
    return rendered


# M prime (P = 1: every row coprime, its one multiple index 0), 5 x 11
# (P = 5; the multiples of 11 and l/5 stepping at 50) and 5 x 11 x 1409
# (P = 55; l/g stepping at g x 10^d for g = 1, 5, 11, 55).  At chunk
# sizes 1 and 7 no block holds a period of 55, so 5 x 11 x 1409 runs row
# by row there, as in the tests above: it runs at 64 and 2^15 only.
RUNS_CSV_CASES = [
    (M, chunk) for M in (1009, 5 * 11, 5 * 11 * 1409) for chunk in (1, 7, 64, 1 << 15)
    if M < 10**4 or chunk >= 64
]


@pytest.mark.parametrize("M,chunk", RUNS_CSV_CASES)
def test_csv_from_runs_matches_fraction_rows(monkeypatch, M, chunk):
    """Long and short pieces, crossing the digit-count steps of l and l/g,
    the multiples of M's prime above sqrt(M) and index 0, rendered with
    super-rows from one period on and at the default threshold."""
    monkeypatch.setattr(circle, "_CHUNK", chunk)
    P = {1009: 1, 55: 5, 77495: 55}[M]
    rendered = _recorded_super_rows(monkeypatch)
    rng = np.random.default_rng([M, chunk])
    default = circle._SUPER_ROW_PERIODS
    for _ in range(4 if M < 10**4 else 2):
        q = _piecewise(rng, M, P)
        want = csv_oracle(q.array()).encode()
        for periods in (1, default):
            monkeypatch.setattr(circle, "_SUPER_ROW_PERIODS", periods)
            blocks = list(circle.runs_csv_blocks(q))
            assert b"".join(blocks) == want
            assert blocks[0] == b"index,left_endpoint,value\n"
            assert max(block.count(b"\n") for block in blocks[1:]) <= chunk
    # from one period on, every block of P rows or more takes super-rows
    assert bool(rendered) == (P <= chunk)


# (M, P, chunk, periods): a prime M and 5 x 11 x 1409, at a block of 64
# rows and of 2^15.  Super-rows need periods x P rows in a block, and at
# 5 x 11 x 1409 a stretch ends at each multiple of 1409, 25 periods on:
# there the threshold is lowered to what a block and a stretch hold.
TO_CSV_SUPER_ROW_CASES = [
    (1009, 1, 64, 64),
    (1009, 1, 1 << 15, circle._SUPER_ROW_PERIODS),
    (5 * 11 * 1409, 55, 64, 1),
    (5 * 11 * 1409, 55, 1 << 15, 16),
]


@pytest.mark.parametrize("M,P,chunk,periods", TO_CSV_SUPER_ROW_CASES)
def test_to_csv_renders_long_stretches_as_super_rows(monkeypatch, M, P, chunk, periods):
    """`StepFunction.to_csv` takes the runs of its array, so constant
    stretches of at least periods x P rows render as super-rows; values
    of up to 12 digits of either sign."""
    monkeypatch.setattr(circle, "_CHUNK", chunk)
    monkeypatch.setattr(circle, "_SUPER_ROW_PERIODS", periods)
    rendered = _recorded_super_rows(monkeypatch)
    rng = np.random.default_rng([M, chunk])
    shortest = periods * P
    for _ in range(3 if M < 10**4 else 1):
        k = int(rng.integers(1, min(6, M // shortest) + 1))
        extra = rng.multinomial(M - k * shortest, np.full(k, 1 / k))
        values = [rng.integers(-(10**e), 10**e) for e in rng.integers(1, 13, size=k)]
        values[0] = -(10**12 - 1)
        values = np.repeat(np.array(values, dtype=np.int64), shortest + extra)
        rendered.clear()
        assert StepFunction(1, values).to_csv() == csv_oracle(values)
        assert rendered


@pytest.mark.parametrize("floor", [[11, 1000], [31, 31]], ids=["5_11_1409", "5_31_1489"])
def test_depth3_level_csv_renders_row_by_row(monkeypatch, floor):
    # The level-3 stretches are cut at least at every multiple of m_3
    # (1409 or 1489 rows apart), far short of 256 periods of M_2 (55 or
    # 155), and a block of 2^15 rows holds fewer than 256 periods of 155:
    # super-rows would cost several numpy calls per row of the period
    # for each short stretch.
    def no_super_rows(*args):
        raise AssertionError("a depth-3 level took super-rows")

    tower = build_tower(5, 3, growth_floor=floor)
    level = tau.build_levels(tower, 3)[2]
    q = tau.quasi_cost_pieces(level, tower)
    monkeypatch.setattr(circle, "_super_rows", no_super_rows)
    got = b"".join(circle.runs_csv_blocks(q))
    assert got == oracle.csv_rows(q.array())


@pytest.mark.parametrize(
    "values",
    [
        [],
        [4],
        [7] * 10,
        [-3, -3, 2, -1, -1, -1, 0],
        np.array([True, True, False, True]),
        np.zeros(0, dtype=bool),
        np.array([INT64.max, INT64.max, INT64.min], dtype=np.int64),
    ],
)
def test_rle_encode_matches_loop(values):
    got = rle_encode(values)
    assert got == rle_oracle(values)
    assert all(type(x) is int for pair in got for x in pair)


def test_rle_encode_random_matches_loop():
    rng = random.Random(11)
    for _ in range(200):
        values = np.array(
            [rng.randint(-2, 2) for _ in range(rng.randint(0, 60))], dtype=np.int64
        )
        assert rle_encode(values) == rle_oracle(values)
