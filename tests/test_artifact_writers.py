"""The vectorised artifact writers against the per-element formulas they
replaced: `StepFunction.to_csv` row by row through `Fraction`, and
`rle_encode` as a run-merging loop over `int(v)`."""

import random
from fractions import Fraction

import numpy as np
import pytest

from otlab import circle
from otlab.circle import StepFunction
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
            M = len(values)
            blocks = list(
                circle.csv_blocks(M, ((lo, values[lo:hi]) for lo, hi in circle.index_chunks(M)))
            )
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
