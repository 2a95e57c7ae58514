"""The chunked level kernels against the whole-array formulas they
replaced (`whole_array_oracles`), at several chunk sizes, and a bound on
what `construct` allocates per index."""

import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import whole_array_oracles as oracle
from otlab import circle, duals, serialize, tau
from otlab.circle import build_tower, build_tower_mode
from otlab.cli import main

DEFAULT_CHUNK = circle._CHUNK

TOWERS = {
    "5_11": lambda: build_tower(5, 2),
    "5_11_1009": lambda: build_tower(5, 3, growth_floor=[11, 1000]),
    "5c": lambda: build_tower_mode(5, 2, "paper_compliant"),
}

# Chunk sizes 1 and 7 make a numpy call per index or per 7 indices, so
# the (5c) level (M = 625,505) and the level-3 one (M = 77,495) run at 64
# and the default only.
CASES = [
    ("5_11", 1), ("5_11", 7), ("5_11", 64), ("5_11", DEFAULT_CHUNK),
    ("5_11_1009", 64), ("5_11_1009", DEFAULT_CHUNK),
    ("5c", 64), ("5c", DEFAULT_CHUNK),
]


@pytest.fixture
def chunk(monkeypatch, request):
    """Set the chunk size and start from an empty phi cache, so every
    level array is built by the chunked kernels at that size."""
    monkeypatch.setattr(circle, "_CHUNK", request.param)
    circle._phi_values.cache_clear()
    yield request.param
    circle._phi_values.cache_clear()


def _cases():
    return pytest.mark.parametrize(
        "name,chunk", CASES, indirect=["chunk"], ids=[f"{t}-{c}" for t, c in CASES]
    )


@_cases()
def test_level_arrays_match_whole_array_formulas(name, chunk):
    tower = TOWERS[name]()
    levels = tau.build_levels(tower, tower.depth)
    for level in levels:
        n = level.level
        assert np.array_equal(circle._phi_values(tower, n), oracle.phi_values(tower, n))
        assert np.array_equal(level.sigma, oracle.sigma_of(tower, n, level.tau))
        assert np.array_equal(tau.sigma_of(tower, n, level.tau), level.sigma)
        assert tau.is_permutation(level.sigma) and oracle.is_permutation(level.sigma)
        if level.parent is not None:
            assert np.array_equal(level.changed_mask, oracle.changed_mask(level, tower))
        assert np.array_equal(
            tau.quasi_cost(level, tower).values, oracle.quasi_cost(level, tower)
        )


@_cases()
def test_level_scalars_match_whole_array_formulas(name, chunk):
    tower = TOWERS[name]()
    for level in tau.build_levels(tower, tower.depth):
        grid = duals.default_delta_grid(level.modulus)
        s = duals.level_scalars(level, tower)
        _, value, norm = oracle.corrected_pair(level, tower)
        assert s.ledger == oracle.singular_ledger(level, tower)
        assert tau.singular_ledger(level, tower) == s.ledger
        assert (s.dual_value, s.correction_norm) == (value, norm)
        d = s.diagnostic
        assert (
            d.negative_mass, d.carrier_measure, d.singular_set_measure,
            d.small_set_sup, d.mass_balance_ok,
        ) == oracle.diagnostic(level, tower, grid)
        assert duals.singular_buildup([level], tower) == [d]


@pytest.mark.parametrize(
    "name,chunk", [("5_11", 7), ("5_11", DEFAULT_CHUNK), ("5c", DEFAULT_CHUNK)],
    indirect=["chunk"], ids=["5_11-7", f"5_11-{DEFAULT_CHUNK}", f"5c-{DEFAULT_CHUNK}"],
)
def test_nonzero_correction_matches_whole_array_formula(monkeypatch, name, chunk):
    # Every real pair has correction 0; a phi raised by one at index 0
    # (on L^n, where the one-step bound is 0) exceeds it by exactly 1
    # there and nowhere else.
    tower = TOWERS[name]()
    levels = tau.build_levels(tower, tower.depth)
    real = circle.phi_level

    def bumped(tower, n):
        phi = real(tower, n).values.copy()
        phi[0] += 1
        return circle.StepFunction(n, phi)

    monkeypatch.setattr(duals, "phi_level", bumped)
    monkeypatch.setattr(oracle, "phi_level", bumped)
    for level in levels:
        s = duals.level_scalars(level, tower)
        assert s.correction_norm > 0
        assert s.correction_norm == Fraction(1, level.modulus)
        _, value, norm = oracle.corrected_pair(level, tower)
        assert (s.dual_value, s.correction_norm) == (value, norm)


@_cases()
def test_level_report_matches_whole_array_formulas(name, chunk):
    tower = TOWERS[name]()
    for level in tau.build_levels(tower, tower.depth):
        got = dataclasses.asdict(tau.verify_level(level, tower))
        assert got == dataclasses.asdict(oracle.verify_level(level, tower))


def _broken_level(tower, levels, edit):
    """Level 2 of the tower with its tau edited and sigma recomputed by
    the whole-array formula."""
    l2 = levels[1]
    t = l2.tau.copy()
    edit(t)
    sigma = oracle.sigma_of(tower, 2, t)
    return tau.TauLevel(
        2, t, sigma, l2.good_mask.copy(), l2.singular_mask.copy(),
        l2.changed_mask.copy(), parent=levels[0],
    )


def _shift_index_7(t):
    t[7] += 1  # two images collide


def _move_middle(t):
    t[27] = 3  # the level-2 middle index of (5, 11) moves


def _long_steps(t):
    t[30:40] += 5


@pytest.mark.parametrize("chunk", [1, 7, 64, DEFAULT_CHUNK], indirect=True)
@pytest.mark.parametrize("edit", [_shift_index_7, _move_middle, _long_steps])
def test_broken_levels_match_whole_array_formulas(chunk, edit):
    tower = build_tower(5, 2)
    levels = tau.build_levels(tower, 2)
    broken = _broken_level(tower, levels, edit)
    P_inv, mid = tower.step_inverse(2), tower.middle_index(2)
    assert np.array_equal(
        tau._avoidance_violations(broken.tau, P_inv, mid),
        oracle.avoidance_violations(broken.tau, P_inv, mid),
    )
    assert tau.is_permutation(broken.sigma) == oracle.is_permutation(broken.sigma)
    got = dataclasses.asdict(tau.verify_level(broken, tower))
    assert got == dataclasses.asdict(oracle.verify_level(broken, tower))
    assert tau.singular_ledger(broken, tower) == oracle.singular_ledger(broken, tower)


@pytest.mark.parametrize("chunk", [1, 7, 64, DEFAULT_CHUNK], indirect=True)
def test_is_permutation_rejects_repeats_and_out_of_range(chunk):
    rng = np.random.default_rng(chunk)
    for M in (1, 2, 7, 8, 65, 200):
        sigma = rng.permutation(M).astype(np.int64)
        assert tau.is_permutation(sigma)
        for bad in (M, -1, 10 * M):
            out = sigma.copy()
            out[rng.integers(M)] = bad
            assert not tau.is_permutation(out)
        if M > 1:
            rep = sigma.copy()
            i, j = rng.choice(M, size=2, replace=False)
            rep[i] = rep[j]
            assert not tau.is_permutation(rep)
            assert not oracle.is_permutation(rep)
    assert tau.is_permutation(np.zeros(0, dtype=np.int64))


@pytest.mark.parametrize("chunk", [1, 7, 64, DEFAULT_CHUNK], indirect=True)
def test_rle_encode_across_chunks(chunk):
    rng = np.random.default_rng(3)
    for M in (1, 2, 7, 8, 63, 64, 65, 300):
        for values in (
            rng.integers(-2, 3, size=M),
            np.repeat(rng.integers(-2, 3, size=4), M // 4 + 1)[:M],
            rng.random(M) < 0.5,
        ):
            pairs = serialize.rle_encode(values)
            assert np.array_equal(serialize.rle_decode(pairs), values.astype(np.int64))
            assert all(a[0] != b[0] for a, b in zip(pairs, pairs[1:]))


# tracemalloc's peak over `construct` on (5c), per index of level 2 (M =
# 625,505).  The level arrays (tau, sigma, phi: 8 bytes each; good,
# singular and changed masks: 1 each) come to 27, and the CSV chunk
# temporaries to about 7.5 MB in all: measured 39.3 bytes per index.
# Whole-array passes peaked at 132.
TRACED_BYTES_PER_INDEX = 45


def test_construct_traced_peak_per_index(tmp_path):
    tower = build_tower_mode(5, 2, "paper_compliant")
    M = tower.modulus(2)
    circle._phi_values.cache_clear()
    tracemalloc.start()
    try:
        assert main(["construct", "--m1", "5", "--mode", "paper_compliant",
                     "--outdir", str(tmp_path / "a")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        circle._phi_values.cache_clear()
    assert peak < TRACED_BYTES_PER_INDEX * M, peak / M
