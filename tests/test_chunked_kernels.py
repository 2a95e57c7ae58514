"""The run-based level kernels against the whole-array formulas they
replaced (`whole_array_oracles`): the levels' runs, the floor-sum phi,
the quasi-cost pieces, the permutation and middle-avoidance checks on
runs (a level's and a gap-grid cell's), the level records and checks
summed over the runs, and the whole arrays.  A level's CSV, the one walk
over its indices, is rendered from its pieces in blocks of at most
`circle._CHUNK` rows, and is checked at several block sizes.  Also that
`construct` and `verify` expand each level's quasi-cost once, for its
CSV, and a bound on what each of them allocates."""

import collections
import dataclasses
import functools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import whole_array_oracles as oracle
from otlab import circle, duals, gap, serialize, tau
from otlab.circle import build_tower, build_tower_mode
from otlab.cli import main

DEFAULT_CHUNK = circle._CHUNK

TOWERS = {
    "5_11": lambda: build_tower(5, 2),
    "5_11_1409": lambda: build_tower(5, 3, growth_floor=[11, 1000]),
    "5c": lambda: build_tower_mode(5, 2, "paper_compliant"),
    "7_29": lambda: build_tower(7, 2),
    "11_331": lambda: build_tower(11, 2, growth_floor=[331]),
}

# Only a level's CSV reads the chunk size, its most rows per block, and
# the tests that take these cases render none: each tower runs once, at
# the default size, but for (5, 11), whose four cases repeat one another
# (see ROADMAP, "Trim the chunk matrix").
CASES = [
    ("5_11", 1), ("5_11", 7), ("5_11", 64), ("5_11", DEFAULT_CHUNK),
    ("5_11_1409", DEFAULT_CHUNK), ("5c", DEFAULT_CHUNK),
    ("7_29", DEFAULT_CHUNK), ("11_331", DEFAULT_CHUNK),
]


@pytest.fixture
def chunk(monkeypatch, request):
    """Set the most rows in a block of a CSV."""
    monkeypatch.setattr(circle, "_CHUNK", request.param)
    return request.param


_cases = pytest.mark.parametrize(
    "name,chunk", CASES, indirect=["chunk"], ids=[f"{t}-{c}" for t, c in CASES]
)


@_cases
def test_level_arrays_match_whole_array_formulas(name, chunk):
    tower = TOWERS[name]()
    levels = tau.build_levels(tower, tower.depth)
    arrays = oracle.construction_arrays(tower, tower.depth)
    for level, (t, good, singular, changed) in zip(levels, arrays):
        n, M = level.level, level.modulus
        # the runs emitted block by block are the index-by-index build's
        assert np.array_equal(level.tau, t)
        assert np.array_equal(level.good_mask, good)
        assert np.array_equal(level.singular_mask, singular)
        assert level.changed_runs is None if changed is None else (
            np.array_equal(level.changed_mask, changed)
        )
        phi = oracle.phi_values(tower, n)
        assert np.array_equal(circle._phi_values(tower, n), phi)
        assert np.array_equal(circle.phi_points(tower, n, np.arange(M)), phi)
        sigma = tau.sigma_of(tower, n, level.tau)
        assert np.array_equal(sigma, oracle.sigma_of(tower, n, level.tau))
        assert oracle.is_permutation(sigma)
        assert tau._tiles(level, tower)
        assert tau._avoidance_hits(level, tower).size == 0
        if level.parent is not None:
            assert np.array_equal(level.changed_mask, oracle.changed_mask(level, tower))
        pieces = tau.quasi_cost_pieces(level, tower)
        want = oracle.quasi_cost(level, tower)
        assert np.array_equal(pieces.array(), want)
        assert pieces.rle() == serialize.rle_encode(want)  # maximal pieces
        assert np.array_equal(tau.quasi_cost(level, tower).values, want)


def test_floor_sum_phi_matches_whole_array_formula():
    # every index of (5, 11) and (5c) levels 1-2 is covered above; here
    # 20,000 random indices of (7c) level 2 (M = 4,706,261)
    tower = build_tower_mode(7, 2, "paper_compliant")
    x = np.random.default_rng(7).integers(0, tower.modulus(2), 20_000)
    assert np.array_equal(circle.phi_points(tower, 2, x), oracle.phi_values(tower, 2)[x])
    for n in (1, 2):
        M = tower.modulus(n)
        ends = np.array([0, 1, M // 2 - 1, M // 2, M // 2 + 1, M - 1])
        assert np.array_equal(circle.phi_points(tower, n, ends), oracle.phi_values(tower, n)[ends])


@_cases
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
    # Every real pair has correction 0.  The oracle's phi raised by one at
    # index 0 (on L^n, where the one-step bound is 0) exceeds the bound by
    # exactly 1 there and nowhere else.  The correction on runs reads no
    # phi (its one-step quasi-cost is 1 - w), so the same excess is made
    # there by lowering the runs of the one-step bound by one at index 0.
    tower = TOWERS[name]()
    levels = tau.build_levels(tower, tower.depth)
    real_phi, real_cost = circle.phi_level, duals._one_step_cost

    def bumped(tower, n):
        phi = real_phi(tower, n).values.copy()
        phi[0] += 1
        return circle.StepFunction(n, phi)

    def lowered(tower, n):
        cost = real_cost(tower, n)
        starts = np.r_[0, 1, cost.starts[1:]]
        return circle.Runs.from_starts(starts, np.r_[cost.values[0] - 1, cost.values], cost.size)

    monkeypatch.setattr(duals, "_one_step_cost", lowered)
    monkeypatch.setattr(oracle, "phi_level", bumped)
    for level in levels:
        s = duals.level_scalars(level, tower)
        assert s.correction_norm > 0
        assert s.correction_norm == Fraction(1, level.modulus)
        _, value, norm = oracle.corrected_pair(level, tower)
        assert (s.dual_value, s.correction_norm) == (value, norm)


@_cases
def test_level_report_matches_whole_array_formulas(name, chunk):
    tower = TOWERS[name]()
    for level in tau.build_levels(tower, tower.depth):
        got = dataclasses.asdict(tau.verify_level(level, tower))
        assert got == dataclasses.asdict(oracle.verify_level(level, tower))


def _broken_level(tower, levels, edit):
    """Level 2 of the tower with its tau edited."""
    l2 = levels[1]
    t = l2.tau.copy()
    edit(t)
    return tau.TauLevel(
        2, t, l2.good_mask.copy(), l2.singular_mask.copy(),
        l2.changed_mask.copy(), parent=levels[0],
    )


def _shift_index_7(t):
    t[7] += 1  # two images collide


def _move_middle(t):
    t[27] = 3  # the level-2 middle index of (5, 11) moves


def _long_steps(t):
    t[30:40] += 5


def _onto_middle(t):
    # sigma(3) = sigma(5) = 27, the middle, reached on the orbit's last
    # step forward (3 + 2 * 12) and backward (5 - 44 * 12, mod 55)
    t[3], t[5] = 2, -44


def _the_other_way(t):
    # tau -+ M gives the same sigma, a permutation still, but the other
    # orbit round the circle, the one that crosses the middle index
    M = t.shape[0]
    for i in (3, 8, 41, 50):
        assert t[i] != 0
        t[i] += -M if t[i] > 0 else M


def _sigma_and_tiles(tower, level):
    """sigma of the level, as `tau.sigma_of` gives it, and the run-based
    permutation check."""
    return tau.sigma_of(tower, level.level, level.tau), tau._tiles(level, tower)


def _build_check(tower, level):
    """What `tau._checked` says of the level: None when it passes, else
    its GrowthTooSmall message."""
    try:
        assert tau._checked(level, tower) is level
    except tau.GrowthTooSmall as e:
        return str(e)
    return None


def _oracle_build_check(tower, level):
    n = level.level
    if not oracle.is_permutation(oracle.sigma_of(tower, n, level.tau)):
        return f"sigma at level {n} is not a permutation"
    bad = oracle.avoidance_violations(
        level.tau, tower.step_inverse(n), tower.middle_index(n)
    )
    if bad.size:
        return f"middle avoidance fails at level {n} for {bad.size} indices (first: {bad[:5]})"
    return None


@functools.lru_cache(maxsize=None)
def _levels(name):
    """The tower's levels, built once for every block size."""
    tower = TOWERS[name]()
    return tower, tuple(tau.build_levels(tower, tower.depth))


@pytest.mark.parametrize("chunk", [1, 7, 64, DEFAULT_CHUNK], indirect=True)
@pytest.mark.parametrize("name", sorted(TOWERS))
def test_chunked_sigma_matches_whole_array_formula(name, chunk):
    tower, levels = _levels(name)
    for level in levels:
        n = level.level
        want = oracle.sigma_of(tower, n, level.tau)
        # the run-based kernels, which no chunk size reaches
        assert tau._tiles(level, tower) == oracle.is_permutation(want)
        assert np.array_equal(
            tau._avoidance_hits(level, tower),
            oracle.avoidance_violations(level.tau, tower.step_inverse(n), tower.middle_index(n)),
        )
        phi = oracle.phi_values(tower, n)
        q = 1 + phi - phi[want]
        pieces = tau.quasi_cost_pieces(level, tower)
        assert np.array_equal(pieces.array(), q)
        if chunk > 7 or level.modulus < 10**4:
            sigma, is_perm = _sigma_and_tiles(tower, level)
            assert np.array_equal(sigma, want) and is_perm == oracle.is_permutation(want)
            assert _build_check(tower, level) is None
            # the CSV from the pieces is the CSV of the whole array, in
            # blocks of at most a chunk's rows
            blocks = list(circle.runs_csv_blocks(pieces))
            assert max(block.count(b"\n") for block in blocks[1:]) <= chunk
            assert b"".join(blocks) == oracle.csv_rows(q)


@pytest.mark.parametrize("chunk", [1, 7, 64, DEFAULT_CHUNK], indirect=True)
@pytest.mark.parametrize(
    "edit",
    [_shift_index_7, _move_middle, _long_steps, _onto_middle, _the_other_way],
)
def test_broken_levels_match_whole_array_formulas(chunk, edit):
    tower = build_tower(5, 2)
    levels = tau.build_levels(tower, 2)
    broken = _broken_level(tower, levels, edit)
    P_inv, mid = tower.step_inverse(2), tower.middle_index(2)
    hits = tau._avoidance_hits(broken, tower)
    assert np.array_equal(hits, oracle.avoidance_violations(broken.tau, P_inv, mid))
    want = oracle.sigma_of(tower, 2, broken.tau)
    sigma, is_perm = _sigma_and_tiles(tower, broken)
    assert np.array_equal(sigma, want) and is_perm == oracle.is_permutation(want)
    assert _build_check(tower, broken) == _oracle_build_check(tower, broken) is not None
    got = dataclasses.asdict(tau.verify_level(broken, tower))
    assert got == dataclasses.asdict(oracle.verify_level(broken, tower))
    assert tau.singular_ledger(broken, tower) == oracle.singular_ledger(broken, tower)
    s = duals.level_scalars(broken, tower)
    grid = duals.default_delta_grid(broken.modulus)
    d = s.diagnostic
    assert (
        d.negative_mass, d.carrier_measure, d.singular_set_measure,
        d.small_set_sup, d.mass_balance_ok,
    ) == oracle.diagnostic(broken, tower, grid)
    assert tau.transport_cost_tau(broken, tower) == oracle.transport_cost_tau(broken, tower)


@pytest.mark.parametrize("floor", [[11], [31], [11, 199]], ids=["5_11", "5_31", "5_11_199"])
def test_row_map_permutation_check_matches_whole_array_formula(floor):
    # verify_row_map checks each gap-grid cell on its runs (`tau._tiles`).
    # With the step of one run of a cell raised by one, that run's image
    # moves by P_j onto the images of other runs, unless the run is the
    # whole circle (a translation).
    tower = build_tower(5, len(floor) + 1, growth_floor=floor)
    family = gap.build_gap_family(tower, tower.depth)
    broken_cells = 0
    for (n, j), cell in sorted(family.grid.items()):
        want = oracle.is_permutation(oracle.sigma_of(tower, j, cell.tau))
        assert gap.verify_row_map(family, n, j).permutation_ok == want
        r = cell.tau_runs
        if r.starts.size < 2:
            continue
        steps = r.values.copy()
        steps[(n + j) % steps.size] += 1
        broken = tau.TauLevel(j, circle.Runs.from_starts(r.starts, steps, r.size))
        assert not oracle.is_permutation(oracle.sigma_of(tower, j, broken.tau))
        grid = {**family.grid, (n, j): broken}
        report = gap.verify_row_map(dataclasses.replace(family, grid=grid), n, j)
        assert not report.permutation_ok
        broken_cells += 1
    assert broken_cells >= 2


@pytest.mark.parametrize("seed", [1, 7, 64, 32768])
def test_run_checks_match_whole_array_formulas_on_random_steps(seed):
    # Random step functions on the (5, 11) level 2 (M = 55): a few long
    # runs, many short ones, and steps up to +-M, so both kinds of run of
    # the middle-avoidance check and of the quasi-cost pieces show up.
    tower = build_tower(5, 2)
    M, P_inv, mid = tower.modulus(2), tower.step_inverse(2), tower.middle_index(2)
    rng = np.random.default_rng(seed)
    perms = 0
    for k in range(300):
        cuts = np.sort(rng.choice(np.arange(1, M), size=rng.integers(0, 12), replace=False))
        steps = rng.integers(-M + 1, M, size=cuts.size + 1)
        if k % 3 == 0:
            steps //= 9  # short steps
        t = np.repeat(steps, np.diff(np.r_[0, cuts, M])).astype(np.int32)
        if k % 10 == 0:  # a translation: always a permutation
            t[:] = steps[0]
        level = tau.TauLevel(2, t)
        sigma = oracle.sigma_of(tower, 2, t)
        assert tau._tiles(level, tower) == oracle.is_permutation(sigma)
        perms += oracle.is_permutation(sigma)
        hits = tau._avoidance_hits(level, tower)
        assert np.array_equal(hits, oracle.avoidance_violations(t, P_inv, mid))
        phi = oracle.phi_values(tower, 2)
        q = tau.quasi_cost_pieces(level, tower).array()
        assert np.array_equal(q, 1 + phi - phi[sigma])
    assert perms >= 30


def _random_runs(rng, M, values, most):
    """An array on 0..M-1 of at most most + 1 runs, each taking a value
    drawn from values."""
    cuts = rng.choice(np.arange(1, M), size=rng.integers(0, most + 1), replace=False)
    edges = np.r_[0, np.sort(cuts), M]
    return np.repeat(rng.choice(values, size=edges.size - 1), np.diff(edges))


def test_level_records_match_whole_array_formulas_on_random_levels():
    # Construction-like levels 2 on (5, 11) over the real level 1.  Half
    # take a random step function for tau, whose runs cross the parent
    # blocks and the edges of the level-1 middle block (22..32); half take
    # the real tau with a short segment shifted by 4 or 5.  With M_1 = 5
    # and P_1 = 1, a child at index s of its parent block stepping t + 4
    # instead of t nests exactly where (s + t) mod 11 >= 7, and one
    # stepping t + 5 where (s + t) mod 11 < 6, so a run can nest at its
    # first index only or at its last only.  The masks are random (good
    # and singular disjoint) or the real ones.
    tower = build_tower(5, 2)
    parent, real = tau.build_levels(tower, 2)
    M, m = real.modulus, tower.primes[1]
    grid = duals.default_delta_grid(M)
    rng = np.random.default_rng(11)
    seen = collections.Counter()
    for k in range(400):
        if k % 2:
            steps = np.arange(-M + 1, M) // (9 if k % 4 == 1 else 1)
            t = _random_runs(rng, M, steps, 12)
        else:
            t = real.tau.astype(np.int64)
            a = rng.integers(0, M)
            t[a : a + rng.integers(1, 7)] += rng.choice([4, 5])
        if k % 3:
            good = _random_runs(rng, M, [False, True], 8)
            singular = _random_runs(rng, M, [False, True], 8) & ~good
            changed = _random_runs(rng, M, [False, True], 8)
        else:
            good, singular, changed = real.good_mask, real.singular_mask, real.changed_mask
        level = tau.TauLevel(2, t.astype(np.int32), good, singular, changed, parent=parent)

        report = tau.verify_level(level, tower)
        assert dataclasses.asdict(report) == dataclasses.asdict(oracle.verify_level(level, tower))
        s = duals.level_scalars(level, tower)
        assert s.ledger == oracle.singular_ledger(level, tower)
        assert tau.singular_ledger(level, tower) == s.ledger
        _, value, norm = oracle.corrected_pair(level, tower)
        assert (s.dual_value, s.correction_norm) == (value, norm)
        d = s.diagnostic
        assert (
            d.negative_mass, d.carrier_measure, d.singular_set_measure,
            d.small_set_sup, d.mass_balance_ok,
        ) == oracle.diagnostic(level, tower, grid)
        assert duals.singular_buildup([level], tower) == [d]
        assert tau.transport_cost_tau(level, tower) == oracle.transport_cost_tau(level, tower)

        sigma, parent_sigma = oracle.level_sigma(level, tower), oracle.level_sigma(parent, tower)
        nests = sigma // m == parent_sigma[np.arange(M) // m]
        same_run = (t[1:] == t[:-1]) & (np.arange(1, M) % m != 0)
        seen["a run nests at one end only"] += bool((same_run & (nests[1:] != nests[:-1])).any())
        seen["a nonzero small-set sup"] += any(v != 0 for v in d.small_set_sup.values())
        for key in (
            "nesting_ok", "tau_zero_on_middle1", "partition_ok",
            "change_per_good_parent_ok", "drop_nonpositive_on_singular",
        ):
            seen[key, getattr(report, key)] += 1
    assert len(seen) == 12 and min(seen.values()) >= 10, seen


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


def test_level_arrays_are_int32_and_sigma_does_not_wrap():
    # On (5c) |tau| * P_2 passes 2^31 at level 2: an int32 product wraps,
    # and the int64 oracle tells the two apart.
    tower = TOWERS["5c"]()
    levels = tau.build_levels(tower, 2)
    for level in levels:
        phi = circle.phi_level(tower, level.level).values
        sigma = tau.sigma_of(tower, level.level, level.tau)
        assert level.tau.dtype == sigma.dtype == phi.dtype == np.int32
        assert tau.quasi_cost(level, tower).values.dtype == np.int32
        assert circle.quasi_cost_values(phi, sigma).dtype == np.int32
    l2 = levels[1]
    M, P = tower.modulus(2), tower.step(2)
    assert int(np.abs(l2.tau).max()) * P > 2**31
    sigma = tau.sigma_of(tower, 2, l2.tau)
    assert np.array_equal(sigma, oracle.sigma_of(tower, 2, l2.tau))
    wrapped = (np.arange(M, dtype=np.int32) + l2.tau * np.int32(P)) % M
    assert not np.array_equal(wrapped, sigma)


def test_gap_grid_cells_are_int32():
    family = gap.build_gap_family(build_tower(5, 2, growth_floor=[31]), 2)
    for cell in family.grid.values():
        assert cell.tau.dtype == np.int32
    for n in range(3):
        assert family.limit_tau(n).dtype == family.limit_sigma(n).dtype == np.int32


def _count_expansions(monkeypatch):
    """The indices that the calls made after this one expand from runs,
    by (kind, size): kind "q" for a level's quasi-cost pieces, "other"
    for any other runs; the rows that the CSV renders as super-rows count
    as indices of q, and under "super" too.  No whole phi may be built
    meanwhile."""
    expanded = collections.Counter()
    pieces = []  # kept alive, so that no other runs take their place

    def recorded(quasi_cost_pieces):
        def recorded_pieces(level, tower):
            pieces.append(quasi_cost_pieces(level, tower))
            return pieces[-1]
        return recorded_pieces

    def counted(expand):
        def counted_expand(runs, *args):
            out = expand(runs, *args)
            kind = "q" if any(runs is q for q in pieces) else "other"
            expanded[kind, runs.size] += out.size
            return out
        return counted_expand

    def counted_super_rows(M, P, a, b, value):
        expanded["q", M] += b - a
        expanded["super", M] += b - a
        return real_super_rows(M, P, a, b, value)

    def no_phi_array(*args):
        raise AssertionError("a whole phi was built")

    real_super_rows = circle._super_rows
    monkeypatch.setattr(circle, "_super_rows", counted_super_rows)

    for module in (tau, duals):
        monkeypatch.setattr(module, "quasi_cost_pieces", recorded(module.quasi_cost_pieces))
    monkeypatch.setattr(circle.Runs, "chunk", counted(circle.Runs.chunk))
    monkeypatch.setattr(circle.Runs, "array", counted(circle.Runs.array))
    monkeypatch.setattr(circle, "_phi_values", no_phi_array)
    return expanded


@pytest.mark.parametrize("m1,mode", [(5, "relaxed"), (7, "relaxed"), (5, "paper_compliant")])
def test_one_quasi_cost_walk_per_level(monkeypatch, tmp_path, m1, mode):
    # construct and verify each render every index of a level's CSV once
    # from its quasi-cost pieces, expanded or as super-rows, and expand no
    # other runs of the deepest level: the records and checks of a level
    # take its runs and pieces.  A parent's runs are read per parent
    # index, while its child is built and checked.  Of the (5c) level 2
    # (M = 625,505 = 5 x 125,101) all rows but 1,423 are super-rows.
    d = str(tmp_path / "a")
    tower = build_tower_mode(m1, 2, mode)
    want = {("q", M): M for M in tower.M}
    expanded = _count_expansions(monkeypatch)
    for argv in (["construct", "--m1", str(m1), "--mode", mode, "--outdir", d], ["verify", d]):
        expanded.clear()
        assert main(argv) == 0
        assert {k: v for k, v in expanded.items() if k[0] == "q"} == want
        assert expanded["other", tower.M[-1]] == 0
        M = tower.M[-1]
        super_rows = expanded["super", M]
        assert super_rows > 0.99 * M if mode == "paper_compliant" else super_rows == 0


# tracemalloc's peak over `construct` and over `verify`, in bytes, on
# (5c) (M = 625,505) and on (7c) (M = 4,706,261) alike: no level-sized
# array is made, so what remains is a chunk's temporaries and the text
# of its CSV rows.  With the level arrays (tau and phi in int32, three
# bool masks) and the permutation marks, the peak was about 20 bytes per
# index: 12.5 MB at (5c) and 94 MB at (7c).
TRACED_PEAK_BYTES = 6 << 20

TRACED_TOWERS = {"5c": ["--m1", "5"], "7c": ["--m1", "7"]}


def _traced_peak(argv):
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("tower", sorted(TRACED_TOWERS))
def test_construct_traced_peak(tmp_path, tower):
    d = str(tmp_path / "a")
    argv = ["construct", *TRACED_TOWERS[tower], "--mode", "paper_compliant", "--outdir", d]
    peak = _traced_peak(argv)
    assert peak < TRACED_PEAK_BYTES, peak


@pytest.mark.parametrize("tower", sorted(TRACED_TOWERS))
def test_verify_traced_peak(tmp_path, tower):
    d = str(tmp_path / "a")
    argv = ["construct", *TRACED_TOWERS[tower], "--mode", "paper_compliant", "--outdir", d]
    assert main(argv) == 0
    peak = _traced_peak(["verify", d])
    assert peak < TRACED_PEAK_BYTES, peak


def test_avoidance_steps_match_the_scalar_rule():
    tower = build_tower(5, 2)
    M, P_inv, mid = tower.modulus(2), tower.step_inverse(2), tower.middle_index(2)
    rng = np.random.default_rng(5)
    src = rng.integers(0, M, 400)
    dst = rng.integers(0, M, 400)
    ok = (src != mid) & (dst != mid)
    want = [oracle._avoidance_step(M, P_inv, mid, int(a), int(b)) for a, b in zip(src[ok], dst[ok])]
    assert tau._avoidance_steps(M, P_inv, mid, src[ok], dst[ok]).tolist() == want
    # the first pair that starts on the middle index is named
    bad = np.r_[src[ok][:3], mid, mid]
    with pytest.raises(tau.GrowthTooSmall, match=f"cannot route {mid} -> 7 around"):
        tau._avoidance_steps(M, P_inv, mid, bad, np.r_[dst[ok][:3], 7, 8])
