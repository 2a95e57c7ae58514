"""SHA-256 pins of the `construct` artifacts, the `gap` reports, and the
raw arrays of a depth-3 construction and of the gap grid cells.

The construct digests were taken from the per-element writers that
predate the vectorised ones, and the gap digests from the bisection over
dense-simplex feasibility probes that predates the closed-form
separation radius, so a change that alters a single byte of any
artifact or report fails here.  The array pins cover what no artifact
shows: a level-3 tau and its masks, and each grid cell's tau.
"""

import hashlib

import numpy as np
import pytest

from otlab import serialize
from otlab.circle import build_tower
from otlab.cli import main
from otlab.gap import build_gap_family, gap_demonstration
from otlab.tau import build_levels

DIGESTS = {
    "5_11": {
        "diagnostics.jsonl": "3fbe8886804bf8b86c9fb40044b5fd01383572c213a6b37a195f287661c96ce8",
        "quasi_cost_level_1.csv": "5d734cf6ed4607f693e2a5389112dc16b73eb86f2eb66245c4dca60a7c112cf0",
        "quasi_cost_level_2.csv": "430c0ad19407c37436f879510090f53ea179cd6e6038dfb39130518fc78383ef",
        "singular_ledger.json": "d35c075eb01c457cea2970569deadca68166ba0e5a4b8d7ff9e697c31940eb61",
        "tau_level_1.json": "460d9c50af3b418bf394bf64d783e1846b3d7e1588d5a2c0f6c5fe1267197c79",
        "tau_level_2.json": "bdfb13ef87fff8028d86799bf560ebf88881ca05b844ba17c73eda090069bcd3",
        "tower.json": "8138889fd4d2d9b720bd317942007e05e0d011e40339e14425cab41625dc5bef",
    },
    "5c": {
        "diagnostics.jsonl": "b61cd456fa7a990b3cc52c1eca181c77fc432f8b08aed7795ceb02b4cc30e114",
        "quasi_cost_level_1.csv": "5d734cf6ed4607f693e2a5389112dc16b73eb86f2eb66245c4dca60a7c112cf0",
        "quasi_cost_level_2.csv": "7d0f2d921b75a67f75fc6fe8ac09c831418d4cc4398536af10cc4428a9adc43e",
        "singular_ledger.json": "8950b437f0af587056839cdbdcd9678bf006f5117cb9f3efbc02157bc1f04bbb",
        "tau_level_1.json": "460d9c50af3b418bf394bf64d783e1846b3d7e1588d5a2c0f6c5fe1267197c79",
        "tau_level_2.json": "28178775ba5c26957a479d10784975219151e90e5d1bcf829cdc13ca87eed86e",
        "tower.json": "8982bc63c5d422502a3c367a850fa675c9ef631dff393fca024c69cc500a6f83",
    },
    # M = 4,706,261: the one pinned CSV with millions of rows and 7-digit fields
    "7c": {
        "diagnostics.jsonl": "64f8ae44469b748de1514cc1e408fd999cde429ede98ba39c9b68550f528a7bb",
        "quasi_cost_level_1.csv": "e4783638223cf42f13d6c2da5ee1eb753c2a51726579c09e08025d5673a4d013",
        "quasi_cost_level_2.csv": "aced60649d3a50b97d0685bd2047e8dd64a2c26050fcd692de6794a898d3a744",
        "singular_ledger.json": "45455291d69de3fa38a30655289c71a3eddee0ec8c1bef47bdc6b273cf0097ee",
        "tau_level_1.json": "fb1ab52829134b9a0db6bce28eed8891ac8d33b18390d7dd7360ca23d3a5a816",
        "tau_level_2.json": "9daeed92647754aab1c0f265682373bf615f0321226701aa9739185b4b9ce1a1",
        "tower.json": "e0b16b0ee86241092f875910f9b241c6d597e84cb8e462552bc5daf1ea61e028",
    },
}

ARGS = {
    "5_11": ["--m1", "5", "--depth", "2"],
    "5c": ["--m1", "5", "--depth", "2", "--mode", "paper_compliant"],
    "7c": ["--m1", "7", "--depth", "2", "--mode", "paper_compliant"],
}


@pytest.mark.parametrize("tower", sorted(DIGESTS))
def test_construct_artifact_digests(tmp_path, tower):
    d = tmp_path / tower
    assert main(["construct", *ARGS[tower], "--outdir", str(d)]) == 0
    got = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in d.iterdir()
    }
    assert got == DIGESTS[tower]
    assert main(["verify", str(d)]) == 0


# sha256 of serialize.dumps(gap_demonstration(family, 2, 2)) at jmax = 2;
# the (5, 11) tower is the default one, (5, 31) needs a growth floor
GAP_DIGESTS = {
    "5_11": (None, "9ffc0b0e0bf5541340009bcf1f41169f28826ba490e8ac729fb6b370da4f3b74"),
    "5_31": ([31], "04291e91c4218932e88d64d8892f4e1449171e08c44250e8d378bb6d8786dc08"),
}


@pytest.mark.parametrize("tower", sorted(GAP_DIGESTS))
def test_gap_report_digests(tower):
    floor, digest = GAP_DIGESTS[tower]
    t = build_tower(5, 2, growth_floor=floor)
    assert "_".join(map(str, t.primes)) == tower
    text = serialize.dumps(gap_demonstration(build_gap_family(t, 2), 2, 2))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _array_digest(a):
    """sha256 of the raw bytes of a bool array, or of an integer array
    widened to int64, so the pins hold whatever the stored width."""
    if a.dtype.kind == "i":
        a = a.astype(np.int64)
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


# sha256 of the raw bytes of tau (as int64), good_mask and singular_mask
# (bool) at each level of build_levels on the (5, 11, 1409) tower, the
# one depth-3 construction the suite pins
LEVEL_DIGESTS = {
    1: (
        "cf2dd152f699e18013bb3ea85c0e56faeaa4d918c7f0ff3522500f5e3b68f1a9",
        "01e246b58d8e782fc96881c090d833eefa37e804cb308aeae0f7471c9ef1ea1a",
        "a1cb20470d89874f33383802c72d3c27a0668ebffd81934705ab0cfcbf1a1e3a",
    ),
    2: (
        "15ccd959394fdb78a22a81d55fbaa1a4fca6b27f8b83ed8b5b622c9cbc73b7e0",
        "523b92519e2d4c9794ef72a6ebc340b4ce86493c8c19413d63657343f2e344af",
        "ba96fd3124cb82f81abc145e46f24741c5e4ef0979eee28555b0b159e50b5ccb",
    ),
    3: (
        "2476de750d6a65a2754b38fcc653fb9e0ecf246b61aae8088f97455af715eebc",
        "4ee6593b6fee6dc555c9775d3264c3254546d686fa6f391e79ac73ce97c936e4",
        "0f0be6878790ee9942aed703bbf9dd01ca8ea228d33084029a1f507cfc647094",
    ),
}


def test_depth3_level_digests():
    t = build_tower(5, 3, growth_floor=[11, 1000])
    assert t.primes == (5, 11, 1409)
    got = {
        lv.level: tuple(
            _array_digest(a) for a in (lv.tau, lv.good_mask, lv.singular_mask)
        )
        for lv in build_levels(t, 3)
    }
    assert got == LEVEL_DIGESTS


# sha256 of the raw bytes of every grid cell's tau as int64, by (row, column)
_CELLS_5_31 = {
    (1, 1): "cf2dd152f699e18013bb3ea85c0e56faeaa4d918c7f0ff3522500f5e3b68f1a9",
    (1, 2): "bc5e7dc45d060083fe5f4437ba1ce590b7de9be8841e4b1fb2d817ea1e9db596",
    (2, 2): "eafbf93654b376a43144733cb1debcaee54f34ebc7d2b7a206fb30daab796876",
}
GRID_DIGESTS = {
    "5_31": ([31], 2, _CELLS_5_31),
    "5_31_1489": ([31, 31], 3, {
        **_CELLS_5_31,
        (1, 3): "b11e0ad14b5a20bc5831313c52793d4af3b9c81b1fa6110e513553540b83a570",
        (2, 3): "c08eb537d391e29f75388e5705cce43ccd44f15e03e58b028a3c219a80007d09",
        (3, 3): "fb07f2da8522ecb11806afad5759f14139f2f65ccecaef4a6afaf5daaa750447",
    }),
}


@pytest.mark.parametrize("tower", sorted(GRID_DIGESTS))
def test_gap_grid_tau_digests(tower):
    floor, j_max, digests = GRID_DIGESTS[tower]
    t = build_tower(5, j_max, growth_floor=floor)
    assert "_".join(map(str, t.primes)) == tower
    grid = build_gap_family(t, j_max).grid
    assert {k: _array_digest(v.tau) for k, v in grid.items()} == digests
