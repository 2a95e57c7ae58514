"""SHA-256 pins of the `construct` artifacts and the `gap` reports.

The construct digests were taken from the per-element writers that
predate the vectorised ones, and the gap digests from the bisection over
dense-simplex feasibility probes that predates the closed-form
separation radius, so a change that alters a single byte of any
artifact or report fails here.
"""

import hashlib

import pytest

from otlab import serialize
from otlab.circle import build_tower
from otlab.cli import main
from otlab.gap import build_gap_family, gap_demonstration

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
}

ARGS = {
    "5_11": ["--m1", "5", "--depth", "2"],
    "5c": ["--m1", "5", "--depth", "2", "--mode", "paper_compliant"],
}


@pytest.mark.parametrize("tower", sorted(DIGESTS))
def test_construct_artifact_digests(tmp_path, tower):
    d = tmp_path / tower
    assert main(["construct", *ARGS[tower], "--outdir", str(d)]) == 0
    got = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in d.iterdir()
    }
    assert got == DIGESTS[tower]


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
