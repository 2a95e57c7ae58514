import json
import os
import random
import subprocess
import sys
import types
from fractions import Fraction as F
from pathlib import Path

import pytest

import otlab
from otlab import circle, cli, tau
from otlab.cli import main
from otlab.finite_ot import (
    CostMatrix,
    Marginals,
    instance_from_json,
    instance_to_json,
    save_instance,
)
from otlab.rational import INF, format_rational, parse_rational_str
from otlab.serialize import rle_decode, rle_encode


def test_rational_round_trip():
    for s in ["0/1", "7/3", "-2/5", "12/1"]:
        assert format_rational(parse_rational_str(s)) == s
    assert parse_rational_str("inf") is INF
    assert format_rational(INF) == "inf"
    assert parse_rational_str("4/6") == F(2, 3)


def test_instance_round_trip():
    cost = CostMatrix([[F(1, 2), INF], [3, 0]])
    marg = Marginals([F(1, 2), F(1, 2)], [F(1, 4), F(3, 4)])
    text = instance_to_json(cost, marg)
    cost2, marg2 = instance_from_json(text)
    assert cost2.entries == cost.entries
    assert marg2.mu == marg.mu and marg2.nu == marg.nu
    assert instance_to_json(cost2, marg2) == text


@pytest.mark.parametrize(
    "obj",
    [
        {"cost": ["01", "10"], "mu": ["1/2", "1/2"], "nu": ["1/2", "1/2"]},
        {"cost": {"01": 0, "10": 0}, "mu": ["1/2", "1/2"], "nu": ["1/2", "1/2"]},
        {"cost": [["0/1", "1/1"], ["1/1", "0/1"]], "mu": "11", "nu": ["1/1", "1/1"]},
        {"cost": [["0/1", "1/1"], ["1/1", "0/1"]], "mu": ["1/1", "1/1"], "nu": "11"},
    ],
    ids=["string_rows", "object_cost", "string_mu", "string_nu"],
)
def test_instance_from_json_requires_lists(obj):
    # a JSON string or object would otherwise iterate as its characters or keys
    with pytest.raises(ValueError, match="must be a JSON list"):
        instance_from_json(json.dumps(obj))


def test_cost_matrix_needs_a_column():
    with pytest.raises(ValueError, match="at least one column"):
        CostMatrix([[]])
    with pytest.raises(ValueError, match="ragged"):
        CostMatrix([[1], []])


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: CostMatrix([[1, F(-1, 2)]]), "cost entries must be >= 0"),
        (lambda: CostMatrix([]), "at least one row"),
        (lambda: Marginals([1, 0], [F(3, 2), F(-1, 2)]), "marginals must be nonnegative"),
    ],
    ids=["negative_cost", "no_rows", "negative_marginal"],
)
def test_cost_and_marginals_reject_bad_input(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_rle_round_trip():
    rng = random.Random(2)
    vals = [rng.randint(-3, 3) for _ in range(200)]
    assert rle_decode(rle_encode(vals)).tolist() == vals


@pytest.mark.parametrize("pairs", [[[1, -3]], [[1, 2.5]], [[1, "2"]], [[1, 2, 3]], [1, 2]])
def test_rle_decode_rejects_malformed(pairs):
    with pytest.raises(ValueError):
        rle_decode(pairs)


def test_cli_solve_identity(tmp_path):
    inst = tmp_path / "id3.json"
    save_instance(inst, CostMatrix([[0 if i == j else 1 for j in range(3)] for i in range(3)]), Marginals.uniform(3))
    out = tmp_path / "report.json"
    assert main(["solve", str(inst), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["primal"] == "0/1"
    assert report["dual"] == "0/1"
    assert report["slackness"]["passed"]
    assert report["monotonicity"]["passed"]


def test_cli_solve_random_matches(tmp_path):
    rng = random.Random(77)
    n = 5
    cost = CostMatrix(
        [[F(rng.randint(0, 30), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
    )
    inst = tmp_path / "r5.json"
    save_instance(inst, cost, Marginals.uniform(n))
    out = tmp_path / "report.json"
    assert main(["solve", str(inst), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["primal"] == report["dual"]


def test_cli_solve_infeasible_exit(tmp_path):
    inst = tmp_path / "bad.json"
    save_instance(inst, CostMatrix([[INF, INF], [1, 1]]), Marginals.uniform(2))
    assert main(["solve", str(inst)]) == 3


def test_cli_solve_parse_error(tmp_path):
    p = tmp_path / "junk.json"
    p.write_text("{not json")
    assert main(["solve", str(p)]) == 2


def test_cli_construct_and_verify(tmp_path, capsys):
    d = tmp_path / "artifacts"
    assert main(["construct", "--m1", "5", "--depth", "2", "--outdir", str(d)]) == 0
    names = sorted(os.listdir(d))
    assert names == [
        "diagnostics.jsonl",
        "quasi_cost_level_1.csv",
        "quasi_cost_level_2.csv",
        "singular_ledger.json",
        "tau_level_1.json",
        "tau_level_2.json",
        "tower.json",
    ]
    ledger = json.loads((d / "singular_ledger.json").read_text())
    assert ledger[0]["singular_mass"] == "-2/5"
    lines = (d / "diagnostics.jsonl").read_text().strip().split("\n")
    assert json.loads(lines[0])["dual_value"] == "1/1"
    assert main(["verify", str(d)]) == 0


def test_cli_construct_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        assert main(["construct", "--m1", "5", "--depth", "2", "--outdir", str(d)]) == 0
    for name in os.listdir(d1):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_cli_verify_catches_tampering(tmp_path):
    d = tmp_path / "artifacts"
    assert main(["construct", "--m1", "5", "--depth", "2", "--outdir", str(d)]) == 0
    tl = json.loads((d / "tau_level_1.json").read_text())
    tl["tau_rle"][0][0] += 1
    (d / "tau_level_1.json").write_text(json.dumps(tl))
    assert main(["verify", str(d)]) == 1


def test_cli_verify_catches_singular_set_tampering(tmp_path):
    d = tmp_path / "artifacts"
    assert main(["construct", "--m1", "5", "--depth", "2", "--outdir", str(d)]) == 0
    tl = json.loads((d / "tau_level_2.json").read_text())
    runs = tl["singular_rle"]
    # move one cell across the boundary of the first two runs
    runs[0][1] += 1
    runs[1][1] -= 1
    (d / "tau_level_2.json").write_text(json.dumps(tl))
    assert main(["verify", str(d)]) == 1


def _otlab_in_child(*argv, cwd=None):
    src = str(Path(otlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run(
        [sys.executable, "-m", "otlab.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120, cwd=cwd,
    )


def _verify_in_child(d):
    return _otlab_in_child("verify", str(d))


def test_cli_verify_malformed_rle_fails_cleanly(tmp_path):
    d = tmp_path / "artifacts"
    assert main(["construct", "--m1", "5", "--depth", "2", "--outdir", str(d)]) == 0
    tl = json.loads((d / "tau_level_2.json").read_text())
    tl["good_rle"][0][1] = -3
    (d / "tau_level_2.json").write_text(json.dumps(tl))
    out = _verify_in_child(d)
    assert out.returncode == 1
    assert "Traceback" not in out.stderr
    assert out.stderr.splitlines() == [
        "level 2: malformed good_rle: RLE run length -3 is negative"
    ]


def _truncate(text):
    return text[: len(text) // 2]


def _drop_good_rle(text):
    saved = json.loads(text)
    del saved["good_rle"]
    return json.dumps(saved)


def _rewritten(rewrite):
    """Action on a saved file: replace its text by `rewrite` of it."""
    def act(path):
        text = path.read_text()
        assert rewrite(text) != text
        path.write_text(rewrite(text))
    return act


def _copy_of(source):
    """Action on a path: put a copy of the saved artifact `source` there."""
    return lambda path: path.write_bytes((path.parent / source).read_bytes())


# file, action on its path, exit code, start of the one stderr line
BAD_ARTIFACTS = {
    "tower_truncated": ("tower.json", _rewritten(_truncate), 2, "cannot read artifacts: "),
    "tower_not_json": (
        "tower.json", _rewritten(lambda t: "primes: 5, 11"), 2, "cannot read artifacts: "
    ),
    "tower_no_primes": ("tower.json", _rewritten(lambda t: "{}"), 2, "cannot read artifacts: "),
    "tower_prime_not_int": (
        "tower.json", _rewritten(lambda t: '{"primes": [5, "x"]}'), 2, "cannot read artifacts: "
    ),
    "tower_mode": (
        "tower.json",
        _rewritten(lambda t: t.replace('"relaxed"', '"paper_compliant"')),
        1,
        "tower.json differs from a fresh build",
    ),
    "level_modulus": (
        "tau_level_2.json",
        _rewritten(lambda t: t.replace('"modulus": 55', '"modulus": 56')),
        1,
        "level 2: tau_level_2.json differs from a fresh build",
    ),
    "level_no_good_rle": ("tau_level_2.json", _rewritten(_drop_good_rle), 1, "level 2: "),
    "level_truncated": ("tau_level_2.json", _rewritten(_truncate), 1, "level 2: "),
    # the saved tower still has two levels
    "level_deepest_missing": (
        "tau_level_2.json", Path.unlink, 1, "level 2: unreadable tau_level_2.json: "
    ),
    "csv_row1_value": (
        "quasi_cost_level_2.csv",
        _rewritten(lambda t: t.replace("\n0,0/1,0/1\n", "\n0,0/1,7/1\n", 1)),
        1,
        "level 2: quasi_cost_level_2.csv differs from a fresh build",
    ),
    "csv_truncated": (
        "quasi_cost_level_2.csv", _rewritten(_truncate), 1,
        "level 2: quasi_cost_level_2.csv differs from a fresh build",
    ),
    "csv_stray": (
        "quasi_cost_level_3.csv",
        _copy_of("quasi_cost_level_2.csv"),
        1,
        "level 3: quasi_cost_level_3.csv is deeper than the saved tower",
    ),
    "ledger_value": (
        "singular_ledger.json",
        _rewritten(lambda t: t.replace('"-4/11"', '"-3/11"', 1)),
        1,
        "level 2: singular_ledger.json differs from a fresh build",
    ),
    "diagnostics_value": (
        "diagnostics.jsonl",
        _rewritten(
            lambda t: t.replace('"negative_mass": "-4/55"', '"negative_mass": "-3/55"', 1)
        ),
        1,
        "level 2: diagnostics.jsonl differs from a fresh build",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_ARTIFACTS))
def test_cli_verify_bad_artifacts_fail_cleanly(tmp_path, case):
    name, act, code, prefix = BAD_ARTIFACTS[case]
    d = tmp_path / "artifacts"
    assert main(["construct", "--m1", "5", "--depth", "2", "--outdir", str(d)]) == 0
    act(d / name)
    _assert_verify_fails_cleanly(d, code, prefix)


def test_cli_verify_names_each_missing_file(tmp_path):
    d = tmp_path / "artifacts"
    assert main(["construct", "--m1", "5", "--depth", "2", "--outdir", str(d)]) == 0
    (d / "tau_level_2.json").unlink()
    (d / "quasi_cost_level_2.csv").unlink()
    out = _verify_in_child(d)
    assert out.returncode == 1
    assert [line.split(":")[:2] for line in out.stderr.splitlines()] == [
        ["level 2", " unreadable tau_level_2.json"],
        ["level 2", " unreadable quasi_cost_level_2.csv"],
    ]


def _assert_verify_fails_cleanly(d, code, prefix):
    out = _verify_in_child(d)
    assert "Traceback" not in out.stderr
    assert out.returncode == code
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), out.stderr


def _replace_by_directory(path):
    path.unlink()
    path.mkdir()


# file, action on its path, start of the one stderr line (exit code 1)
UNREADABLE_ARTIFACTS = {
    "level_is_directory": (
        "tau_level_2.json", _replace_by_directory, "level 2: unreadable tau_level_2.json: "
    ),
    "csv_missing": (
        "quasi_cost_level_2.csv", Path.unlink, "level 2: unreadable quasi_cost_level_2.csv: "
    ),
    "ledger_missing": (
        "singular_ledger.json", Path.unlink, "unreadable singular_ledger.json: "
    ),
    "diagnostics_missing": (
        "diagnostics.jsonl", Path.unlink, "unreadable diagnostics.jsonl: "
    ),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_ARTIFACTS))
def test_cli_verify_unreadable_artifacts_fail_cleanly(tmp_path, case):
    name, act, prefix = UNREADABLE_ARTIFACTS[case]
    d = tmp_path / "artifacts"
    assert main(["construct", "--m1", "5", "--depth", "2", "--outdir", str(d)]) == 0
    act(d / name)
    _assert_verify_fails_cleanly(d, 1, prefix)


def test_cli_artifact_walk_is_the_saved_set(tmp_path, capsys):
    d = tmp_path / "artifacts"
    assert main(["construct", "--m1", "5", "--depth", "2", "--outdir", str(d)]) == 0
    tower = circle.build_tower(5, 2)
    assert tower.primes == (5, 11)
    names = [name for _, name, _, _ in cli._artifacts(tower, tau.build_levels(tower, 2))]
    assert sorted(os.listdir(d)) == sorted(names)
    capsys.readouterr()
    for name in names:
        saved = (d / name).read_bytes()
        (d / name).write_bytes(saved + b"\n")
        assert main(["verify", str(d)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and name in lines[0], lines
        (d / name).write_bytes(saved)
    assert main(["verify", str(d)]) == 0


def test_cli_verify_level_beyond_tower_fails_cleanly(tmp_path):
    d = tmp_path / "artifacts"
    assert main(["construct", "--m1", "5", "--depth", "2", "--outdir", str(d)]) == 0
    (d / "tau_level_3.json").write_text((d / "tau_level_2.json").read_text())
    out = _verify_in_child(d)
    assert out.returncode == 1
    assert out.stderr.splitlines() == [
        "level 3: tau_level_3.json is deeper than the saved tower"
    ]


BAD_INSTANCES = {
    "zero_denominator": {"cost": [["1/0", "1/1"], ["0/1", "0/1"]]},
    "bare_number": {"cost": [[1, "1/1"], ["0/1", "0/1"]]},
    "marginals_misfit": {"nu": ["1/3", "1/3", "1/3"]},
    "cost_not_rows": {"cost": 5},
    # strings iterate as their characters: ["35"] used to be solved as [[3, 5]]
    "string_cost_row": {"n": 1, "cost": ["35"], "mu": "2", "nu": "11"},
    "string_marginals": {"mu": "11", "nu": "11"},
    # a cost row of width 0, with and without row mass
    "zero_width_massless": {"n": 1, "cost": [[]], "mu": ["0/1"], "nu": []},
    "zero_width_with_mass": {"n": 1, "cost": [[]], "mu": ["1/1"], "nu": []},
}


@pytest.mark.parametrize("case", sorted(BAD_INSTANCES))
def test_cli_solve_bad_instance_usage(tmp_path, capsys, case):
    obj = {
        "n": 2,
        "cost": [["0/1", "1/1"], ["1/1", "0/1"]],
        "mu": ["1/2", "1/2"],
        "nu": ["1/2", "1/2"],
    }
    obj.update(BAD_INSTANCES[case])
    p = tmp_path / f"{case}.json"
    p.write_text(json.dumps(obj))
    assert main(["solve", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--m1", "5", "--depth", "0"],
        ["gap", "--m1", "5", "--jmax", "2", "--M", "0"],
    ],
)
def test_cli_out_of_range_counts_usage(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--m1", "5", "--depth", "2"],
        ["gap", "--m1", "5", "--jmax", "2", "--M", "1"],
        ["verify", "ARTIFACTS"],
    ],
)
def test_cli_non_integer_search_cap_env(tmp_path, monkeypatch, capsys, argv):
    d = tmp_path / "artifacts"
    assert main(["construct", "--m1", "5", "--depth", "1", "--outdir", str(d)]) == 0
    capsys.readouterr()
    argv = [str(d) if a == "ARTIFACTS" else a for a in argv]
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("TDL_SEARCH_CAP", "1e6")
    assert main(argv) == 2
    assert capsys.readouterr().err == "TDL_SEARCH_CAP must be an integer, got '1e6'\n"


@pytest.mark.parametrize("verb", ["construct", "verify", "gap"])
def test_cli_size_guard_exits_before_building(tmp_path, monkeypatch, capsys, verb):
    # (5c) level 2 has M = 625,505 indices: about 24 MB at 40 bytes each,
    # and a dense truncated cost of 625,505^2 cells: about 35 TB at 90 each
    d = tmp_path / "artifacts"
    args = ["--m1", "5", "--mode", "paper_compliant"]
    expected = (
        "level modulus 625505 needs about 24 MB, "
        "more than the 16 MB of physical memory\n"
    )
    if verb == "verify":
        assert main(["construct", *args, "--outdir", str(d)]) == 0
        args = [str(d)]
    elif verb == "gap":
        args += ["--jmax", "2", "--M", "2"]
        expected = (
            "truncated cost of 625505 x 625505 cells needs about 33581816 MB, "
            "more than the 16 MB of physical memory\n"
        )
    else:
        args += ["--outdir", str(d)]
    capsys.readouterr()
    monkeypatch.setattr(cli, "_physical_memory", lambda: 16 << 20)
    monkeypatch.setattr(cli.tau, "build_levels", None)  # never reached
    monkeypatch.setattr(cli.tau, "build_tau_level1", None)
    monkeypatch.setattr(cli.gap, "build_gap_family", None)
    assert main([verb, *args]) == 4
    assert capsys.readouterr().err == expected


UNWRITABLE_OUTPUTS = {
    "solve_out": (["solve", "inst.json", "--out", "missing/x.json"], "missing/x.json"),
    "gap_out": (
        ["gap", "--m1", "5", "--jmax", "2", "--M", "2", "--out", "missing/x.json"],
        "missing/x.json",
    ),
    "construct_outdir_is_a_file": (
        ["construct", "--m1", "5", "--depth", "1", "--outdir", "inst.json"], "inst.json"
    ),
}


@pytest.mark.parametrize("case", sorted(UNWRITABLE_OUTPUTS))
def test_cli_unwritable_output_is_a_usage_error(tmp_path, case):
    argv, path = UNWRITABLE_OUTPUTS[case]
    save_instance(
        tmp_path / "inst.json", CostMatrix([[0, 1], [1, 0]]), Marginals.uniform(2)
    )
    out = _otlab_in_child(*argv, cwd=tmp_path)
    assert "Traceback" not in out.stderr
    assert out.returncode == 2
    errors = [l for l in out.stderr.splitlines() if not l.startswith("tower primes:")]
    assert len(errors) == 1 and errors[0].startswith(f"cannot write {path}: "), out.stderr


def test_cli_bad_m1_usage():
    assert main(["construct", "--m1", "4", "--depth", "1"]) == 2


def test_cli_search_cap_exit(monkeypatch):
    monkeypatch.setenv("TDL_SEARCH_CAP", "8")
    assert main(["construct", "--m1", "5", "--depth", "2"]) == 4


def _saved_primes_11_23(d):
    """A (5, 11) build whose tower.json claims the primes [11, 23]."""
    assert main(["construct", "--m1", "5", "--depth", "2", "--outdir", str(d)]) == 0
    saved = json.loads((d / "tower.json").read_text())
    saved["primes"] = [11, 23]
    (d / "tower.json").write_text(json.dumps(saved))
    return ["verify", str(d)]


# argv (or a function of the artifacts directory that makes it), start of
# the one stderr line
CONSTRUCTION_FAILURES = {
    "construct_modulus_out_of_range": (
        ["construct", "--m1", "7", "--depth", "4"],
        "construction failed: modulus 63050358497 exceeds the supported index range",
    ),
    "gap_modulus_out_of_range": (
        ["gap", "--m1", "7", "--jmax", "4", "--M", "1"],
        "construction failed: modulus 63050358497 exceeds the supported index range",
    ),
    "construct_level_cannot_be_built": (
        ["construct", "--m1", "11", "--depth", "2"],
        "construction failed: singular split at level 2 does not fit",
    ),
    "verify_level_cannot_be_built": (
        _saved_primes_11_23, "construction failed: singular split at level 2 does not fit"
    ),
}


@pytest.mark.parametrize("case", sorted(CONSTRUCTION_FAILURES))
def test_cli_construction_failure_exits_4_in_one_line(tmp_path, case):
    argv, prefix = CONSTRUCTION_FAILURES[case]
    if callable(argv):
        argv = argv(tmp_path / "artifacts")
    out = _otlab_in_child(*argv, cwd=tmp_path)
    assert "Traceback" not in out.stderr
    assert out.returncode == 4
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), out.stderr


def test_cli_verify_reports_a_failed_level_invariant(tmp_path, monkeypatch, capsys):
    d = tmp_path / "artifacts"
    assert main(["construct", "--m1", "5", "--depth", "1", "--outdir", str(d)]) == 0
    capsys.readouterr()
    failing = types.SimpleNamespace(hard_invariants_ok=False)
    monkeypatch.setattr(cli.tau, "verify_level", lambda level, tower: failing)
    assert main(["verify", str(d)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("level 1: invariant check failed"), lines


def test_cli_verify_without_level_files_names_each(tmp_path):
    d = tmp_path / "artifacts"
    assert main(["construct", "--m1", "5", "--depth", "2", "--outdir", str(d)]) == 0
    for n in (1, 2):
        (d / f"tau_level_{n}.json").unlink()
        (d / f"quasi_cost_level_{n}.csv").unlink()
    out = _verify_in_child(d)
    assert out.returncode == 1
    assert [line.split(":")[:2] for line in out.stderr.splitlines()] == [
        ["level 1", " unreadable tau_level_1.json"],
        ["level 1", " unreadable quasi_cost_level_1.csv"],
        ["level 2", " unreadable tau_level_2.json"],
        ["level 2", " unreadable quasi_cost_level_2.csv"],
    ]


def test_cli_gap_report(tmp_path):
    out = tmp_path / "gap.json"
    assert main(["gap", "--m1", "5", "--jmax", "2", "--M", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["primal"] == "1/1" and report["dual"] == "1/1"


def test_cli_gap_degenerate_m1():
    # two-graph degenerate report: identity plus one rotation step
    assert main(["gap", "--m1", "5", "--jmax", "1", "--M", "1"]) == 0


def test_cli_gap_usage_errors():
    with pytest.raises(SystemExit) as e:
        main(["gap", "--m1", "5"])  # missing required flags
    assert e.value.code == 2
    assert main(["gap", "--m1", "5", "--jmax", "1", "--M", "3"]) == 2


def test_cli_construct_quasi_cost_csv_pattern(tmp_path):
    # level-1 step pattern at M1 = 11: dips to -3 on the outer intervals,
    # 2 on the bulk, 1 on the middle
    d = tmp_path / "m11"
    assert main(["construct", "--m1", "11", "--depth", "1", "--outdir", str(d)]) == 0
    rows = (d / "quasi_cost_level_1.csv").read_text().strip().split("\n")[1:]
    values = [r.split(",")[2] for r in rows]
    assert values[0] == "-3/1" and values[-1] == "-3/1"
    assert values[5] == "1/1"
    assert values[1:5] == ["2/1"] * 4 and values[6:10] == ["2/1"] * 4
