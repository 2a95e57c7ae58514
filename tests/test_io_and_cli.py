import hashlib
import json
import math
import os
import random
import subprocess
import sys
import types
from fractions import Fraction as F
from pathlib import Path

import pytest

import otlab
from otlab import circle, cli, gap, tau
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
    assert parse_rational_str(" -3/1\n") == -3


# int() reads these parts as 1000, 1 (the Arabic-Indic digit one), -3 and 3
@pytest.mark.parametrize("text", ["1_000", "\u0661", "1/-3", "1 / 3"])
def test_parse_rational_takes_only_ascii_digits(text):
    with pytest.raises(ValueError, match="ASCII digits"):
        parse_rational_str(text)


def test_instance_round_trip():
    cost = CostMatrix([[F(1, 2), INF], [3, 0]])
    marg = Marginals([F(1, 2), F(1, 2)], [F(1, 4), F(3, 4)])
    text = instance_to_json(cost, marg)
    cost2, marg2 = instance_from_json(text)
    assert cost2.arcs == cost.arcs
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


def test_instance_n_must_count_the_cost_rows():
    obj = {"n": 7, "cost": [["0/1"]], "mu": ["1/1"], "nu": ["1/1"]}
    with pytest.raises(ValueError, match=r'^"n" is 7, the number of cost rows is 1$'):
        instance_from_json(json.dumps(obj))
    del obj["n"]
    assert instance_from_json(json.dumps(obj))[0].n_rows == 1


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


def test_cli_solve_parse_error(tmp_path, capsys):
    p = tmp_path / "junk.json"
    p.write_text("{not json")
    assert main(["solve", str(p)]) == 2
    for text, message in (
        ("[]", "instance must be a JSON object"),
        ('"cost"', "instance must be a JSON object"),
        ('{"n": 1}', "instance has no 'cost' key"),
        ('{"cost": [[0]], "mu": ["1/1"]}', "instance has no 'nu' key"),
    ):
        capsys.readouterr()
        p.write_text(text)
        assert main(["solve", str(p)]) == 2
        assert capsys.readouterr().err == f"cannot parse instance: {message}\n"


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


def _child_env():
    src = str(Path(otlab.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def _otlab_in_child(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "otlab.cli", *argv],
        capture_output=True, text=True, env=_child_env(), timeout=120, cwd=cwd,
    )


def _verify_in_child(d):
    return _otlab_in_child("verify", str(d))


def _otlab_into_closed_pipe(*argv):
    """Run the CLI in a child whose stdout is a pipe with no reader left:
    the read end is closed before the child starts, so its first write
    fails whatever the timing."""
    r, w = os.pipe()
    os.close(r)
    try:
        return subprocess.run(
            [sys.executable, "-m", "otlab.cli", *argv],
            stdout=w, stderr=subprocess.PIPE, text=True, env=_child_env(), timeout=120,
        )
    finally:
        os.close(w)


def test_cli_solve_and_verify_into_closed_stdout(tmp_path):
    """A reader that closes stdout early (`otlab solve x.json | head -c 1`)
    costs the report, not the verdict: no traceback, the usual exit code."""
    inst = tmp_path / "inst.json"
    save_instance(inst, CostMatrix([[0 if i == j else 1 for j in range(3)] for i in range(3)]), Marginals.uniform(3))
    d = tmp_path / "artifacts"
    assert main(["construct", "--m1", "5", "--depth", "2", "--outdir", str(d)]) == 0
    for argv in (("solve", str(inst)), ("verify", str(d))):
        out = _otlab_into_closed_pipe(*argv)
        assert "Traceback" not in out.stderr, out.stderr
        assert out.returncode == 0, (argv, out.stderr)


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


def _flip_row0_byte(path):
    data = bytearray(path.read_bytes())
    data[data.index(b"\n") + 3] ^= 1  # "0,0/1,0/1" becomes "0,0.1,0/1"
    path.write_bytes(bytes(data))


def _header_only(path):
    path.write_bytes(path.read_bytes().split(b"\n")[0] + b"\n")


@pytest.mark.parametrize("act", [_flip_row0_byte, _header_only])
def test_cli_verify_drains_the_pass_after_a_differing_csv_block(tmp_path, monkeypatch, capsys, act):
    # At 7 rows per block the (5, 11) level-2 CSV is 8 blocks, and the
    # comparison stops at the first.  The level's ledger, diagnostics and
    # invariant checks take its runs, not the CSV's blocks, so only the
    # CSV fails.
    d = tmp_path / "artifacts"
    assert main(["construct", "--m1", "5", "--depth", "2", "--outdir", str(d)]) == 0
    act(d / "quasi_cost_level_2.csv")
    capsys.readouterr()
    monkeypatch.setattr(circle, "_CHUNK", 7)
    assert main(["verify", str(d)]) == 1
    out = capsys.readouterr()
    want = ["level 2: quasi_cost_level_2.csv differs from a fresh build"]
    assert out.err.splitlines() == want
    assert json.loads(out.out) == {"failures": want, "levels_checked": 2}


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
    # Only JSON integers are primes: true would pass as the floor 1, and 11.0
    # and "5" would reach build_tower's arithmetic.
    **{
        f"tower_prime_{kind}": (
            "tower.json",
            _rewritten(lambda t, primes=primes: f'{{"primes": {primes}}}'),
            2,
            f'cannot read artifacts: "primes" is {primes}, not a list of integers',
        )
        for kind, primes in (
            ("true", "[5, true]"), ("float", "[5, 11.0]"), ("string", '["5", 11]'), ("empty", "[]")
        )
    },
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
    # deeper than the JSON parser's recursion limit
    "tower_nested_too_deep": (
        "tower.json", _rewritten(lambda t: "[" * 100_000), 2,
        "cannot read artifacts: JSON nested too deeply to parse",
    ),
    "level_nested_too_deep": (
        "tau_level_1.json", _rewritten(lambda t: "[" * 100_000), 1,
        "level 1: unreadable tau_level_1.json: JSON nested too deeply to parse",
    ),
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


# sha256 of verify's exit code, stdout and stderr on each broken artifact
# set of BAD_ARTIFACTS and UNREADABLE_ARTIFACTS, as `_verify_output` joins
# them, with the artifacts directory written as <artifacts>
VERIFY_DIGESTS = {
    "csv_missing": "ec1bb5d01f0dd6d0cc49f11f69668ad240d1da33dfc7af304ab90b2f3a95b5f2",
    "csv_row1_value": "bd08cacc50f2601af848bdd21d617f4ea61abc71312701ce1951b63de8e5c831",
    "csv_stray": "53c07d363ff6bfb3c74f51185da7cd8b8f3b1f7c9b0c8f646ac13da7f88ec47a",
    "csv_truncated": "bd08cacc50f2601af848bdd21d617f4ea61abc71312701ce1951b63de8e5c831",
    "diagnostics_missing": "92d899d0aea2ae14296bdfd8d93c31da1e3287e9e31e7f70b7545094df210e0c",
    "diagnostics_value": "3f2bdbe6c33eaab24153dfde4d62c60f7595583ee90a65ce98a281c2faefa525",
    "ledger_missing": "7a359f197539ee76ac5da1ea8b50b5f2b15b7a43e57f8126db1fa42621564b1e",
    "ledger_value": "770fc2f2ef8e56fdb5fbeefd8d0dd0cb672eb463fdac4cf5f273d2e036fd465c",
    "level_deepest_missing": "d18362ce062462417caecad504826ebbfc2b0a5f999a1db4a90f7f7876d848eb",
    "level_is_directory": "a4e2e8eef0d95c67285d4686d848cddddc7bb67f92d7c62fa7783cead6d47872",
    "level_modulus": "0c9d1539e4204ce3a33434a3e8b469e475f11c7294a27a02bb8ee7282ff58fba",
    "level_nested_too_deep": "6b3dbcf09cd6e07a206d6829ba03879e14d89d5f00047106f5e8ad288629c2a9",
    "level_no_good_rle": "2a9b99af500d9b7afc3baabfdea12bd49272cb46397bffc4dc281a86b7ddc7b8",
    "level_truncated": "47b025c7b53cca9f84c834e340d3101d47a2a0b0c08fca706877ce1e2592e73f",
    "tower_mode": "9b210af9ab0531e766588c85773357827c5399633c41517f24c97a8fc1c45fe0",
    "tower_nested_too_deep": "1c48d6ca219b5b648eb55be74400db0c5b2b6c713597c440240c78a5f6ef2ce3",
    "tower_no_primes": "1d236e202c67edb2c6068d9ba87f7100fbfe31c8df2f8ef953c43c0ee15ad2cd",
    "tower_not_json": "ed298cb513a7dfbaf0b7b64f5d3a82c1946db947220d3b08d8a5c5190304e42c",
    "tower_prime_empty": "f9147c94307c9809d765d059df2ad205c764f9ff8bdee19469b8e53d2030a105",
    "tower_prime_float": "64f96ad0f132994cf607f8ba6729da4473a1d9085f9b38701e5b4e26120d120f",
    "tower_prime_not_int": "a2fa98eaccde89a4d2c0a77186bdac460b841716b9c8c9aca9a359135df167f2",
    "tower_prime_string": "99926693ba080b2395930f81674f194d9a6ebc4cae4e8e32221b1fb83afa67f1",
    "tower_prime_true": "3505a41b327e64c26edec31922152b94fea2db120f019ff1f00902760f239a1e",
    "tower_truncated": "9f9486d9580a2fbde394bd13d391b9e9daebf4eadd3731ae226070f569c910aa",
}


@pytest.mark.parametrize("case", sorted(BAD_ARTIFACTS))
def test_cli_verify_bad_artifacts_fail_cleanly(tmp_path, case):
    name, act, code, prefix = BAD_ARTIFACTS[case]
    d = tmp_path / "artifacts"
    assert main(["construct", "--m1", "5", "--depth", "2", "--outdir", str(d)]) == 0
    act(d / name)
    _assert_verify_fails_cleanly(d, code, prefix, case)


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


def _verify_output(d, out):
    """verify's exit code, stdout and stderr as one text, with the
    artifacts directory d written as <artifacts>."""
    return f"{out.returncode}\n{out.stdout}\0{out.stderr}".replace(str(d), "<artifacts>")


def _assert_verify_fails_cleanly(d, code, prefix, case):
    out = _verify_in_child(d)
    assert "Traceback" not in out.stderr
    assert out.returncode == code
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), out.stderr
    digest = hashlib.sha256(_verify_output(d, out).encode()).hexdigest()
    assert digest == VERIFY_DIGESTS[case]


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
    _assert_verify_fails_cleanly(d, 1, prefix, case)


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


# an update of a good instance, or the whole text of the file
BAD_INSTANCES = {
    "zero_denominator": {"cost": [["1/0", "1/1"], ["0/1", "0/1"]]},
    # int() accepts both; the instance format is ASCII "p/q"
    "digit_separator": {"cost": [["1_000", "1/1"], ["0/1", "0/1"]]},
    "arabic_indic_digit": {"cost": [["\u0661", "1/1"], ["0/1", "0/1"]]},
    "nested_too_deep": "[" * 100_000,
    "bare_number": {"cost": [[1, "1/1"], ["0/1", "0/1"]]},
    "marginals_misfit": {"nu": ["1/3", "1/3", "1/3"]},
    "cost_not_rows": {"cost": 5},
    # strings iterate as their characters: ["35"] used to be solved as [[3, 5]]
    "string_cost_row": {"n": 1, "cost": ["35"], "mu": "2", "nu": "11"},
    "string_marginals": {"mu": "11", "nu": "11"},
    # a cost row of width 0, with and without row mass
    "zero_width_massless": {"n": 1, "cost": [[]], "mu": ["0/1"], "nu": []},
    "zero_width_with_mass": {"n": 1, "cost": [[]], "mu": ["1/1"], "nu": []},
    # "n" must be the int count of cost rows; a 1x1 instance is solvable
    "n_disagrees": {"n": 7, "cost": [["0/1"]], "mu": ["1/1"], "nu": ["1/1"]},
    "n_bool": {"n": True, "cost": [["0/1"]], "mu": ["1/1"], "nu": ["1/1"]},
    "n_string": {"n": "2"},
    "n_float": {"n": 2.0},
    "n_null": {"n": None},
}


@pytest.mark.parametrize("case", sorted(BAD_INSTANCES))
def test_cli_solve_bad_instance_usage(tmp_path, capsys, case):
    obj = {
        "n": 2,
        "cost": [["0/1", "1/1"], ["1/1", "0/1"]],
        "mu": ["1/2", "1/2"],
        "nu": ["1/2", "1/2"],
    }
    bad = BAD_INSTANCES[case]
    if isinstance(bad, str):
        text = bad
    else:
        obj.update(bad)
        text = json.dumps(obj)
    p = tmp_path / f"{case}.json"
    p.write_text(text, encoding="utf-8")
    assert main(["solve", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--m1", "5", "--depth", "0"],
        ["gap", "--m1", "5", "--jmax", "2", "--M", "0"],
        # psi_12, a composite that Miller-Rabin on bases 2..37 passes
        ["construct", "--m1", "318665857834031151167461", "--depth", "1"],
        ["construct", "--m1", "5", "--mode", "paper_compliant", "--depth", "0"],
        ["gap", "--m1", "5", "--mode", "paper_compliant", "--jmax", "0", "--M", "0"],
    ],
)
def test_cli_out_of_range_counts_usage(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err.count("\n") == 1


@pytest.mark.parametrize("verb", ["construct", "gap"])
def test_cli_size_guard_exits_before_building(tmp_path, monkeypatch, capsys, verb):
    # (5c) level 2 has M = 625,505 indices: its CSV alone is about 15 MB,
    # and a truncated cost (M = 2) of at most 3 * 625,505 arcs is well
    # over 4 MB of memory
    d = tmp_path / "artifacts"
    args = ["--m1", "5", "--mode", "paper_compliant"]
    if verb == "gap":
        args += ["--jmax", "2", "--M", "2"]
        need = math.ceil(cli._BYTES_PER_ARC * 1876515 / 2**20)
        expected = (
            f"truncated cost of 1876515 arcs needs about {need} MB, "
            "more than the 4 MB of available memory\n"
        )
    else:
        args += ["--outdir", str(d)]
        need = math.ceil((cli._csv_bytes(5) + cli._csv_bytes(625505)) / 2**20)
        expected = (
            f"the artifacts need about {need} MB on disk, "
            f"more than the 4 MB free at {d}\n"
        )
    monkeypatch.setattr(cli, "_available_memory", lambda: 4 << 20)
    monkeypatch.setattr(cli, "_free_space", lambda path: 4 << 20)
    monkeypatch.setattr(tau, "build_levels", None)  # never reached
    monkeypatch.setattr(tau, "build_tau_level1", None)
    monkeypatch.setattr(gap, "build_gap_family", None)
    assert main([verb, *args]) == 4
    assert capsys.readouterr().err == expected
    assert not d.exists()


def test_cli_construct_fits_the_free_space(tmp_path, monkeypatch):
    # (5, 11) writes two CSVs of about 26 + 5 * 10 and 26 + 55 * 13 bytes:
    # 817 in all
    monkeypatch.setattr(cli, "_free_space", lambda path: 1300)
    assert main(["construct", "--m1", "5", "--outdir", str(tmp_path / "a")]) == 0
    monkeypatch.setattr(cli, "_free_space", lambda path: 700)
    assert main(["construct", "--m1", "5", "--outdir", str(tmp_path / "b")]) == 4


def test_csv_bytes_is_a_close_upper_estimate(tmp_path):
    d = tmp_path / "a"
    assert main(["construct", "--m1", "5", "--mode", "paper_compliant", "--outdir", str(d)]) == 0
    for n, M in ((1, 5), (2, 625505)):
        size = (d / f"quasi_cost_level_{n}.csv").stat().st_size
        assert size <= cli._csv_bytes(M) <= 1.05 * size + 100


def test_free_space_reads_the_nearest_existing_directory(tmp_path, monkeypatch):
    seen = []

    def statvfs(path):
        seen.append(path)
        return types.SimpleNamespace(f_bavail=3, f_frsize=4096)

    monkeypatch.setattr(os, "statvfs", statvfs)
    assert cli._free_space(str(tmp_path / "not" / "yet")) == 3 * 4096
    assert seen == [str(tmp_path)]


def _physical_memory():
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


@pytest.mark.parametrize(
    "text, expected",
    [
        ("MemTotal: 8221884 kB\nMemFree: 6832340 kB\nMemAvailable: 16384 kB\n", 16 << 20),
        ("MemTotal: 8221884 kB\nMemFree: 6832340 kB\n", None),  # no MemAvailable line
        ("MemAvailable: plenty\n", None),
        (None, None),  # no such file
    ],
)
def test_available_memory_reads_meminfo(tmp_path, monkeypatch, text, expected):
    meminfo = tmp_path / "meminfo"
    if text is not None:
        meminfo.write_text(text, encoding="ascii")
    monkeypatch.setattr(cli, "_MEMINFO", str(meminfo))
    assert cli._available_memory() == (expected or _physical_memory())


def test_cli_size_guard_compares_with_available_memory(tmp_path, monkeypatch, capsys):
    # the (5c) gap cost needs well over 4 MB; physical memory is far more,
    # available is not
    meminfo = tmp_path / "meminfo"
    meminfo.write_text("MemTotal: 8221884 kB\nMemAvailable: 4096 kB\n", encoding="ascii")
    monkeypatch.setattr(cli, "_MEMINFO", str(meminfo))
    monkeypatch.setattr(gap, "build_gap_family", None)  # never reached
    argv = ["gap", "--m1", "5", "--mode", "paper_compliant", "--jmax", "2", "--M", "2"]
    assert main(argv) == 4
    need = math.ceil(cli._BYTES_PER_ARC * 1876515 / 2**20)
    assert capsys.readouterr().err == (
        f"truncated cost of 1876515 arcs needs about {need} MB, "
        "more than the 4 MB of available memory\n"
    )


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


def test_cli_ignores_the_retired_search_cap_env(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("TDL_SEARCH_CAP", "8")
    assert main(["construct", "--m1", "5", "--depth", "2"]) == 0


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
        "construction failed: no qualifying prime for level 4 keeps the level modulus "
        "within the supported index range",
    ),
    "gap_modulus_out_of_range": (
        ["gap", "--m1", "7", "--jmax", "4", "--M", "1"],
        "construction failed: no qualifying prime for level 4 keeps the level modulus "
        "within the supported index range",
    ),
    # level 3 needs m_3 > 40 * 625505^5: past the range before any scan
    "construct_compliant_level_3_out_of_range": (
        ["construct", "--m1", "5", "--mode", "paper_compliant", "--depth", "3"],
        "construction failed: no qualifying prime for level 3 keeps the level modulus",
    ),
    "construct_level_cannot_be_built": (
        ["construct", "--m1", "11", "--depth", "2"],
        "construction failed: singular split at level 2 does not fit",
    ),
    "verify_level_cannot_be_built": (
        _saved_primes_11_23, "construction failed: singular split at level 2 does not fit"
    ),
}


# sha256 of the stderr of each CONSTRUCTION_FAILURES case
CONSTRUCTION_FAILURE_DIGESTS = {
    "construct_compliant_level_3_out_of_range": "388820cfdf1df730e857c91155406c20d10e65ba22a50155bfc023b0533699b0",
    "construct_level_cannot_be_built": "7c2ada263b4203c298fdb1083e79400be268f64fdbaf0e20edba679d8b3b225b",
    "construct_modulus_out_of_range": "3475e20d2a817206a67cfd027a54232ed5178d13488d2cbac5964cefcdb6810d",
    "gap_modulus_out_of_range": "3475e20d2a817206a67cfd027a54232ed5178d13488d2cbac5964cefcdb6810d",
    "verify_level_cannot_be_built": "7c2ada263b4203c298fdb1083e79400be268f64fdbaf0e20edba679d8b3b225b",
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
    digest = hashlib.sha256(out.stderr.encode()).hexdigest()
    assert digest == CONSTRUCTION_FAILURE_DIGESTS[case]


def test_cli_verify_reports_a_failed_level_invariant(tmp_path, monkeypatch, capsys):
    d = tmp_path / "artifacts"
    assert main(["construct", "--m1", "5", "--depth", "1", "--outdir", str(d)]) == 0
    capsys.readouterr()
    failing = types.SimpleNamespace(hard_invariants_ok=False)
    monkeypatch.setattr(tau, "verify_level", lambda level, tower: failing)
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
