import argparse
import hashlib
import json
import math
import random

import pytest

from addcomb import gaps
from addcomb.cli import COMMANDS, main, parse_args
from addcomb.intset import IntSet
from addcomb.records import RecordStore
from conftest import naive_rep


def run_cli(capsys, monkeypatch, tmp_path, *argv, store_name="store.jsonl"):
    monkeypatch.setenv("ADDCOMB_RECORDS", str(tmp_path / store_name))
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def rows(output):
    return [json.loads(line) for line in output.strip().splitlines()]


def test_qk_command(capsys, monkeypatch, tmp_path):
    code, out = run_cli(capsys, monkeypatch, tmp_path,
                        "qk", "--k", "2", "--n", "3", "--pmax", "100", "--rmax", "100")
    assert code == 0
    header, record = rows(out)
    assert header["type"] == "header" and header["config"]["seed"] == 0
    assert record["best_count"] == 3
    assert record["witness"] == {"p": 1, "r": 24}
    assert record["timestamp"] is None
    stored = RecordStore(tmp_path / "store.jsonl").read_all()
    assert stored and stored[-1]["best_count"] == 3


def test_energy_command(capsys, monkeypatch, tmp_path):
    code, out = run_cli(capsys, monkeypatch, tmp_path, "energy", "--set", "[0,1]")
    assert code == 0
    record = rows(out)[-1]
    assert record["value"] == 6


@pytest.mark.parametrize("span", [(1 << 26) - 1, (1 << 26) + 1, 1 << 40])
def test_energy_pair_default_matches_naive(capsys, monkeypatch, tmp_path, span):
    # A + B covers exactly `span` values: min 0, max span - 1
    rng = random.Random(span)
    width_a = span // 3
    a = {0, width_a, *range(5, 50, 5), *rng.sample(range(width_a), 20)}
    b = {0, span - 1 - width_a, *range(3, 30, 3), *rng.sample(range(span - width_a), 20)}
    code, out = run_cli(capsys, monkeypatch, tmp_path, "energy", "--set", json.dumps(sorted(a)),
                        "--b-set", json.dumps(sorted(b)))
    assert code == 0
    expected = sum(c**2 for c in naive_rep(a, b, "plus").values())
    assert rows(out)[-1]["value"] == expected > len(a) * len(b)


def test_energy_records_sets_canonically(capsys, monkeypatch, tmp_path):
    outs = [run_cli(capsys, monkeypatch, tmp_path, "energy", "--set", a, "--b-set", b)
            for a, b in (("[1,0]", "[4, 1]"), ("[0,1]", "[1,4]"))]
    assert outs[0] == outs[1]
    assert rows(outs[0][1])[0]["config"]["params"] == {"set": [0, 1], "b_set": [1, 4]}
    _, out = run_cli(capsys, monkeypatch, tmp_path, "energy", "--set", "[1,0]")
    assert rows(out)[0]["config"]["params"] == {"set": [0, 1], "b_set": None}


def test_matching_command(capsys, monkeypatch, tmp_path):
    code, out = run_cli(capsys, monkeypatch, tmp_path,
                        "matching", "--pairs", "[[1,2],[3,4]]")
    assert code == 0
    record = rows(out)[-1]
    assert record["S"] == [3, 7] and record["P"] == [2, 12]
    assert record["edges"] == 2 and record["cubic_energy"] == 2


def test_verify_replays_records(capsys, monkeypatch, tmp_path):
    run_cli(capsys, monkeypatch, tmp_path,
            "qk", "--k", "2", "--n", "3", "--pmax", "50", "--rmax", "50")
    run_cli(capsys, monkeypatch, tmp_path,
            "scan-ap", "--k", "2", "--p", "1", "--r", "24", "--n", "8")
    code, out = run_cli(capsys, monkeypatch, tmp_path, "verify")
    assert code == 0
    verify_rows = [r for r in rows(out) if r["type"] == "verify"]
    assert len(verify_rows) == 2 and all(r["ok"] for r in verify_rows)
    assert rows(out)[-1]["all_ok"]


def test_verify_flags_tampered_record(capsys, monkeypatch, tmp_path):
    run_cli(capsys, monkeypatch, tmp_path,
            "scan-ap", "--k", "2", "--p", "1", "--r", "24", "--n", "8")
    store_path = tmp_path / "store.jsonl"
    record = json.loads(store_path.read_text())
    record["count"] = 99
    store_path.write_text(json.dumps(record) + "\n")
    code, out = run_cli(capsys, monkeypatch, tmp_path, "verify")
    assert code == 1
    assert not rows(out)[-1]["all_ok"]


def test_determinism_same_bytes(capsys, monkeypatch, tmp_path):
    argv = ["mobius-check", "--i-set", "[1,2,3,4,5,6]",
            "--gap", '{"base": 1, "steps": [2], "lengths": [9]}', "--l-max", "6"]
    _, first = run_cli(capsys, monkeypatch, tmp_path, *argv)
    _, second = run_cli(capsys, monkeypatch, tmp_path, *argv)
    assert first == second
    assert all(r["equal"] for r in rows(first) if r["type"] == "mobius_check")


def test_mobius_check_stratifies_once(capsys, monkeypatch, tmp_path):
    i_set = list(range(1, 61))
    gap = {"base": 3, "steps": [6, 35], "lengths": [40, 42]}
    calls = []
    original = gaps.stratify

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(gaps, "stratify", counted)
    code, out = run_cli(capsys, monkeypatch, tmp_path, "mobius-check", "--i-set", json.dumps(i_set),
                        "--gap", json.dumps(gap), "--l-max", "12")
    assert code == 0
    assert len(calls) == 1
    checks = [r for r in rows(out) if r["type"] == "mobius_check"]
    assert [r["l"] for r in checks] == list(range(1, 13))
    # each l checked on its own gives the same row
    values = gaps.enumerate_gap(gaps.gcd_normalize(gaps.Gap.from_json(gap)).primed)
    for row in checks:
        (alone,) = gaps.mobius_identity_check(IntSet(i_set), gaps.Gap.from_json(gap), [row["l"]])
        assert {k: row[k] for k in ("direct", "transformed", "equal")} == alone.to_json()
        assert row["equal"]
        assert row["direct"] == sum(1 for i in i_set for h in values if math.gcd(i, h) == row["l"])
    assert len(calls) == 13


def test_csv_projection(capsys, monkeypatch, tmp_path):
    code, out = run_cli(capsys, monkeypatch, tmp_path,
                        "--format", "csv", "energy", "--set", "[0,1]")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("config.")
    assert len(lines) == 3  # header row, run header, one record


def test_exit_codes(capsys, monkeypatch, tmp_path):
    code, _ = run_cli(capsys, monkeypatch, tmp_path, "energy", "--set", "oops")
    assert code == 2
    code, _ = run_cli(capsys, monkeypatch, tmp_path,
                      "qk", "--k", "2", "--n", "9", "--pmax", "99999999", "--rmax", "99999999")
    assert code == 3
    code, _ = run_cli(capsys, monkeypatch, tmp_path,
                      "scan-ap", "--k", "2", "--p", "9223372036854775000",
                      "--r", "1000", "--n", "10")
    assert code == 4


def test_exit_codes_malformed_json(capsys, monkeypatch, tmp_path):
    # a JSON argument of the wrong shape is a usage error, not a traceback
    code, out = run_cli(capsys, monkeypatch, tmp_path, "scan-gap", "--k", "2", "--gap", "[1,2]")
    assert code == 2 and out == ""
    code, out = run_cli(capsys, monkeypatch, tmp_path,
                        "curve-points", "--curve", "[2]", "--height", "5")
    assert code == 2 and out == ""
    # so is a stored checkpoint of the wrong shape under --resume
    key = json.dumps({"k": 2, "n": 3, "pmax": 5, "rmax": 5}, sort_keys=True, separators=(",", ":"))
    RecordStore(tmp_path / "bad.jsonl").append({"type": "checkpoint", "config_key": key, "frontier": {"r": 1}})
    code, _ = run_cli(capsys, monkeypatch, tmp_path, "qk", "--k", "2", "--n", "3", "--pmax", "5",
                      "--rmax", "5", "--resume", store_name="bad.jsonl")
    assert code == 2
    # a stored record that cannot be decoded fails verify
    RecordStore(tmp_path / "store.jsonl").append({"type": "qk", "k": 2})
    code, out = run_cli(capsys, monkeypatch, tmp_path, "verify")
    assert code == 1
    assert [(r["record_type"], r["ok"]) for r in rows(out) if r["type"] == "verify"] == [("qk", False)]
    assert not rows(out)[-1]["all_ok"]
    # so does a store with a line that is not JSON, while qk --resume on it is a usage error
    (tmp_path / "corrupt.jsonl").write_text('{"type":"qk","k":2}\nnot json\n')
    code, out = run_cli(capsys, monkeypatch, tmp_path, "verify", store_name="corrupt.jsonl")
    assert code == 1
    assert [r["type"] for r in rows(out)] == ["header", "verify_summary"]
    assert not rows(out)[-1]["all_ok"]
    code, _ = run_cli(capsys, monkeypatch, tmp_path, "qk", "--k", "2", "--n", "3", "--pmax", "5",
                      "--rmax", "5", "--resume", store_name="corrupt.jsonl")
    assert code == 2


def test_usage_error_unknown_command(capsys, monkeypatch, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, monkeypatch, tmp_path, "frobnicate")
    assert exc.value.code == 2


# subcommand -> its help line, as `addcomb -h` prints it
HELP_LINES = {
    "energy": "additive energy of a set, or power-set trend rows",
    "mixed-energy": "mixed moment E_{k,l}",
    "pluennecke": "iterated sumset growth check",
    "scan-ap": "count k-th powers in one progression",
    "scan-gap": "count k-th powers in a generalized progression",
    "qk": "exhaustive best k-th-power count over a (p, r) box",
    "curve-points": "bounded-height point search",
    "probe-quadruples": "integer-point census for shift triples",
    "clique": "distinct integers with all pairwise sums square",
    "incidence": "solutions of a = b*c + d over a point set",
    "matching": "sums, products and the product-sum graph",
    "extremal": "matching minimizing |P| + |S|",
    "mobius-check": "gcd class counts versus Mobius-transformed sums",
    "inclusion-check": "dilates of Z inside 2A - 2A",
    "popular": "popular differences and their difference energy",
    "verify": "replay every stored record from its witness",
}

QK = ("qk", "--k", "2", "--n", "3", "--pmax", "5", "--rmax", "5")

# argv -> (exit code, texts that must each appear in one line of stdout)
USAGE_CASES = (
    (("-h",), 0, tuple(f"{name} {help_line}" for name, help_line in HELP_LINES.items())),
    (("qk", "-h"), 0, ("--checkpoint-every", "--resume")),
    ((), 2, ()),
    (("frobnicate",), 2, ()),
    (("scan-ap", "--k", "2", "--p", "1", "--r", "2"), 2, ()),  # --n is required
    (("scan-ap", "--k", "x", "--p", "1", "--r", "2", "--n", "3"), 2, ()),
    (("energy", "--set", "[0,1]", "--method", "fft"), 2, ()),
    ((*QK, "--seed", "3"), 2, ()),  # global flags go before the subcommand
    ((*QK, "--bogus"), 2, ()),
    (("--rec", "flagged.jsonl", *QK), 0, ('"command":"qk"',)),  # an abbreviated global flag
    (("energy", "--set", "[0,1]", "--method", "naive"), 2, ()),  # the flag is gone
    (("curve-points", "--curve", '{"k":2,"coeffs":[15,0,1]}', "--height", "3", "--mode", "fft"), 2, ()),
)


@pytest.mark.parametrize("argv, code, shown", USAGE_CASES)
def test_usage_contract(capsys, monkeypatch, tmp_path, argv, code, shown):
    assert set(HELP_LINES) == set(COMMANDS)
    monkeypatch.setenv("COLUMNS", "200")
    monkeypatch.setenv("ADDCOMB_RECORDS", str(tmp_path / "store.jsonl"))
    monkeypatch.chdir(tmp_path)
    try:
        exit_code = main(list(argv))
    except SystemExit as exc:
        exit_code = exc.code
    assert exit_code == code
    lines = [" ".join(line.split()) for line in capsys.readouterr().out.splitlines()]
    for text in shown:
        assert any(text in line for line in lines), text
    assert (tmp_path / "flagged.jsonl").exists() == ("--rec" in argv)


def test_main_builds_only_the_chosen_parser(capsys, monkeypatch, tmp_path):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    code, _ = run_cli(capsys, monkeypatch, tmp_path, "scan-ap", "--k", "2", "--p", "1", "--r", "24", "--n", "8")
    assert code == 0
    assert len(built) <= 2, built


def test_record_store_flag_overrides_env(capsys, monkeypatch, tmp_path):
    other = tmp_path / "flagged.jsonl"
    monkeypatch.setenv("ADDCOMB_RECORDS", str(tmp_path / "env.jsonl"))
    code = main(["--record-store", str(other),
                 "scan-ap", "--k", "2", "--p", "0", "--r", "1", "--n", "5"])
    capsys.readouterr()
    assert code == 0
    assert other.exists()
    assert not (tmp_path / "env.jsonl").exists()


def test_curve_points_command(capsys, monkeypatch, tmp_path):
    code, out = run_cli(capsys, monkeypatch, tmp_path,
                        "curve-points", "--curve", '{"k": 5, "coeffs": [1,0,0,0,0,1]}',
                        "--height", "10")
    assert code == 0
    record = rows(out)[-1]
    assert record["points"] == [[-1, 0], [0, 1]]
    assert record["genus"] == 6


def test_clique_command(capsys, monkeypatch, tmp_path):
    code, out = run_cli(capsys, monkeypatch, tmp_path,
                        "clique", "--height", "50", "--size", "3")
    assert code == 0
    members = [r["members"] for r in rows(out) if r["type"] == "clique"]
    assert [6, 19, 30] in members


def test_popular_command(capsys, monkeypatch, tmp_path):
    code, out = run_cli(capsys, monkeypatch, tmp_path,
                        "popular", "--set", "[0,1]")
    assert code == 0
    record = rows(out)[-1]
    assert record["popular"] == [-1, 0, 1] and record["sum"] == 7


def test_inclusion_command(capsys, monkeypatch, tmp_path):
    code, out = run_cli(capsys, monkeypatch, tmp_path,
                        "inclusion-check", "--set", "[0,1]", "--z", "[1]",
                        "--d", "2", "--l", "3")
    assert code == 0
    record = rows(out)[-1]
    assert record["holds"] is False and record["witnesses"][0] == 3


def test_extremal_command_seeded(capsys, monkeypatch, tmp_path):
    argv = ["--seed", "3", "extremal", "--n", "2", "--box", "3"]
    code, out = run_cli(capsys, monkeypatch, tmp_path, *argv)
    assert code == 0
    record = rows(out)[-1]
    assert record["score"] == 2
    _, again = run_cli(capsys, monkeypatch, tmp_path, *argv)
    assert out == again


def test_incidence_command(capsys, monkeypatch, tmp_path):
    code, out = run_cli(capsys, monkeypatch, tmp_path,
                        "incidence", "--a-set", "[1,4,9]", "--c-set", "[1,2]",
                        "--points", "[[1,0]]")
    assert code == 0
    assert rows(out)[-1]["sigma"] == 1


def test_qk_resume_via_store(capsys, monkeypatch, tmp_path):
    full_code, full_out = run_cli(capsys, monkeypatch, tmp_path,
                                  "qk", "--k", "2", "--n", "3", "--pmax", "40",
                                  "--rmax", "40", store_name="full.jsonl")
    assert full_code == 0
    # seed a checkpoint mid-box, then resume against it
    store = RecordStore(tmp_path / "resume.jsonl")
    store.append({
        "type": "checkpoint",
        "config_key": json.dumps({"k": 2, "n": 3, "pmax": 40, "rmax": 40},
                                 sort_keys=True, separators=(",", ":")),
        "frontier": {"r": 20, "p": 40, "best_count": 1, "witness": {"p": 0, "r": 1}},
    })
    code, out = run_cli(capsys, monkeypatch, tmp_path,
                        "qk", "--k", "2", "--n", "3", "--pmax", "40", "--rmax", "40",
                        "--resume", store_name="resume.jsonl")
    assert code == 0
    resumed = [r for r in rows(out) if r["type"] == "qk"][-1]
    full = [r for r in rows(full_out) if r["type"] == "qk"][-1]
    assert resumed["best_count"] == full["best_count"]
    assert resumed["witness"] == full["witness"]


def test_verify_rejects_witness_outside_box(capsys, monkeypatch, tmp_path):
    run_cli(capsys, monkeypatch, tmp_path,
            "qk", "--k", "2", "--n", "3", "--pmax", "100", "--rmax", "100")
    store = RecordStore(tmp_path / "store.jsonl")
    record = store.read_all()[-1]
    # 1, 1025, 2049 holds one square, so the count replays but r is off the box
    store.append({**record, "best_count": 1, "witness": {"p": 1, "r": 1024}})
    code, out = run_cli(capsys, monkeypatch, tmp_path, "verify")
    assert code == 1
    verify_rows = [r for r in rows(out) if r["type"] == "verify"]
    assert [r["ok"] for r in verify_rows] == [True, False]
    assert not rows(out)[-1]["all_ok"]


def test_timestamps_flag(capsys, monkeypatch, tmp_path):
    code, out = run_cli(capsys, monkeypatch, tmp_path,
                        "--timestamps", "scan-ap", "--k", "2", "--p", "0",
                        "--r", "1", "--n", "5")
    assert code == 0
    record = [r for r in rows(out) if r["type"] == "ap_count"][-1]
    assert isinstance(record["timestamp"], float)
    code, out = run_cli(capsys, monkeypatch, tmp_path,
                        "--timestamps", "qk", "--k", "2", "--n", "3", "--pmax", "20", "--rmax", "30")
    assert code == 0
    record = rows(out)[-1]
    stored = RecordStore(tmp_path / "store.jsonl").read_all()[-1]
    assert isinstance(record["timestamp"], float) and stored["timestamp"] == record["timestamp"]


def test_probe_quadruples_command(capsys, monkeypatch, tmp_path):
    code, out = run_cli(capsys, monkeypatch, tmp_path,
                        "probe-quadruples", "--alpha-min", "2", "--alpha-max", "5",
                        "--height", "20")
    assert code == 0
    triple_rows = [r for r in rows(out) if r["type"] == "quadruple_count"]
    assert len(triple_rows) == 4  # C(4, 3)
    census = rows(out)[-1]
    assert census["type"] == "quadruple_census"
    assert census["triples_total"] == 4


def test_scan_gap_command(capsys, monkeypatch, tmp_path):
    code, out = run_cli(capsys, monkeypatch, tmp_path,
                        "scan-gap", "--k", "2",
                        "--gap", '{"base": 1, "steps": [1], "lengths": [25]}')
    assert code == 0
    assert rows(out)[-1]["count"] == 5
    code, out = run_cli(capsys, monkeypatch, tmp_path, "verify")
    assert code == 0


# One small fixed run of every subcommand, in order, against one store.
# Digests are SHA-256 of stdout, and of the store after the last run.
GOLDEN_RUNS = (
    ("energy", ("energy", "--set", "[0,1,3,7]")),
    ("energy-pair", ("energy", "--set", "[0,2,5]", "--b-set", "[1,4]")),
    ("energy-powers", ("energy", "--powers", "2", "--n-list", "30,100")),
    ("mixed-energy", ("mixed-energy", "--set", "[0,1,4]", "--k", "2", "--l", "3")),
    ("pluennecke", ("pluennecke", "--set", "[0,1,5]", "--n", "2", "--m", "1")),
    ("scan-ap", ("scan-ap", "--k", "2", "--p", "1", "--r", "24", "--n", "8")),
    ("scan-gap", ("scan-gap", "--k", "2", "--gap", '{"base":1,"steps":[24,5040],"lengths":[8,4]}')),
    ("qk", ("qk", "--k", "2", "--n", "3", "--pmax", "30", "--rmax", "30", "--checkpoint-every", "200")),
    ("qk-resume", ("qk", "--k", "2", "--n", "3", "--pmax", "30", "--rmax", "30", "--resume")),
    ("curve-points", ("curve-points", "--curve", '{"k":2,"coeffs":[15,0,1]}', "--height", "20",
                      "--mode", "rational")),
    ("probe-quadruples", ("probe-quadruples", "--alpha-min", "-3", "--alpha-max", "3", "--height", "15")),
    ("probe-quadruples-csv", ("--format", "csv", "probe-quadruples", "--alpha-min", "-3",
                              "--alpha-max", "3", "--height", "15")),
    ("clique", ("clique", "--height", "50", "--size", "3")),
    ("incidence", ("incidence", "--a-set", "[1,4,9]", "--c-set", "[1,2]", "--points", "[[1,0],[2,1]]",
                   "--squares-b")),
    ("matching", ("matching", "--pairs", "[[1,2],[3,4],[2,5]]")),
    ("extremal", ("--seed", "3", "extremal", "--n", "3", "--box", "4", "--iterations", "50")),
    ("mobius-check", ("mobius-check", "--i-set", "[1,2,3,4,5,6]",
                      "--gap", '{"base":1,"steps":[2],"lengths":[9]}')),
    ("inclusion-check", ("inclusion-check", "--set", "[0,1,3]", "--z", "[1,2]", "--d", "2", "--l", "3")),
    ("popular", ("popular", "--set", "[0,1,3,4]", "--k", "2")),
    ("verify", ("verify",)),
)

# pinned; a change to any byte of the output or the store fails the test
GOLDEN_DIGESTS = {
    "energy": "7500dc1b04e970a04a97ea19462683bef3bdaeda3150e5ecf6f54b229aa0b5fc",
    "energy-pair": "e83a47367a3052ab54fd6ffb412d296dcde95fdc4573f15ecb9491944921e98d",
    "energy-powers": "d02638efc103bebcab13fa5acbdb72f51ff90959747c684d4d8840ee21ce0027",
    "mixed-energy": "b78e79e4811d320d4d5b019a38b550e5df06770aedce31f11de15ef4da722001",
    "pluennecke": "1be25addaf04244f80e7619364e7ad245d4dd58ad3bbc2a2734bfe0e1d8b5e59",
    "scan-ap": "74f9d33eabc00e5dcbe9990362c9bd63cf06f6924f0236fbf0bf819310249ffb",
    "scan-gap": "1e0f6adfa53aef1b18f0bf1bb9bd131b141f0343b758fc6ac5f392d20b1298e4",
    "qk": "fcaef0052c66c72b6752ad43c456c0dde995a528632a4c4e301d7e3d402be988",
    "qk-resume": "fcaef0052c66c72b6752ad43c456c0dde995a528632a4c4e301d7e3d402be988",
    "curve-points": "d21c5ebc2ce4d381f2c966a84fd38ef6ac9fa18be9895de867277ad4b3551268",
    "probe-quadruples": "b5d44a979a65da5e22df9e40c4a596433f31ac39687bf0d36853556ce8211dd8",
    "probe-quadruples-csv": "ba546eb672c14067b29a02a17336107217b147c214b0630e8e57eb547566e5d8",
    "clique": "c0ab7c61df4703f6ed88898a12c2431db4117794d155441a4f8be4c835731acd",
    "incidence": "8f16571061fd6f940f1bf93169e3460f57bc7a4b50cee39a939a5937ce81e047",
    "matching": "97fac69c7f4fe9de5178fc601892814ba7aceaf34ba2a0c3e5bbd987829fab3e",
    "extremal": "c0ca2677cf760ae83535002bd5cbc360879db36085558c39b12b1d89a5519435",
    "mobius-check": "e858c6664c9d1f4cbd5bd1762d09cea3fe6789d41ed01a544bb7aced12602576",
    "inclusion-check": "983a08db5bc08c341e0a023f593b60dd06a4a9f600db79f4fa31cd111d6f55ac",
    "popular": "6007ebf05dee0105952fa088812cc157b1828cf57cdd81c1cf271f586effb477",
    "verify": "8a705e1db549b550a6695e8fd669014a308ce47016d020f1c2d1fd76efa8691f",
    "store": "94fdcfb89f66f58cf7d22511a8302b03d365f05965d5f79c6c507a2c16b99a27",
}


def test_golden_output_every_command(capsys, monkeypatch, tmp_path):
    assert {parse_args(argv).command for _, argv in GOLDEN_RUNS} == set(COMMANDS)
    digests = {}
    for name, argv in GOLDEN_RUNS:
        code, out = run_cli(capsys, monkeypatch, tmp_path, *argv)
        assert code == 0, name
        digests[name] = hashlib.sha256(out.encode()).hexdigest()
    digests["store"] = hashlib.sha256((tmp_path / "store.jsonl").read_bytes()).hexdigest()
    assert digests == GOLDEN_DIGESTS
