import json
import random

import pytest

from addcomb.cli import main
from addcomb.records import RecordStore


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
    values = []
    for extra in ((), ("--method", "naive")):
        code, out = run_cli(capsys, monkeypatch, tmp_path, "energy", "--set", json.dumps(sorted(a)),
                            "--b-set", json.dumps(sorted(b)), *extra)
        assert code == 0
        values.append(rows(out)[-1]["value"])
    assert values[0] == values[1] > len(a) * len(b)


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


def test_usage_error_unknown_command(capsys, monkeypatch, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, monkeypatch, tmp_path, "frobnicate")
    assert exc.value.code == 2


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
