import builtins
import json
import os
import random
import subprocess
import sys

import pytest

from addcomb import RecordStore, cli, records


def test_append_and_read(tmp_path):
    store = RecordStore(tmp_path / "records.jsonl")
    store.append({"type": "qk", "value": 1})
    store.append({"type": "qk", "value": 2})
    records = store.read_all()
    assert [r["value"] for r in records] == [1, 2]
    assert all(r["schema_version"] == 1 for r in records)


def test_corrupt_trailing_line_tolerated(tmp_path):
    path = tmp_path / "records.jsonl"
    store = RecordStore(path)
    store.append({"type": "qk", "value": 1})
    with open(path, "ab") as fh:
        fh.write(b'{"type": "qk", "val')  # interrupted write
    assert [r["value"] for r in store.read_all()] == [1]
    # appending truncates the bad tail and continues
    store.append({"type": "qk", "value": 2})
    assert [r["value"] for r in store.read_all()] == [1, 2]
    lines = path.read_bytes().decode().strip().split("\n")
    assert all(json.loads(line) for line in lines)


def test_interrupted_write_is_not_glued_to_next_record(tmp_path):
    path = tmp_path / "records.jsonl"
    store = RecordStore(path)
    store.append({"type": "qk", "value": 1})
    with open(path, "ab") as fh:
        fh.write(b'{"type":"qk","value":2}')  # complete JSON, cut off before its newline
    store.append({"type": "qk", "value": 3})
    assert [r["value"] for r in store.read_all()] == [1, 3]
    lines = path.read_bytes().decode().split("\n")
    assert lines[-1] == ""
    assert all(isinstance(json.loads(line), dict) for line in lines[:-1])


def test_corrupt_mid_file_raises(tmp_path):
    path = tmp_path / "records.jsonl"
    # a complete line that is not JSON is corrupt, even as the last line
    for text in ('{"a": 1}\nnot json\n{"b": 2}\n', '{"a": 1}\nnot json\n'):
        path.write_text(text)
        with pytest.raises(ValueError, match="corrupt record mid-file .* at byte 9"):
            RecordStore(path).read_all()


def test_append_reads_no_existing_record(tmp_path, monkeypatch):
    store = RecordStore(tmp_path / "records.jsonl")
    for value in range(200):
        store.append({"type": "qk", "value": value})
    calls = []
    loads = records.json.loads

    def counting_loads(*args, **kwargs):
        calls.append(1)
        return loads(*args, **kwargs)

    monkeypatch.setattr(records.json, "loads", counting_loads)
    for value in range(200, 250):
        store.append({"type": "qk", "value": value})
    assert calls == []
    assert [r["value"] for r in store.read_all()] == list(range(250))
    assert len(calls) == 250


def test_trailing_scalar_treated_as_corrupt(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text('{"a": 1}\n42')
    assert RecordStore(path).read_all() == [{"a": 1}]


def test_last_checkpoint(tmp_path):
    store = RecordStore(tmp_path / "records.jsonl")
    store.append({"type": "checkpoint", "config_key": "x", "frontier": {"r": 1}})
    store.append({"type": "checkpoint", "config_key": "y", "frontier": {"r": 5}})
    store.append({"type": "checkpoint", "config_key": "x", "frontier": {"r": 9}})
    found = store.last_checkpoint("x")
    assert found is not None and found["frontier"]["r"] == 9
    assert store.last_checkpoint("z") is None


def test_missing_file_reads_empty(tmp_path):
    assert RecordStore(tmp_path / "nope.jsonl").read_all() == []


# ---------------------------------------------------------------------------
# last_checkpoint reads from the end: compared with a full scan
# ---------------------------------------------------------------------------


def full_scan_checkpoint(store, config_key):
    """The oracle: read every record and keep the last matching checkpoint."""
    found = None
    for record in store.read_all():
        if record.get("type") == "checkpoint" and record.get("config_key") == config_key:
            found = record
    return found


def random_lines(rng, count, block):
    """count canonical record lines: checkpoints of keys a and b, result
    rows, blank lines, and some lines longer than several blocks."""
    lines = []
    for i in range(count):
        pad = "x" * (rng.randint(2 * block, 4 * block) if rng.random() < 0.1 else rng.randint(0, 40))
        kind = rng.random()
        if kind < 0.05:
            lines.append(rng.choice([b"", b"  "]))
            continue
        if kind < 0.6:
            record = {"type": "checkpoint", "config_key": rng.choice("ab"), "frontier": {"r": i}, "pad": pad}
        else:
            record = {"type": "qk", "value": i, "pad": pad}
        lines.append(records.dumps(record).encode())
    return lines


@pytest.mark.parametrize("block", [7, 64, 1 << 16])
def test_last_checkpoint_matches_full_scan_on_random_stores(tmp_path, monkeypatch, block):
    monkeypatch.setattr(records, "BLOCK_BYTES", block)
    path = tmp_path / "records.jsonl"
    store = RecordStore(path)
    for seed in range(60):
        rng = random.Random(seed)
        data = b"".join(line + b"\n" for line in random_lines(rng, rng.randint(0, 30), min(block, 64)))
        if rng.random() < 0.5:  # a torn tail, sometimes a whole matching checkpoint, sometimes long
            torn = records.dumps({"type": "checkpoint", "config_key": "a", "frontier": {"r": -1}}).encode()
            data += rng.choice([torn, torn[:9], b"y" * (3 * block)])
        path.write_bytes(data)
        for key in "abc":
            assert store.last_checkpoint(key) == full_scan_checkpoint(store, key), (seed, key)


@pytest.mark.parametrize("block", [7, 64])
def test_last_checkpoint_reads_a_corrupt_line_only_after_the_match(tmp_path, monkeypatch, block):
    monkeypatch.setattr(records, "BLOCK_BYTES", block)
    path = tmp_path / "records.jsonl"
    store = RecordStore(path)
    for seed in range(60):
        rng = random.Random(seed)
        lines = random_lines(rng, rng.randint(1, 30), block)
        bad = rng.randrange(len(lines))
        path.write_bytes(b"".join(line + b"\n" for line in lines[bad + 1:]))
        after = {key: full_scan_checkpoint(store, key) for key in "abc"}  # the match past the bad line
        lines[bad] = rng.choice([b"not json", b"[1]", b'{"type":"checkpoint"'])
        path.write_bytes(b"".join(line + b"\n" for line in lines))
        with pytest.raises(ValueError) as oracle:
            store.read_all()
        for key in "abc":
            if after[key] is None:
                with pytest.raises(ValueError) as tail:
                    store.last_checkpoint(key)
                assert str(tail.value) == str(oracle.value), (seed, key)
            else:
                assert store.last_checkpoint(key) == after[key], (seed, key)


@pytest.mark.parametrize("where", ["first", "last", "none"])
def test_last_checkpoint_in_first_last_or_no_block(tmp_path, monkeypatch, where):
    monkeypatch.setattr(records, "BLOCK_BYTES", 64)
    path = tmp_path / "records.jsonl"
    rows = [{"type": "qk", "value": i} for i in range(40)]  # about 1.3 KiB, many blocks
    checkpoint = {"type": "checkpoint", "config_key": "a", "frontier": {"r": 7}}
    if where == "first":
        rows.insert(0, checkpoint)
    elif where == "last":
        rows.append(checkpoint)
    path.write_bytes(b"".join(records.dumps(row).encode() + b"\n" for row in rows))
    store = RecordStore(path)
    found = store.last_checkpoint("a")
    assert found == full_scan_checkpoint(store, "a")
    assert found == (None if where == "none" else checkpoint)


def test_last_checkpoint_line_longer_than_a_block(tmp_path):
    path = tmp_path / "records.jsonl"
    store = RecordStore(path)
    long = {"type": "checkpoint", "config_key": "a", "frontier": {"r": 1}, "pad": "z" * (3 * records.BLOCK_BYTES)}
    store.append(long)
    store.append({"type": "qk", "pad": "q" * records.BLOCK_BYTES})
    with open(path, "ab") as fh:
        fh.write(b"t" * (records.BLOCK_BYTES + 5))  # a torn tail longer than a block
    assert store.last_checkpoint("a") == full_scan_checkpoint(store, "a") == {**long, "schema_version": 1}


def test_last_checkpoint_corrupt_line_after_the_checkpoint_raises(tmp_path, monkeypatch):
    monkeypatch.setattr(records, "BLOCK_BYTES", 16)
    path = tmp_path / "records.jsonl"
    path.write_bytes(b'{"type":"checkpoint","config_key":"a"}\n{"type":"qk"}\nnot json\n{"type":"qk"}\n')
    store = RecordStore(path)
    with pytest.raises(ValueError) as oracle:
        store.read_all()
    with pytest.raises(ValueError) as tail:
        store.last_checkpoint("a")
    assert str(tail.value) == str(oracle.value)
    assert "corrupt record mid-file" in str(tail.value) and str(tail.value).endswith("at byte 53")


def test_last_checkpoint_does_not_read_before_the_checkpoint(tmp_path, monkeypatch):
    monkeypatch.setattr(records, "BLOCK_BYTES", 16)
    path = tmp_path / "records.jsonl"
    path.write_bytes(b'{"type":"qk"}\n[1,2]\n{"type":"checkpoint","config_key":"a","r":3}\n{"type":"qk"}\n')
    store = RecordStore(path)
    with pytest.raises(ValueError, match="at byte 14"):
        store.read_all()
    assert store.last_checkpoint("a") == {"type": "checkpoint", "config_key": "a", "r": 3}
    with pytest.raises(ValueError, match="at byte 14"):
        store.last_checkpoint("b")  # no match, so the scan reaches the corrupt line


def test_last_checkpoint_empty_and_missing_store(tmp_path):
    path = tmp_path / "records.jsonl"
    assert RecordStore(path).last_checkpoint("a") is None
    path.write_bytes(b"")
    assert RecordStore(path).last_checkpoint("a") is None
    path.write_bytes(b'{"type":"checkpoint","config_key":"a"}')  # only a torn tail
    assert RecordStore(path).last_checkpoint("a") is None


# ---------------------------------------------------------------------------
# appends: one handle per run, a lock per append, what is fsynced
# ---------------------------------------------------------------------------


def count_calls(monkeypatch, owner, name):
    """Record the arguments of every call of owner.name; a module that calls
    a builtin (records calls open) gets a counting global of that name."""
    calls = []
    original = getattr(owner, name, None) or getattr(builtins, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting, raising=False)
    return calls


def test_run_opens_the_store_once_and_fsyncs_once(tmp_path, monkeypatch):
    path = tmp_path / "records.jsonl"
    opens = count_calls(monkeypatch, records, "open")
    fsyncs = count_calls(monkeypatch, records.os, "fsync")
    locks = count_calls(monkeypatch, records.fcntl, "flock")
    code = cli.main(["--record-store", str(path), "qk", "--k", "2", "--n", "3", "--pmax", "40",
                     "--rmax", "40", "--checkpoint-every", "100"])
    assert code == 0
    assert len(opens) == 1 and len(fsyncs) == 1
    stored = RecordStore(path).read_all()
    checkpoints = [r for r in stored if r["type"] == "checkpoint"]
    assert len(checkpoints) >= 5 and [r["type"] for r in stored[len(checkpoints):]] == ["qk"]
    assert len(locks) == 2 * len(stored)  # each append locks and unlocks
    # the run closed its handle: a second run opens the store again
    cli.main(["--record-store", str(path), "scan-ap", "--k", "2", "--p", "1", "--r", "24", "--n", "8"])
    assert len(opens) == 3 and len(fsyncs) == 2


def test_append_outside_a_run_opens_and_closes_each_time(tmp_path, monkeypatch):
    path = tmp_path / "records.jsonl"
    opens = count_calls(monkeypatch, records, "open")
    store = RecordStore(path)
    with store:  # a run that appends nothing creates no file
        pass
    assert not path.exists() and opens == []
    for value in range(3):
        store.append({"type": "qk", "value": value})
    assert len(opens) == 3
    assert [r["value"] for r in store.read_all()] == [0, 1, 2]


def test_run_handle_truncates_a_tail_torn_mid_run(tmp_path):
    path = tmp_path / "records.jsonl"
    with RecordStore(path) as store:
        store.append({"type": "qk", "value": 1})
        with open(path, "ab") as fh:  # another writer killed mid-line
            fh.write(b'{"type":"qk","val')
        store.append({"type": "qk", "value": 2})
    assert path.read_bytes().count(b"\n") == 2
    assert [r["value"] for r in RecordStore(path).read_all()] == [1, 2]


_WRITER = """
import sys, time
from pathlib import Path
from addcomb.records import RecordStore
ready = Path(sys.argv[1] + ".ready-" + sys.argv[2])
ready.touch()
while len(list(ready.parent.glob("*.ready-*"))) < 2:  # start together
    time.sleep(0.001)
with RecordStore(sys.argv[1]) as store:
    for i in range(500):
        store.append({"type": "checkpoint", "writer": sys.argv[2], "i": i, "pad": "p" * (i * 37 % 9000)})
"""


def test_two_processes_append_whole_lines(tmp_path):
    path = tmp_path / "records.jsonl"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    writers = [subprocess.Popen([sys.executable, "-c", _WRITER, str(path), name], env=env) for name in "ab"]
    assert [writer.wait(timeout=120) for writer in writers] == [0, 0]
    data = path.read_bytes()
    assert data.endswith(b"\n")
    lines = [json.loads(line) for line in data.split(b"\n")[:-1]]
    assert all(isinstance(line, dict) for line in lines)
    for name in "ab":
        assert [line["i"] for line in lines if line["writer"] == name] == list(range(500))
    assert len(lines) == 1000
