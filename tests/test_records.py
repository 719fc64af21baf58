import json

import pytest

from addcomb import RecordStore, records


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
