"""Append-only JSON-lines record store for scan results.

Framing rule: a record is one newline-terminated line holding a JSON
object, and every record carries a schema_version.  Bytes after the last
newline are an interrupted write: reads ignore them and the next append
truncates them.  A complete line that is not a JSON object is corruption,
and reading it raises.  Append reads no existing record, so its cost does
not grow with the store.

Each append holds an exclusive advisory lock (flock) for its write only,
so concurrent writers interleave whole lines.  Inside ``with store:`` the
appends share one handle, opened on the first append and closed on exit;
outside it, each append opens and closes the file.  Every record is
flushed to the OS, and every record but a checkpoint is also fsynced.  So
a killed process loses nothing it wrote, while an OS crash or power loss
can lose the checkpoints written since the last fsynced record; a resumed
scan then starts from an earlier checkpoint and gives the same result.

``last_checkpoint`` reads the store backwards from its end, block by
block, and stops at the first matching checkpoint: lines before it are not
read, so a corrupt line there goes unnoticed until ``read_all``.
"""

from __future__ import annotations

import fcntl
import json
import os
from pathlib import Path

SCHEMA_VERSION = 1
# bytes read at a time by the backward scan of last_checkpoint
BLOCK_BYTES = 1 << 16


def dumps(obj) -> str:
    """Canonical JSON: sorted keys and no spaces, so equal values give equal bytes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class RecordStore:
    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._in_run = False
        self._handle = None  # the run's append handle, once it has appended

    def __enter__(self) -> RecordStore:
        self._in_run = True
        return self

    def __exit__(self, *exc) -> None:
        self._in_run = False
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def _record(self, line: bytes, pos: int) -> dict:
        """The record on the complete line that starts at byte pos."""
        try:
            record = json.loads(line)
        except ValueError:
            record = None
        if not isinstance(record, dict):
            raise ValueError(f"corrupt record mid-file in {self.path} at byte {pos}")
        return record

    def read_all(self) -> list[dict]:
        if not self.path.exists():
            return []
        records: list[dict] = []
        pos = 0
        with open(self.path, "rb") as fh:
            for line in fh:
                if not line.endswith(b"\n"):
                    break  # an interrupted write
                if line.strip():
                    records.append(self._record(line, pos))
                pos += len(line)
        return records

    def append(self, record: dict) -> None:
        payload = dict(record)
        payload.setdefault("schema_version", SCHEMA_VERSION)
        fh = self._handle
        if fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fh = open(self.path, "a+b")
        try:
            fcntl.flock(fh, fcntl.LOCK_EX)
            try:
                size = fh.seek(0, os.SEEK_END)
                if size:
                    fh.seek(size - 1)
                    if fh.read(1) != b"\n":  # an interrupted write: drop it
                        fh.seek(0)
                        fh.truncate(fh.read().rfind(b"\n") + 1)
                fh.write(dumps(payload).encode() + b"\n")
                fh.flush()
                if payload.get("type") != "checkpoint":
                    os.fsync(fh.fileno())
            finally:
                fcntl.flock(fh, fcntl.LOCK_UN)
        finally:
            if self._in_run:
                self._handle = fh
            else:
                fh.close()

    def last_checkpoint(self, config_key: str) -> dict | None:
        """Most recent checkpoint record matching the given config key, read
        from the end of the store; the lines before it are not read."""
        if not self.path.exists():
            return None
        with open(self.path, "rb") as fh:
            for pos, line in _lines_from_end(fh):
                if line.strip():
                    record = self._record(line, pos)
                    if record.get("type") == "checkpoint" and record.get("config_key") == config_key:
                        return record
        return None


def _lines_from_end(fh):
    """(byte offset, line) of every complete line of a file, the last line
    first, read BLOCK_BYTES at a time; the bytes after the last newline are
    skipped."""
    pos = fh.seek(0, os.SEEK_END)
    framed = False  # whether the last newline has been passed
    pieces: list[bytes] = []  # the line being gathered, last piece first
    while pos > 0:
        start = max(0, pos - BLOCK_BYTES)
        fh.seek(start)
        block = fh.read(pos - start)
        end = len(block)
        while (cut := block.rfind(b"\n", 0, end)) >= 0:
            if framed:
                pieces.append(block[cut + 1:end])
                yield start + cut + 1, b"".join(reversed(pieces))
            framed = True
            pieces = []
            end = cut
        if framed:
            pieces.append(block[:end])
        pos = start
    if framed:
        yield 0, b"".join(reversed(pieces))
