"""Append-only JSON-lines record store for scan results.

Framing rule: a record is one newline-terminated line holding a JSON
object, and every record carries a schema_version.  Bytes after the last
newline are an interrupted write: reads ignore them and the next append
truncates them.  A complete line that is not a JSON object is corruption,
and reading the store raises.  Append reads no existing record, so its
cost does not grow with the store.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

SCHEMA_VERSION = 1


def dumps(obj) -> str:
    """Canonical JSON: sorted keys and no spaces, so equal values give equal bytes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class RecordStore:
    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

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
                    try:
                        record = json.loads(line)
                    except ValueError:
                        record = None
                    if not isinstance(record, dict):
                        raise ValueError(f"corrupt record mid-file in {self.path} at byte {pos}")
                    records.append(record)
                pos += len(line)
        return records

    def append(self, record: dict) -> None:
        payload = dict(record)
        payload.setdefault("schema_version", SCHEMA_VERSION)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a+b") as fh:
            size = fh.seek(0, os.SEEK_END)
            if size:
                fh.seek(size - 1)
                if fh.read(1) != b"\n":  # an interrupted write: drop it
                    fh.seek(0)
                    fh.truncate(fh.read().rfind(b"\n") + 1)
            fh.write(dumps(payload).encode() + b"\n")
            fh.flush()
            os.fsync(fh.fileno())

    def last_checkpoint(self, config_key: str) -> dict | None:
        """Most recent checkpoint record matching the given config key."""
        found = None
        for record in self.read_all():
            if record.get("type") == "checkpoint" and record.get("config_key") == config_key:
                found = record
        return found
