"""Crash-safe snapshot persistence for the recovery service.

One JSON file per snapshot under a directory, written through the cell
cache's atomic writer (:func:`repro.sim.cache.write_json_atomic`: temp
file + ``os.replace``) so a kill mid-write never leaves a truncated
snapshot behind — the previous snapshot stays the latest readable
one.  File names carry a
monotonically increasing sequence number (``snapshot-00000001.json``),
derived by scanning the directory, so ordering never depends on the
clock; the wall-clock ``created_at`` stamp inside each file is
operational metadata only and never enters any identity.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import time
from typing import Any, Optional

from repro.sim.cache import write_json_atomic

_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{8})\.json$")


class SnapshotStore:
    """Sequence-numbered JSON snapshots under one directory.

    Parameters
    ----------
    root:
        Directory the snapshots live in; created on first save.
    """

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = pathlib.Path(root)

    def paths(self) -> list[pathlib.Path]:
        """Every snapshot file, sorted by sequence number."""
        if not self.root.is_dir():
            return []
        return sorted(
            path for path in self.root.iterdir() if _SNAPSHOT_RE.match(path.name)
        )

    def _next_index(self) -> int:
        existing = self.paths()
        if not existing:
            return 1
        match = _SNAPSHOT_RE.match(existing[-1].name)
        assert match is not None
        return int(match.group(1)) + 1

    def save(self, snapshot: dict[str, Any]) -> pathlib.Path:
        """Persist ``snapshot`` atomically; returns the new file's path.

        The payload is wrapped with the sequence number and a wall-clock
        ``created_at`` stamp (metadata for operators; restore ignores it).
        """
        self.root.mkdir(parents=True, exist_ok=True)
        index = self._next_index()
        path = self.root / f"snapshot-{index:08d}.json"
        entry = {
            "index": index,
            "created_at": time.time(),
            "snapshot": snapshot,
        }
        write_json_atomic(path, entry, default=float)
        return path

    def latest(self) -> Optional[dict[str, Any]]:
        """The newest readable snapshot payload, or ``None`` if there is none.

        Unreadable or truncated files (a crash racing ``os.replace`` on a
        non-atomic filesystem) are skipped in favor of the next-newest —
        the same treat-as-miss policy the cell cache applies.
        """
        for path in reversed(self.paths()):
            try:
                with open(path, encoding="utf-8") as handle:
                    entry = json.load(handle)
                return dict(entry["snapshot"])
            except (OSError, ValueError, KeyError, TypeError):
                continue
        return None


__all__ = ["SnapshotStore"]
