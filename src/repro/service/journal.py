"""Append-only submission journal for daemon crash recovery.

Every admitted submission is recorded *before* it is enqueued, and
marked done when its result (or terminal failure) fans out.  A
restarted daemon replays the log: any submission with no matching
``done`` record is still owed an answer and is re-admitted -- usually
resolving instantly, because the simulation may well have finished and
landed in the content-addressed result cache before the crash.

The format is JSON Lines, one event per line::

    {"event": "submit", "sub": "s000001", "tenant": "ci",
     "digest": "ab12...", "priority": 0, "request": {...}}
    {"event": "done", "sub": "s000001", "status": "done"}

Writes are append + flush; a torn final line (daemon killed mid-write)
is skipped on replay rather than poisoning recovery.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List


class Journal:
    """One append-only JSONL submission log."""

    def __init__(self, path: os.PathLike) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "a", encoding="utf-8")

    def close(self) -> None:
        """Seal the log: final flush + fsync, then close the handle.

        Everything recorded before ``close()`` returns is durable on
        disk -- the graceful-shutdown guarantee SIGTERM relies on.
        """
        if self._handle.closed:
            return
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()

    # -- writing --------------------------------------------------------------

    def record_submit(self, sub_id: str, tenant: str, digest: str,
                      priority: int,
                      request: Dict[str, Any]) -> None:
        self._append({"event": "submit", "sub": sub_id,
                      "tenant": tenant, "digest": digest,
                      "priority": priority, "request": request})

    def record_done(self, sub_id: str, status: str) -> None:
        self._append({"event": "done", "sub": sub_id, "status": status})

    def _append(self, record: Dict[str, Any]) -> None:
        if self._handle.closed:
            # A completion racing shutdown: the journal is sealed and
            # its content durable; dropping the write beats raising
            # into the finishing task.
            return
        self._handle.write(json.dumps(record, sort_keys=True,
                                      separators=(",", ":")) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    # -- replay ---------------------------------------------------------------

    @staticmethod
    def pending(path: os.PathLike) -> List[Dict[str, Any]]:
        """Submissions still owed an answer, in submission order.

        Reads the log without opening it for append -- safe to call
        before constructing the :class:`Journal` that will extend it.
        Corrupt lines (a torn final write) are skipped.
        """
        path = Path(path)
        if not path.exists():
            return []
        submits: Dict[str, Dict[str, Any]] = {}
        order: List[str] = []
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if not isinstance(record, dict):
                    continue
                sub_id = record.get("sub")
                event = record.get("event")
                if not isinstance(sub_id, str):
                    continue
                if event == "submit":
                    if sub_id not in submits:
                        order.append(sub_id)
                    submits[sub_id] = record
                elif event == "done":
                    submits.pop(sub_id, None)
        return [submits[s] for s in order if s in submits]

    @staticmethod
    def highest_serial(path: os.PathLike) -> int:
        """Largest numeric suffix of any ``sNNNNNN`` submission id.

        A restarted daemon resumes its id counter past this, so replayed
        and fresh submissions never collide.
        """
        best = 0
        path = Path(path)
        if not path.exists():
            return best
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                sub_id = record.get("sub") if isinstance(record, dict) \
                    else None
                if isinstance(sub_id, str) and sub_id.startswith("s") \
                        and sub_id[1:].isdigit():
                    best = max(best, int(sub_id[1:]))
        return best

