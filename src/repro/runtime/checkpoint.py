"""Crash-safe JSONL checkpoint journal for campaign results.

Each completed job appends exactly one JSON line — ``{"key", "fingerprint",
"record"}`` — flushed and fsynced before the scheduler moves on, so the journal
survives a SIGKILL mid-campaign.  A crash *during* the append can at worst
leave one torn final line, which :meth:`CheckpointStore.load` silently
discards; corruption anywhere else is reported (strict mode) or skipped and
counted (recovery mode) so a resumed campaign simply re-grades the affected
jobs.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.errors import CheckpointCorrupt

CHECKPOINT_FILENAME = "checkpoint.jsonl"
EVENTS_FILENAME = "events.jsonl"


class CheckpointStore:
    """Append-only journal of completed job records keyed by job key."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / CHECKPOINT_FILENAME
        self.events_path = self.directory / EVENTS_FILENAME
        #: Unreadable (non-torn) lines skipped by the last ``load``.
        self.corrupt_entries = 0

    def exists(self) -> bool:
        return self.path.exists()

    def reset(self) -> None:
        """Start a fresh journal (a non-resume run over an old directory)."""
        for path in (self.path, self.events_path):
            try:
                path.unlink()
            except FileNotFoundError:
                pass

    # ----------------------------------------------------------- writing

    def append(self, key: str, record: dict, fingerprint: str = "") -> None:
        """Durably journal one completed job."""
        line = json.dumps(
            {"key": key, "fingerprint": fingerprint, "record": record},
            sort_keys=True,
        )
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    # ----------------------------------------------------------- reading

    def load(self, strict: bool = False) -> dict[str, dict]:
        """Read the journal back as ``key -> {"fingerprint", "record"}``.

        A torn final line (no trailing newline — the signature of a crash
        mid-append) is always discarded silently.  Any other undecodable
        or malformed line raises :class:`CheckpointCorrupt` when
        ``strict``, otherwise it is skipped and counted in
        ``corrupt_entries`` so the caller can re-run the affected jobs.
        """
        self.corrupt_entries = 0
        entries: dict[str, dict] = {}
        if not self.path.exists():
            return entries
        raw = self.path.read_bytes()
        if not raw:
            return entries
        torn_tail = not raw.endswith(b"\n")
        lines = raw.decode("utf-8", errors="replace").splitlines()
        for i, line in enumerate(lines):
            is_last = i == len(lines) - 1
            try:
                entry = json.loads(line)
                key = entry["key"]
                record = entry["record"]
                if not isinstance(key, str) or not isinstance(record, dict):
                    raise ValueError("malformed checkpoint entry")
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                if is_last and torn_tail:
                    continue  # crash mid-append; the job simply re-runs
                if strict:
                    raise CheckpointCorrupt(
                        f"undecodable entry at line {i + 1}",
                        path=self.path,
                    ) from None
                self.corrupt_entries += 1
                continue
            entries[key] = {
                "fingerprint": entry.get("fingerprint", ""),
                "record": record,
            }
        return entries
