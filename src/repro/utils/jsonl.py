"""JSONL encoding and crash-safe append journals.

Three subsystems write newline-delimited JSON with the same durability
story — the run manifest (:mod:`repro.experiments.manifest`), the
telemetry trace writer (:mod:`repro.telemetry.trace`), and the serve
session journal (:mod:`repro.serve.server`).  This module is the single
implementation they share:

- :func:`json_line` — the canonical one-record encoding (sorted keys,
  ``default=str``, trailing newline), so every JSONL artifact in the
  repo is diffable with every other;
- :func:`append_jsonl` — one-shot open/append/flush/fsync of a single
  record: a SIGKILL between calls loses at most the final line.
  Best-effort like the result cache: an unwritable path returns False
  instead of failing the caller;
- :class:`JsonlJournal` — the open-handle variant for long-lived
  writers (one fsync per record without re-opening the file each time);
- :func:`iter_json_array` — a JSON array encoded a fixed number of
  items at a time, for writers (the run digests, schedule
  serialization) that must not hold a whole run's text at once.
"""

from __future__ import annotations

import json
import os
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping

__all__ = [
    "CHUNK",
    "JsonlJournal",
    "append_jsonl",
    "iter_json_array",
    "json_line",
    "read_jsonl",
]


def json_line(record: Mapping) -> str:
    """Encode one record as a JSON line (sorted keys, newline-terminated)."""
    return json.dumps(record, sort_keys=True, default=str) + "\n"


#: Items per piece of :func:`iter_json_array`: a streaming writer's
#: scratch memory is one chunk's items and their JSON text.
CHUNK = 1024


def iter_json_array(
    items: Iterable, encode: Callable[[object], str]
) -> Iterator[str]:
    """``encode(list(items))``, yielded in pieces of :data:`CHUNK` items.

    ``encode`` must use the default item separator (``", "``), as
    :func:`json.dumps` does; the pieces then join to exactly the text of
    encoding the whole list at once, while only one chunk's items and
    text are alive at a time.
    """
    it = iter(items)
    block = list(islice(it, CHUNK))
    if not block:
        yield "[]"
        return
    yield "["
    while block:
        yield encode(block)[1:-1]
        block = list(islice(it, CHUNK))
        if block:
            yield ", "
    yield "]"


def append_jsonl(path: str | os.PathLike, record: Mapping) -> bool:
    """Append one record to ``path`` with flush + fsync; True on success.

    The open-per-record shape is what a checkpoint journal wants: there
    is no handle to leak across forks or crashes, and the fsync bounds
    data loss to the line being written when the process dies.
    """
    try:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json_line(record))
            fh.flush()
            os.fsync(fh.fileno())
        return True
    except (OSError, ValueError):
        return False


def read_jsonl(path: str | os.PathLike) -> list[dict]:
    """Read every complete record of a JSONL file, tolerating a torn tail.

    The reader for crash-recovery replay: a process killed mid-append
    leaves at most one incomplete final line, which is skipped (same
    discipline as the run manifest's restore path).  A malformed line
    *before* the tail raises ``ValueError`` — that is corruption, not a
    crash artifact.  A missing file reads as an empty journal.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        return []
    lines = text.split("\n")
    # A well-formed journal ends with "\n", so the final split element is
    # empty; anything else is the torn tail of an interrupted append.
    lines = lines[:-1] if lines else []
    records: list[dict] = []
    for lineno, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            raise ValueError(
                f"{path}: corrupt record on line {lineno + 1} "
                f"(not the torn tail of a crash)"
            ) from None
        if not isinstance(obj, dict):
            raise ValueError(
                f"{path}: line {lineno + 1} is not a JSON object"
            )
        records.append(obj)
    return records


class JsonlJournal:
    """An append-only JSONL journal with flush + fsync per record.

    The long-lived counterpart of :func:`append_jsonl`: the file handle
    stays open (one ``write``/``flush``/``fsync`` per record, no
    re-open), which is what a server emitting one record per round
    needs.  Writes are best-effort: a failed append flips
    :attr:`healthy` to False and returns False, it never raises into
    the caller's hot path.

    A failed or short ``write`` cuts the file back to its last complete
    record, so a record the caller was told failed can never be read
    back, and the journal goes on accepting appends.  A failed
    ``fsync`` is final: the kernel may have dropped the dirty pages of
    earlier unsynced records and marked them clean, so no later fsync
    could promise they landed.  The journal then cuts the failed record
    back out and closes; every later append returns False.  So does
    every append after :meth:`close`, which a caller uses to stop
    journaling when a record it cannot do without failed.

    ``fsync=False`` (or ``append(..., sync=False)`` per record) flushes
    to the OS without forcing the disk write: the record survives a
    *process* kill — the page cache outlives the process, which is all
    worker-failover replay needs — but not an OS crash.  Any later
    synced append also durably lands every earlier flushed record, since
    fsync covers the whole file.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        truncate: bool = False,
        fsync: bool = True,
    ):
        self.path = Path(path)
        self.records_written = 0
        self.healthy = True
        self.fsync = fsync
        #: bytes up to the end of the last complete record.
        self._size = 0
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # Unbuffered: each record is one write(2), so nothing of a
            # failed record lingers in a buffer to land with the next one.
            self._fh = open(self.path, "ab", buffering=0)
            if truncate:
                self._fh.truncate(0)
            self._size = os.fstat(self._fh.fileno()).st_size
        except OSError:
            self._fh = None
            self.healthy = False

    def append(self, record: Mapping, sync: bool | None = None) -> bool:
        """Write one record durably; False (and unhealthy) on failure.

        ``sync`` overrides the journal-level :attr:`fsync` default for
        this record only.
        """
        if self._fh is None:
            return False
        try:
            data = json_line(record).encode("utf-8")
            if self._fh.write(data) != len(data):
                raise OSError("short write")
        except (OSError, ValueError):
            self.healthy = False
            self._rollback()
            return False
        if self.fsync if sync is None else sync:
            try:
                os.fsync(self._fh.fileno())
            except OSError:
                self.healthy = False
                self._rollback()
                self.close()
                return False
        self._size += len(data)
        self.records_written += 1
        return True

    def _rollback(self) -> None:
        """Cut the file back to its last complete record, or close."""
        try:
            os.ftruncate(self._fh.fileno(), self._size)
        except (OSError, ValueError):
            self.close()

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None

    def __enter__(self) -> "JsonlJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
