"""Small dependency-free utilities shared across subsystems.

- :mod:`repro.utils.jsonl` — the one JSONL encoder, fsync-append
  journal writer, and torn-tail-tolerant reader used by the experiment
  manifest, the telemetry trace writer, and the serve session journal.
- :mod:`repro.utils.procs` — pipe-driven child processes and
  deterministic retry backoff, shared by the experiment supervisor and
  the serve layer's shard workers.
"""

from repro.utils.jsonl import (
    CHUNK,
    JsonlJournal,
    append_jsonl,
    iter_json_array,
    json_line,
    read_jsonl,
)
from repro.utils.procs import PipeWorker, retry_backoff

__all__ = [
    "CHUNK",
    "JsonlJournal",
    "PipeWorker",
    "append_jsonl",
    "iter_json_array",
    "json_line",
    "read_jsonl",
    "retry_backoff",
]
