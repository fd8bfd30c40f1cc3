"""Canonical run digests: the bit-identity contract in hashable form.

Two runs are *bit-identical* when everything the contract covers agrees:
the ledger (totals and per-color breakdowns), the explicit schedule, the
event log, and the executed/dropped uid sets.  This module turns that
tuple into SHA-256 digests.  It is the single implementation behind

- the perf harness's incremental-vs-reference engine check
  (:mod:`repro.experiments.perf`),
- the telemetry never-affects-digests check, and
- the serve determinism contract (a live replay through
  :class:`~repro.core.live.LiveSequence` and the server must reproduce
  the offline digests exactly; :mod:`repro.serve`).

Digests are hash-seed and process independent: every container is
sorted or canonically ordered before hashing.

Each digest is the SHA-256 of ``json.dumps(obj, sort_keys=True,
default=str)`` for one canonical payload object (see
:func:`component_digests`), but that text is never built.  One pass
writes it in pieces of at most :data:`CHUNK` events, uids or schedule
rows and feeds each piece to every hasher that covers it, so a digest
costs O(:data:`CHUNK`) scratch memory plus one sorted list of uids,
whatever the run's length, and each event is ``repr``'d and encoded
once.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.utils.jsonl import CHUNK, iter_json_array

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.events import EventLog
    from repro.core.ledger import CostLedger
    from repro.core.schedule import Schedule
    from repro.core.simulator import SimulationResult

__all__ = [
    "CHUNK",
    "component_digests",
    "result_digest",
    "result_digests",
    "run_digest",
    "schedule_digests",
]

#: ``json.dumps(obj, sort_keys=True, default=str)`` without rebuilding the
#: encoder on every call.
_encode = json.JSONEncoder(sort_keys=True, default=str).encode


def _per_color(counter) -> dict[str, int]:
    return {
        str(k): v
        for k, v in sorted(counter.items(), key=lambda kv: str(kv[0]))
    }


def _string_pieces(pieces: Iterable[str]) -> Iterator[str]:
    """The JSON string literal of ``"".join(pieces)``, piece by piece.

    JSON escapes each code point on its own, so escaping the pieces one
    at a time gives the same text as escaping their concatenation.
    """
    yield '"'
    for piece in pieces:
        yield _encode(piece)[1:-1]
    yield '"'


def _feed(pieces: Iterable[str], *hashers) -> None:
    for piece in pieces:
        data = piece.encode()
        for h in hashers:
            h.update(data)


def run_digest(
    ledger: "CostLedger",
    schedule: "Schedule",
    events: Iterable,
    executed_uids: Iterable[int],
    dropped_uids: Iterable[int],
) -> str:
    """SHA-256 over everything the bit-identity contract covers.

    The hashed text is ``json.dumps(payload, sort_keys=True,
    default=str)`` of the payload :func:`component_digests` describes.
    """
    return component_digests(
        ledger, schedule, events, executed_uids, dropped_uids
    )["run"]


def component_digests(
    ledger: "CostLedger",
    schedule: "Schedule",
    events: Iterable,
    executed_uids: Iterable[int],
    dropped_uids: Iterable[int],
) -> dict[str, str]:
    """Per-component digests plus the combined ``run`` digest.

    The components let a mismatch report say *what* diverged (costs vs
    schedule vs event stream) without shipping the full artifacts over
    the wire — this is the shape the serve ``stats`` frame returns.

    Each is the SHA-256 of ``json.dumps(obj, sort_keys=True,
    default=str)``, where ``run``'s object is the whole payload::

        {"ledger": ledger.summary(),
         "reconfigs_per_color": {str(color): count, ...},
         "drops_per_color": {str(color): count, ...},
         "schedule": schedule.to_json(),
         "events": [repr(event), ...],
         "executed": sorted(executed_uids),
         "dropped": sorted(dropped_uids)}

    ``ledger``'s object is the first three entries, ``schedule``'s the
    schedule string and ``events``' the list of ``repr`` strings.  The
    payload is streamed once: each piece goes to the ``run`` hasher and
    to the component hasher that covers it.
    """
    run = hashlib.sha256()
    events_h = hashlib.sha256()
    schedule_h = hashlib.sha256()
    scalars = {
        "ledger": ledger.summary(),
        "reconfigs_per_color": _per_color(ledger.reconfigs_per_color),
        "drops_per_color": _per_color(ledger.drops_per_color),
    }
    totals, reconfigs, drops = (_encode(v) for v in scalars.values())
    # The payload's keys in sorted order, as json.dumps(sort_keys=True)
    # writes them.
    _feed(['{"dropped": '], run)
    _feed(iter_json_array(sorted(dropped_uids), _encode), run)
    _feed([', "drops_per_color": ', drops, ', "events": '], run)
    _feed(iter_json_array(map(repr, events), _encode), run, events_h)
    _feed([', "executed": '], run)
    _feed(iter_json_array(sorted(executed_uids), _encode), run)
    _feed([
        ', "ledger": ', totals,
        ', "reconfigs_per_color": ', reconfigs,
        ', "schedule": ',
    ], run)
    _feed(_string_pieces(schedule.iter_json()), run, schedule_h)
    _feed(["}"], run)
    return {
        "ledger": hashlib.sha256(_encode(scalars).encode()).hexdigest(),
        "schedule": schedule_h.hexdigest(),
        "events": events_h.hexdigest(),
        "run": run.hexdigest(),
    }


def schedule_digests(
    schedule: "Schedule",
    sequence,
    delta: int | float,
) -> dict[str, str]:
    """Component digests of an explicit schedule, with no simulator run.

    The ledger is recomputed from the schedule itself
    (:meth:`~repro.core.schedule.Schedule.ledger`), executed uids come from
    the schedule, dropped uids are every other job of ``sequence``, and the
    event stream is empty — so any two producers that agree on the schedule
    agree on these digests, regardless of which engine (or offline solver)
    emitted it.  This is the cost-extraction authority the ``repro.opt``
    subsystem hashes decoded optima with.
    """
    ledger = schedule.ledger(sequence, delta)
    executed = schedule.executed_uids()
    dropped = [job.uid for job in sequence.jobs() if job.uid not in executed]
    return component_digests(ledger, schedule, (), executed, dropped)


def result_digest(result: "SimulationResult") -> str:
    """SHA-256 of a :class:`~repro.core.simulator.SimulationResult`."""
    return run_digest(
        result.ledger,
        result.schedule,
        result.events,
        result.executed_uids,
        result.dropped_uids,
    )


def result_digests(result: "SimulationResult") -> dict[str, str]:
    """Component digests of a :class:`~repro.core.simulator.SimulationResult`."""
    return component_digests(
        result.ledger,
        result.schedule,
        result.events,
        result.executed_uids,
        result.dropped_uids,
    )
