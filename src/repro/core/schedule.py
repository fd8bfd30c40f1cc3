"""Explicit schedules and the independent validity checker.

A :class:`Schedule` specifies, for a given request sequence and resource
count, every reconfiguration and every job execution — exactly the paper's
notion of a schedule.  It supports *mini-rounds* so double-speed schedules
(Section 3.3: DS-Seq-EDF repeats the reconfiguration and execution phases in
each round) are first-class.

The validator is deliberately independent of the simulator: it replays the
prescribed reconfigurations, tracks resource colors, and checks every rule
of the model.  Property-based tests assert that every schedule produced by
any component of this library validates, and that the validator's recomputed
cost matches the producer's ledger.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.core.job import BLACK, Color, Job
from repro.core.ledger import CostLedger
from repro.core.request import RequestSequence
from repro.utils.jsonl import iter_json_array


class ScheduleError(ValueError):
    """Raised when a schedule violates the model's rules."""


@dataclass(frozen=True, slots=True)
class Reconfiguration:
    """Recolor ``location`` to ``new_color`` in the reconfiguration phase of
    mini-round ``mini`` of round ``round``."""

    round: int
    mini: int
    location: int
    new_color: Color


@dataclass(frozen=True, slots=True)
class Execution:
    """Execute job ``uid`` on ``location`` in the execution phase of
    mini-round ``mini`` of round ``round``."""

    round: int
    mini: int
    location: int
    uid: int


@dataclass
class Schedule:
    """An explicit schedule for some request sequence.

    Attributes
    ----------
    n:
        Number of resources the schedule uses (locations ``0..n-1``).
    speed:
        Mini-rounds per round (1 = uni-speed, 2 = double-speed).
    reconfigs, executions:
        The prescribed actions.  Within one mini-round, reconfigurations
        happen before executions (the paper's phase order).
    """

    n: int
    speed: int = 1
    reconfigs: list[Reconfiguration] = field(default_factory=list)
    executions: list[Execution] = field(default_factory=list)

    def add_reconfig(self, rnd: int, location: int, color: Color, mini: int = 0) -> None:
        self.reconfigs.append(Reconfiguration(rnd, mini, location, color))

    def add_execution(self, rnd: int, location: int, uid: int, mini: int = 0) -> None:
        self.executions.append(Execution(rnd, mini, location, uid))

    # -- derived facts ---------------------------------------------------------

    def executed_uids(self) -> set[int]:
        return {e.uid for e in self.executions}

    def reconfig_count(self) -> int:
        return len(self.reconfigs)

    def cost(self, sequence: RequestSequence, delta: int | float) -> int | float:
        """Total cost of this schedule on ``sequence``: reconfigurations at
        ``delta`` each plus one per job not executed."""
        executed = self.executed_uids()
        drops = sum(1 for job in sequence.jobs() if job.uid not in executed)
        return len(self.reconfigs) * delta + drops

    def ledger(self, sequence: RequestSequence, delta: int | float) -> CostLedger:
        """Full cost breakdown (validates nothing; see :func:`validate_schedule`)."""
        led = CostLedger(delta)
        for rc in self.reconfigs:
            led.charge_reconfig(rc.round, rc.new_color)
        executed = self.executed_uids()
        for job in sequence.jobs():
            if job.uid not in executed:
                led.charge_drop(job.deadline, job.color)
        return led

    def restricted_to(self, uids: set[int]) -> "Schedule":
        """Schedule with only the executions of ``uids`` (reconfigs kept).

        Used by Theorem 1's subsequence argument: removing jobs from a
        schedule never increases its cost on the remaining subsequence.
        """
        out = Schedule(self.n, self.speed)
        out.reconfigs = list(self.reconfigs)
        out.executions = [e for e in self.executions if e.uid in uids]
        return out

    # -- persistence -------------------------------------------------------------

    def to_json(self) -> str:
        """Serialize (colors must be JSON-encodable ints/strings/tuples)."""
        return "".join(self.iter_json())

    def iter_json(self) -> Iterator[str]:
        """:meth:`to_json`'s text in pieces of at most
        :data:`~repro.utils.jsonl.CHUNK` rows.

        The run digests hash a schedule through this, so a long run's
        schedule is never materialized as one string.
        """
        import json

        from repro.core.request import _encode_color

        head = json.dumps(
            {"format": "repro-schedule-v1", "n": self.n, "speed": self.speed}
        )
        yield head[:-1] + ', "reconfigs": '
        yield from iter_json_array(
            (
                [rc.round, rc.mini, rc.location, _encode_color(rc.new_color)]
                for rc in self.reconfigs
            ),
            json.dumps,
        )
        yield ', "executions": '
        yield from iter_json_array(
            (
                [ex.round, ex.mini, ex.location, ex.uid]
                for ex in self.executions
            ),
            json.dumps,
        )
        yield "}"

    @classmethod
    def from_json(cls, text: str) -> "Schedule":
        import json

        from repro.core.request import _decode_color

        payload = json.loads(text)
        if payload.get("format") != "repro-schedule-v1":
            raise ValueError(
                f"not a repro schedule (format={payload.get('format')!r})"
            )
        out = cls(n=payload["n"], speed=payload["speed"])
        for rnd, mini, loc, color in payload["reconfigs"]:
            out.add_reconfig(rnd, loc, _decode_color(color), mini)
        for rnd, mini, loc, uid in payload["executions"]:
            out.add_execution(rnd, loc, uid, mini)
        return out


def validate_schedule(
    schedule: Schedule,
    sequence: RequestSequence,
    delta: int | float | None = None,
) -> CostLedger | None:
    """Check every model rule; raise :class:`ScheduleError` on violation.

    Rules checked:

    1. locations are in range, mini-round indices in ``[0, speed)``;
    2. every executed uid exists in the sequence and executes at most once;
    3. each execution lies in the job's window ``arrival <= round < deadline``;
    4. at the execution instant, its location is configured to the job's
       color (reconfigurations of the same mini-round apply first);
    5. at most one execution per (round, mini, location) slot;
    6. at most one reconfiguration per (round, mini, location) slot.

    Returns the recomputed :class:`CostLedger` when ``delta`` is given.
    """
    if schedule.speed < 1:
        raise ScheduleError(f"speed must be >= 1, got {schedule.speed}")

    jobs_by_uid: dict[int, Job] = {job.uid: job for job in sequence.jobs()}

    # Rule 6 + range checks, and a time-ordered reconfiguration plan.
    seen_rc: set[tuple[int, int, int]] = set()
    for rc in schedule.reconfigs:
        if not (0 <= rc.location < schedule.n):
            raise ScheduleError(f"reconfiguration location {rc.location} out of range")
        if not (0 <= rc.mini < schedule.speed):
            raise ScheduleError(f"mini-round {rc.mini} out of range for speed {schedule.speed}")
        if rc.round < 0:
            raise ScheduleError(f"negative round {rc.round}")
        key = (rc.round, rc.mini, rc.location)
        if key in seen_rc:
            raise ScheduleError(f"two reconfigurations of location {rc.location} in {key[:2]}")
        seen_rc.add(key)

    # Rule 5 + ranges for executions.
    seen_exec_slot: set[tuple[int, int, int]] = set()
    seen_uid: set[int] = set()
    for ex in schedule.executions:
        if not (0 <= ex.location < schedule.n):
            raise ScheduleError(f"execution location {ex.location} out of range")
        if not (0 <= ex.mini < schedule.speed):
            raise ScheduleError(f"mini-round {ex.mini} out of range for speed {schedule.speed}")
        slot = (ex.round, ex.mini, ex.location)
        if slot in seen_exec_slot:
            raise ScheduleError(f"two executions in slot {slot}")
        seen_exec_slot.add(slot)
        if ex.uid in seen_uid:
            raise ScheduleError(f"job {ex.uid} executed twice")
        seen_uid.add(ex.uid)
        if ex.uid not in jobs_by_uid:
            raise ScheduleError(f"executed uid {ex.uid} does not exist in the sequence")

    # Replay reconfigurations in time order to know each location's color at
    # each execution instant (rules 3 and 4).
    timeline: dict[int, list[Reconfiguration]] = defaultdict(list)
    for rc in schedule.reconfigs:
        timeline[rc.location].append(rc)
    for rcs in timeline.values():
        rcs.sort(key=lambda rc: (rc.round, rc.mini))

    def color_at(location: int, rnd: int, mini: int) -> Color:
        color = BLACK
        for rc in timeline.get(location, ()):
            if (rc.round, rc.mini) <= (rnd, mini):
                color = rc.new_color
            else:
                break
        return color

    for ex in schedule.executions:
        job = jobs_by_uid[ex.uid]
        if not (job.arrival <= ex.round < job.deadline):
            raise ScheduleError(
                f"job {ex.uid} (window [{job.arrival}, {job.deadline})) "
                f"executed in round {ex.round}"
            )
        color = color_at(ex.location, ex.round, ex.mini)
        if color != job.color:
            raise ScheduleError(
                f"job {ex.uid} of color {job.color!r} executed on location "
                f"{ex.location} configured to {color!r} in round {ex.round}"
            )

    if delta is None:
        return None
    return schedule.ledger(sequence, delta)


def schedule_from_events(n: int, events: Iterable, speed: int = 1) -> Schedule:
    """Lift an :class:`repro.core.events.EventLog` into an explicit schedule."""
    from repro.core.events import ExecutionEvent, ReconfigEvent

    schedule = Schedule(n=n, speed=speed)
    for event in events:
        if isinstance(event, ReconfigEvent):
            schedule.add_reconfig(event.round, event.location, event.new_color, event.mini_round)
        elif isinstance(event, ExecutionEvent):
            schedule.add_execution(event.round, event.location, event.job.uid, event.mini_round)
    return schedule
