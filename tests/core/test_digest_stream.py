"""The streamed digests against the in-memory oracle.

:mod:`repro.core.digest` hashes the bit-identity payload in one pass of
fixed-size chunks and never builds its JSON text.  The oracle below is
the direct form of the same contract: build the whole payload, dump it
with ``json.dumps(sort_keys=True, default=str)`` and hash the bytes.
Every digest the program reports must equal the oracle's, byte for
byte, at every chunk boundary and for every color shape.
"""

import hashlib
import json
import tracemalloc

import pytest

from repro.core.digest import (
    CHUNK,
    component_digests,
    result_digest,
    result_digests,
    run_digest,
    schedule_digests,
)
from repro.core.engine import make_simulator
from repro.core.events import (
    ArrivalEvent,
    DropEvent,
    ExecutionEvent,
    ReconfigEvent,
)
from repro.core.job import Job
from repro.core.ledger import CostLedger
from repro.core.request import Instance, RequestSequence, _encode_color
from repro.core.schedule import Schedule
from repro.policies import make_policy
from repro.serve.session import ShardedSession
from repro.utils.jsonl import iter_json_array
from repro.workloads import poisson_workload


# -- the oracle: the whole payload in memory ----------------------------------


def _sha(obj):
    blob = json.dumps(obj, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def _per_color(counter):
    return {
        str(k): v
        for k, v in sorted(counter.items(), key=lambda kv: str(kv[0]))
    }


def digest_payload(ledger, schedule, events, executed_uids, dropped_uids):
    return {
        "ledger": ledger.summary(),
        "reconfigs_per_color": _per_color(ledger.reconfigs_per_color),
        "drops_per_color": _per_color(ledger.drops_per_color),
        "schedule": schedule.to_json(),
        "events": [repr(e) for e in events],
        "executed": sorted(executed_uids),
        "dropped": sorted(dropped_uids),
    }


def oracle_digests(ledger, schedule, events, executed_uids, dropped_uids):
    payload = digest_payload(
        ledger, schedule, events, executed_uids, dropped_uids
    )
    return {
        "ledger": _sha({
            "ledger": payload["ledger"],
            "reconfigs_per_color": payload["reconfigs_per_color"],
            "drops_per_color": payload["drops_per_color"],
        }),
        "schedule": _sha(payload["schedule"]),
        "events": _sha(payload["events"]),
        "run": _sha(payload),
    }


def oracle_schedule_json(schedule):
    """The schedule text, encoded in one call."""
    return json.dumps({
        "format": "repro-schedule-v1",
        "n": schedule.n,
        "speed": schedule.speed,
        "reconfigs": [
            [rc.round, rc.mini, rc.location, _encode_color(rc.new_color)]
            for rc in schedule.reconfigs
        ],
        "executions": [
            [ex.round, ex.mini, ex.location, ex.uid]
            for ex in schedule.executions
        ],
    })


# -- synthetic runs of an exact event count -----------------------------------

COLORS = [
    0,
    7,
    (1, "x"),
    ("q\"uote", (2, 3)),
    'back\\slash "and" quotes',
    "ünïcødé €",
    "astral 😀",
]


def synthetic_run(num_events, delta=4, colors=COLORS, n=4):
    """(ledger, schedule, events, executed, dropped) with ``num_events``
    events cycling through every event kind and every color."""
    ledger = CostLedger(delta)
    schedule = Schedule(n=n)
    events = []
    executed, dropped = set(), set()
    for i in range(num_events):
        color = colors[i % len(colors)]
        rnd = i // 8
        job = Job(color=color, arrival=rnd, delay_bound=4, uid=10_000 + i)
        kind = i % 4
        if kind == 0:
            events.append(ArrivalEvent(rnd, 0, job))
        elif kind == 1:
            events.append(ReconfigEvent(rnd, 0, i % n, colors[0], color))
            schedule.add_reconfig(rnd, i % n, color)
            ledger.charge_reconfig(rnd, color)
        elif kind == 2:
            events.append(ExecutionEvent(rnd, 0, i % n, job))
            schedule.add_execution(rnd, i % n, job.uid)
            executed.add(job.uid)
        else:
            events.append(DropEvent(rnd, 0, job))
            ledger.charge_drop(rnd, color)
            dropped.add(job.uid)
    return ledger, schedule, events, executed, dropped


@pytest.mark.parametrize(
    "num_events",
    [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 2],
)
def test_streamed_equals_oracle_at_chunk_boundaries(num_events):
    args = synthetic_run(num_events)
    assert len(args[2]) == num_events
    expected = oracle_digests(*args)
    got = component_digests(*args)
    assert got == expected
    assert list(got) == ["ledger", "schedule", "events", "run"]
    assert run_digest(*args) == expected["run"]


@pytest.mark.parametrize(
    "colors",
    [
        [0, 1, 2],
        [(0, 1), (2, (3, 4))],
        ['a"b', "c\\d", "ë", "😀", "\n\t"],
    ],
    ids=["int", "tuple", "string"],
)
def test_streamed_equals_oracle_for_color_shapes(colors):
    args = synthetic_run(2 * CHUNK + 5, colors=colors)
    assert component_digests(*args) == oracle_digests(*args)


def test_float_delta():
    args = synthetic_run(CHUNK + 3, delta=2.5)
    assert isinstance(args[0].summary()["reconfig_cost"], float)
    assert component_digests(*args) == oracle_digests(*args)


def test_events_may_be_a_one_shot_iterator():
    ledger, schedule, events, executed, dropped = synthetic_run(CHUNK + 9)
    expected = oracle_digests(ledger, schedule, events, executed, dropped)
    got = component_digests(
        ledger, schedule, iter(events), iter(executed), iter(dropped)
    )
    assert got == expected


@pytest.mark.parametrize("rows", [0, 1, CHUNK, 2 * CHUNK + 1])
def test_schedule_text_matches_one_shot_encoding(rows):
    _, schedule, _, _, _ = synthetic_run(4 * rows)
    assert schedule.to_json() == oracle_schedule_json(schedule)
    assert Schedule.from_json(schedule.to_json()) == schedule


@pytest.mark.parametrize(
    "count", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1]
)
def test_iter_json_array_joins_to_one_shot_encoding(count):
    items = [[i, "s\"", {"k": i}] for i in range(count)]
    assert "".join(iter_json_array(items, json.dumps)) == json.dumps(items)


# -- real runs -----------------------------------------------------------------


def _run(instance, n, engine="incremental"):
    policy = make_policy("dlru-edf", instance.delta)
    return make_simulator(instance, policy, n, engine=engine).run()


def _oracle_result(result):
    return oracle_digests(
        result.ledger,
        result.schedule,
        result.events,
        result.executed_uids,
        result.dropped_uids,
    )


@pytest.mark.parametrize("engine", ["reference", "incremental", "array"])
def test_simulator_results_match_oracle(engine):
    instance = poisson_workload(
        num_colors=16, rate=1.0, delta=4, seed=5, horizon=160
    )
    result = _run(instance, 8, engine)
    assert len(result.events) > 3 * CHUNK
    expected = _oracle_result(result)
    assert result_digests(result) == expected
    assert result_digest(result) == expected["run"]


def test_schedule_digests_with_empty_event_stream():
    instance = poisson_workload(delta=4, seed=9, horizon=96)
    result = _run(instance, 8)
    schedule = result.schedule
    ledger = schedule.ledger(instance.sequence, instance.delta)
    executed = schedule.executed_uids()
    dropped = [
        job.uid for job in instance.sequence.jobs()
        if job.uid not in executed
    ]
    expected = oracle_digests(ledger, schedule, (), executed, dropped)
    assert schedule_digests(schedule, instance.sequence, instance.delta) == (
        expected
    )
    assert expected["events"] == _sha([])


def test_sharded_session_replay_matches_oracle():
    instance = poisson_workload(delta=4, seed=13, horizon=120)
    session = ShardedSession(
        n=16,
        delta=instance.delta,
        policy_factory=lambda: make_policy("dlru-edf", instance.delta),
        shards=2,
    )
    for rnd in range(instance.horizon):
        jobs = list(instance.sequence.request(rnd))
        if jobs:
            session.submit(jobs)
        session.tick()
    while session.round < session.drain_horizon():
        session.tick()
    for shard in session.shards:
        sim = shard.sim
        assert shard.digests() == oracle_digests(
            sim.ledger,
            sim.schedule,
            sim.events,
            sim.executed_uids,
            sim.dropped_uids,
        )


def test_mixed_color_instance_with_float_delta():
    jobs = [
        Job(color=color, arrival=rnd, delay_bound=4)
        for rnd in range(64)
        for color in COLORS[: 1 + rnd % len(COLORS)]
    ]
    instance = Instance(RequestSequence(jobs, horizon=72), 2.5, name="mixed")
    result = _run(instance, 4)
    assert result_digests(result) == _oracle_result(result)


# -- memory --------------------------------------------------------------------

#: Peak bytes ``component_digests`` may allocate over a 200k-event run:
#: one chunk's text plus the sorted uid lists (8 bytes a uid).  The
#: in-memory oracle needs over 100 MB for the same run.
PEAK_BOUND = 4 * 1024 * 1024


def test_streamed_digest_memory_is_bounded():
    # Events are stand-ins with the repr length of real ones (any object
    # with a repr is an event to the digest), so the run stays cheap to
    # build and to trace.
    num_events = 200_000
    events = [
        f"ExecutionEvent(round={i // 8}, mini_round=0, location={i % 4}, "
        f"job=Job(color={i % 64}, arrival={i // 8}, delay_bound=4, uid={i}))"
        for i in range(num_events)
    ]
    ledger = CostLedger(4)
    schedule = Schedule(n=4)
    for i in range(0, num_events, 4):
        schedule.add_execution(i // 8, i % 4, i)
        ledger.charge_drop(i // 8, i % 64)
    executed = set(range(0, num_events, 4))
    dropped = set(range(1, num_events, 4))
    tracemalloc.start()
    try:
        component_digests(ledger, schedule, events, executed, dropped)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < PEAK_BOUND, f"digest scratch peaked at {peak / 2**20:.1f} MiB"
