"""The serve workloads: ``repro serve`` in its own process, driven over TCP.

One client, one connection, client clock, closed loop: for each round
the client sends one pre-encoded ``submit`` with that round's jobs
(skipped when the round has none), waits for the verdict, sends one
``tick`` and waits for the result.  Offline verification and WAL replay
run only after the clock stops.
"""

from __future__ import annotations

import gc
import json
import socket
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

from common import TICK_LIMIT_S, Context, proc_cpu_s, proc_status, quantile, stop

#: rounds of one replay per requested second, and replays per run (each
#: against a freshly started server).  Sized on a 2-vCPU host so that a
#: replay takes about a fifth of ``--seconds``.  Change them only with a
#: new baseline: a seed's counts depend on the rounds.
LIGHT_ROUNDS_PER_S = 125
DURABLE_ROUNDS_PER_S = 87
LIGHT_REPLAYS = 4
DURABLE_REPLAYS = 4
#: rounds of the untimed warm-up replay that starts every run.
WARMUP_ROUNDS = 300
#: extra server start-ups per run, for the set-up median.
SETUP_PROBES = 4
#: leading rounds of each replay left out of the latency percentiles.
WARMUP_FRACTION = 0.05
#: tenant contract rate; the adversary floods at 8x it.
TENANT_RATE = 2
FLOOD_FACTOR = 8

HELLO = b'{"client":"perfbench","proto":"repro-serve-v1","type":"hello"}\n'
TICK = b'{"type":"tick"}\n'
STATS = b'{"type":"stats"}\n'
BYE = b'{"type":"bye"}\n'


@dataclass
class ServeSpec:
    args: list[str]
    instance: object  # repro.core.request.Instance
    journal: bool
    tenants: dict | None
    replays: int


def _renumbered(per_round: list[list], delta: int, name: str):
    """An Instance whose uids are 0..N-1 in round order, so wire bytes and
    every count depend on the seed alone."""
    from repro.core.job import Job
    from repro.core.request import Instance, RequestSequence

    jobs = []
    for batch in per_round:
        for job in batch:
            jobs.append(Job(
                color=job.color, arrival=job.arrival,
                delay_bound=job.delay_bound, uid=len(jobs),
            ))
    needed = max((job.deadline for job in jobs), default=0) + 1
    return Instance(
        RequestSequence(jobs, horizon=max(len(per_round), needed)), delta,
        name=name,
    )


def _at(instance, rnd: int) -> list:
    return list(instance.sequence.request(rnd)) if rnd < instance.horizon else []


def light_spec(ctx: Context) -> ServeSpec:
    from repro.workloads import poisson_workload

    rounds = LIGHT_ROUNDS_PER_S * ctx.seconds
    base = poisson_workload(
        num_colors=64, rate=1.0, horizon=rounds, delta=4, seed=ctx.seed
    )
    per_round = [_at(base, r) for r in range(base.horizon)]
    return ServeSpec(
        args=["--n", "16", "--delta", "4", "--policy", "dlru-edf"],
        instance=_renumbered(per_round, 4, "serve-light"),
        journal=False,
        tenants=None,
        replays=LIGHT_REPLAYS,
    )


def durable_spec(ctx: Context) -> ServeSpec:
    from repro.workloads import (
        bursty_workload,
        tenant_flood_instance,
        tenant_flood_plan,
    )

    rounds = DURABLE_ROUNDS_PER_S * ctx.seconds
    plan = tenant_flood_plan(shards=4, delta=4, rate=TENANT_RATE)
    bursty = bursty_workload(num_colors=64, horizon=rounds, delta=4, seed=ctx.seed)
    flood = tenant_flood_instance(
        plan, horizon=rounds, flood_factor=FLOOD_FACTOR, seed=ctx.seed, delta=4
    )
    horizon = max(bursty.horizon, flood.horizon)
    per_round = [_at(bursty, r) + _at(flood, r) for r in range(horizon)]
    return ServeSpec(
        args=["--shards", "4", "--n", "32", "--delta", "4", "--policy", "dlru-edf"],
        instance=_renumbered(per_round, 4, "serve-durable"),
        journal=True,
        tenants=plan,
        replays=DURABLE_REPLAYS,
    )


class Conn:
    """A blocking line-frame client on one TCP connection."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")

    def call(self, payload: bytes) -> bytes:
        self.sock.sendall(payload)
        line = self.rfile.readline()
        if not line:
            raise RuntimeError("server closed the connection")
        return line

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


class Server:
    """One ``repro serve`` child, started through the launcher."""

    def __init__(self, ctx: Context, spec: ServeSpec, tag: str, trace_out=None):
        run_dir = ctx.out
        self.port_file = run_dir / f"ports-{tag}.json"
        self.journal = run_dir / f"wal-{tag}.jsonl" if spec.journal else None
        args = list(spec.args) + ["--port-file", str(self.port_file), "--quiet"]
        if self.journal is not None:
            args += ["--journal", str(self.journal)]
        if spec.tenants is not None:
            plan = run_dir / "tenants.json"
            plan.write_text(json.dumps(spec.tenants))
            args += ["--tenants", str(plan)]
        launch = ["serve"]
        if trace_out is not None:
            launch += ["--trace-out", str(trace_out)]
        t0 = self.spawned_at = time.perf_counter()
        self.proc = ctx.spawn(launch + ["--", *args], ctx.root, run_dir / "serve.log")
        port = self._wait_port(60.0)
        self.conn = Conn(port)
        self.welcome = json.loads(self.conn.call(HELLO))
        self.setup_s = time.perf_counter() - t0
        if self.welcome.get("type") != "welcome":
            raise RuntimeError(f"expected welcome, got {self.welcome}")

    def _wait_port(self, limit: float) -> int:
        deadline = time.perf_counter() + limit
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with {self.proc.returncode} at start-up"
                )
            try:
                return int(json.loads(self.port_file.read_text())["port"])
            except (FileNotFoundError, ValueError, KeyError):
                time.sleep(0.002)
        raise RuntimeError("repro serve did not start listening in time")

    def shutdown(self) -> int:
        try:
            self.conn.call(BYE)
        finally:
            self.conn.close()
        rc = stop(self.proc)
        self.port_file.unlink(missing_ok=True)
        return rc


def _frames(instance) -> tuple[list[bytes | None], list[int]]:
    from repro.serve.protocol import encode_frame, job_to_wire

    frames: list[bytes | None] = []
    counts = []
    for rnd in range(instance.horizon):
        jobs = list(instance.sequence.request(rnd))
        counts.append(len(jobs))
        frames.append(
            encode_frame({
                "type": "submit",
                "id": f"r{rnd}",
                "jobs": [job_to_wire(job) for job in jobs],
            })
            if jobs else None
        )
    return frames, counts


def _replay(conn: Conn, frames: list[bytes | None]) -> dict:
    """The timed closed loop; replies are kept raw and parsed afterwards.

    The client's own collector would pause inside the timed round trips
    (its heap holds the whole instance), so it is off for the loop, which
    creates no cycles.
    """
    gc.collect()
    gc.disable()
    try:
        return _timed_loop(conn.call, frames)
    finally:
        gc.enable()


def _timed_loop(call, frames: list[bytes | None]) -> dict:
    perf = time.perf_counter
    sub_lat: list[float] = []
    tick_lat: list[float] = []
    sub_replies: list[bytes] = []
    tick_replies: list[bytes] = []
    ends: list[float] = []
    start = perf()
    for frame in frames:
        if frame is not None:
            t0 = perf()
            sub_replies.append(call(frame))
            sub_lat.append(perf() - t0)
        t0 = perf()
        tick_replies.append(call(TICK))
        t1 = perf()
        tick_lat.append(t1 - t0)
        ends.append(t1)
    return {
        "start": start,
        "wall_s": perf() - start,
        "sub_lat": sub_lat,
        "tick_lat": tick_lat,
        "sub_replies": sub_replies,
        "tick_replies": tick_replies,
        "ends": ends,
    }


def _session_digests(spec: ServeSpec, welcome: dict, journal: Path) -> list[dict]:
    """Replay the WAL into a fresh session; per-shard digests."""
    from repro.policies import make_policy
    from repro.serve.journal import read_records, replay_session
    from repro.serve.session import ShardedSession

    session = ShardedSession(
        n=welcome["n"],
        delta=welcome["delta"],
        policy_factory=lambda: make_policy(welcome["policy"], welcome["delta"]),
        shards=welcome["shards"],
        speed=welcome["speed"],
        engine=welcome["engine"],
        max_pending=welcome["max_pending"],
    )
    replay_session(read_records(journal), session)
    return [shard.digests() for shard in session.shards]


def _one_replay(ctx: Context, spec: ServeSpec, frames, tag: str, trace_out) -> dict:
    """Start a fresh server, replay every frame, read its stats, stop it."""
    server = Server(ctx, spec, tag, trace_out=trace_out)
    pid = server.proc.pid
    cpu0 = proc_cpu_s(pid)
    st0 = proc_status(pid)
    try:
        loop = _replay(server.conn, frames)
        cpu1 = proc_cpu_s(pid)
        st1 = proc_status(pid)
        stats = json.loads(server.conn.call(STATS))
        hwm_kb = proc_status(pid).get("VmHWM", 0)
    finally:
        rc = server.shutdown()
    ctx_switches = sum(
        st1.get(key, 0) - st0.get(key, 0)
        for key in ("voluntary_ctxt_switches", "nonvoluntary_ctxt_switches")
    )
    return {
        **loop,
        "rc": rc,
        "setup": (server.spawned_at, server.setup_s),
        "welcome": server.welcome,
        "journal": server.journal,
        "digests": [shard["digests"] for shard in stats.get("shards", [])],
        "peak_rss_mb": hwm_kb / 1024.0,
        "server_cpu_s": cpu1 - cpu0,
        "server_ctx_switches": ctx_switches,
    }


def _check_replay(rep: dict, frames) -> tuple[dict, list[str], int, list[int]]:
    """Counts, problems and failed operations of one replay (off the clock).

    Only reject and error frames fail an operation: they repeat exactly
    for a seed.  Ticks slower than ``TICK_LIMIT_S`` depend on the host and
    are counted in ``rep["slow_ticks"]`` instead.
    """
    problems: list[str] = []
    if rep["rc"] != 0:
        problems.append(f"repro serve exited with {rep['rc']}")
    admitted = shed = failed = 0
    rep["slow_ticks"] = sum(1 for lat in rep["tick_lat"] if lat > TICK_LIMIT_S)
    shed_uids: list[int] = []
    sub_replies = iter(rep["sub_replies"])
    for rnd, frame in enumerate(frames):
        if frame is None:
            continue
        reply = json.loads(next(sub_replies))
        if reply.get("type") != "accept":
            failed += 1
            problems.append(f"round {rnd}: submit answered {reply.get('type')}")
            continue
        admitted += int(reply["count"])
        shed += int(reply.get("shed", 0))
        shed_uids.extend(reply.get("shed_uids", ()))
    reconfigs = 0
    last: dict = {}
    for rnd, line in enumerate(rep["tick_replies"]):
        last = json.loads(line)
        if last.get("type") != "result" or last.get("round") != rnd:
            failed += 1
            problems.append(f"round {rnd}: tick answered {last.get('type')}")
        reconfigs += int(last.get("recolored", 0))
    if last.get("pending", 0) != 0:
        problems.append(f"{last.get('pending')} jobs still pending after the horizon")
    wal_records = wal_bytes = 0
    if rep["journal"] is not None:
        wal_bytes = rep["journal"].stat().st_size
        with open(rep["journal"], "rb") as fh:
            wal_records = sum(1 for _ in fh)
    counts = {
        "rounds": len(frames),
        "submits": sum(1 for frame in frames if frame is not None),
        "admitted": admitted,
        "shed": shed,
        "bytes_in": sum(len(f) for f in frames if f is not None) + len(TICK) * len(frames),
        "bytes_out": sum(map(len, rep["sub_replies"])) + sum(map(len, rep["tick_replies"])),
        "reconfigs": reconfigs,
        "wal_records": wal_records,
        "wal_bytes": wal_bytes,
    }
    return counts, problems, failed, shed_uids


def run_serve(ctx: Context, spec: ServeSpec, trace_out: Path | None) -> dict:
    """``spec.replays`` replays of the same frames, each against a fresh
    server, then the gates (offline re-run, WAL replay) once the clock
    stopped."""
    from repro.serve.loadgen import verify_offline

    frames, job_counts = _frames(spec.instance)
    raw_setups = [_warm_up(ctx, spec, frames[:WARMUP_ROUNDS])]
    raw_setups += [_start_up(ctx, spec, f"setup{i}") for i in range(SETUP_PROBES)]
    replays = [
        _one_replay(ctx, spec, frames, f"rep{i}", trace_out and f"{trace_out}.{i}")
        for i in range(spec.replays)
    ]
    problems: list[str] = []
    failed = 0
    counts = None
    offline = None
    for i, rep in enumerate(replays):
        rep_counts, rep_problems, rep_failed, shed_uids = _check_replay(rep, frames)
        problems += rep_problems
        failed += rep_failed
        if counts is None:
            counts = rep_counts
            offline = verify_offline(
                spec.instance, rep["welcome"], len(frames),
                exclude_uids=frozenset(shed_uids),
            )
        elif rep_counts != counts:
            problems.append(f"replay {i}: counts differ from replay 0 of this run")
        if rep["digests"] != offline:
            problems.append(f"replay {i}: live per-shard digests differ from the offline re-run")
        if rep["journal"] is not None:
            # Replaying one WAL is enough: every replay's WAL must have the
            # same records and bytes (the counts above).
            if i == 0 and _session_digests(spec, rep["welcome"], rep["journal"]) != rep["digests"]:
                problems.append("WAL replay digests differ from the server's")
            rep["journal"].unlink()
    counts["submitted"] = sum(job_counts)

    warm = int(len(frames) * WARMUP_FRACTION)
    warm_sub = sum(1 for frame in frames[:warm] if frame is not None)
    for rep in replays:
        rep["sub_lat"] = rep["sub_lat"][warm_sub:]
        rep["tick_lat"] = rep["tick_lat"][warm:]
    sub_lat = [x for rep in replays for x in rep["sub_lat"]]
    tick_lat = [x for rep in replays for x in rep["tick_lat"]]
    raw_setups += [rep["setup"] for rep in replays]
    speed = ctx.host_speed()
    setups = [speed.scaled(at, sec) for at, sec in raw_setups]
    walls = [speed.scaled(rep["start"], rep["wall_s"]) for rep in replays]
    rates = [counts["admitted"] / wall for wall in walls]
    rounds = counts["rounds"] * spec.replays
    return {
        "problems": problems,
        "attempted": (counts["submits"] + counts["rounds"]) * spec.replays,
        "failed": failed,
        "counts": counts,
        "setup_s": statistics.median(setups),
        "setups": setups,
        "batch_s": statistics.median(walls),
        "jobs_per_s": statistics.median(rates),
        "rates": rates,
        # medians over replays, like the rates: one slow replay (host
        # drift) moves them less than a pooled percentile
        "submit_p50_ms": statistics.median(quantile(r["sub_lat"], 0.5) for r in replays) * 1e3,
        "tick_p50_ms": statistics.median(quantile(r["tick_lat"], 0.5) for r in replays) * 1e3,
        "submit_p99_ms": quantile(sub_lat, 0.99) * 1e3,
        "tick_p99_ms": quantile(tick_lat, 0.99) * 1e3,
        "per_rep": [
            {"wall_s": wall, "raw_wall_s": rep["wall_s"],
             "tick_max_ms": max(rep["tick_lat"]) * 1e3, "slow_ticks": rep["slow_ticks"]}
            for rep, wall in zip(replays, walls)
        ],
        "raw_setups": [sec for _, sec in raw_setups],
        "slow_tick_share": sum(r["slow_ticks"] for r in replays) / rounds,
        "submit_samples": len(sub_lat),
        "tick_samples": len(tick_lat),
        "peak_rss_mb": max(rep["peak_rss_mb"] for rep in replays),
        "server_cpu_ms_per_round": sum(r["server_cpu_s"] for r in replays) / rounds * 1e3,
        "server_ctx_switches_per_round": sum(r["server_ctx_switches"] for r in replays) / rounds,
    }


def _start_up(ctx: Context, spec: ServeSpec, tag: str, frames=()) -> tuple[float, float]:
    """Start a throwaway server, replay ``frames`` untimed, stop it;
    returns its spawn stamp and set-up time."""
    server = Server(ctx, spec, tag)
    _replay(server.conn, frames)
    server.shutdown()
    if server.journal is not None:
        server.journal.unlink(missing_ok=True)
    return server.spawned_at, server.setup_s


def _warm_up(ctx: Context, spec: ServeSpec, frames) -> tuple[float, float]:
    """The first replay a client process makes runs slower than the ones
    after it, so no measured replay is the first."""
    return _start_up(ctx, spec, "warmup", frames)


def workload(ctx: Context, make_spec) -> dict:
    spec = make_spec(ctx)
    if not ctx.trace:
        run = run_serve(ctx, spec, None)
        return {**run, "detail": _detail(run)}
    import layers

    plain = run_serve(ctx, spec, None)
    trace_out = ctx.out / "trace.json"
    traced = run_serve(ctx, spec, trace_out)
    problems = plain["problems"] + traced["problems"]
    if traced["counts"] != plain["counts"]:
        problems.append("traced run counts differ from the untraced run")
    traces = [json.loads(Path(f"{trace_out}.{i}").read_text()) for i in range(spec.replays)]
    return {
        "problems": problems,
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "counts": plain["counts"],
        "layers": layers.serve_layers(plain, traced, traces),
        "detail": {"untraced": _detail(plain), "traced": _detail(traced)},
    }


def _detail(run: dict) -> dict:
    keys = ("setups", "raw_setups", "rates", "per_rep", "slow_tick_share", "submit_samples", "tick_samples",
            "server_cpu_ms_per_round", "server_ctx_switches_per_round")
    return {key: run[key] for key in keys}
