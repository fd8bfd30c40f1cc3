"""Span tracer and the layer wrappers the traced benchmark run installs.

Nothing here runs unless a launcher asks for tracing: ``install(mode)``
wraps the public functions and methods of each ``repro`` layer (plus the
serve frame handlers) with a timing wrapper.  Every wrapped call becomes
a frame on one stack; when it returns, its duration, its self time (the
duration minus the time its wrapped children covered) and, for span
labels, a span record ``(id, parent, label, start, end, round)`` are
kept in memory.  ``dump(path)`` writes the aggregates and the spans at
exit.

Per-job functions (wire decode of one job, one execution, telemetry
calls) are aggregated only: they add to their label's totals and to the
parent's child time, but record no span, so the span list stays at a
few dozen records per round.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

perf_counter = time.perf_counter
process_time = time.process_time


class Tracer:
    """One process's span stack, per-label totals and span records."""

    def __init__(self, round_label: str):
        #: label whose outermost exit advances the round id spans carry.
        self.round_label = round_label
        self.round = 0
        self.stack: list[list] = []  # [label, child_time, span_id]
        self.active: dict[str, int] = defaultdict(int)
        #: label -> [calls, inclusive seconds (outermost calls), self seconds]
        self.stats: dict[str, list] = {}
        self.spans: list[tuple] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: label -> calls made while a given root label was on the stack.
        self.under: dict[str, dict[str, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        self.root_cpu = 0.0
        self.next_id = 1
        self.cpu_start = process_time()

    def call(self, label, fn, args, kwargs, span, sample):
        stack = self.stack
        root = not stack
        if root:
            c0 = process_time()
            sid_parent = 0
        else:
            sid_parent = stack[-1][2]
            self.under[stack[0][0]][label] += 1
        if span:
            sid = self.next_id
            self.next_id += 1
        else:
            sid = sid_parent
        frame = [label, 0.0, sid]
        stack.append(frame)
        active = self.active
        outermost = active[label] == 0
        active[label] += 1
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            active[label] -= 1
            dur = t1 - t0
            entry = self.stats.get(label)
            if entry is None:
                entry = self.stats[label] = [0, 0.0, 0.0]
            entry[0] += 1
            if outermost:
                entry[1] += dur
            entry[2] += dur - frame[1]
            if stack:
                stack[-1][1] += dur
            else:
                self.root_cpu += process_time() - c0
            if span:
                self.spans.append((sid, sid_parent, label, t0, t1, self.round))
            if sample:
                self.samples[label].append(dur)
            if outermost and label == self.round_label:
                self.round += 1

    def wrap(self, owner, attr, label, span=True, sample=False, split=None):
        """Replace ``owner.attr`` with a timing wrapper; returns the original.

        ``split(args, kwargs)`` may pick the label per call.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        if split is None:
            def wrapper(*args, **kwargs):
                return tracer.call(label, original, args, kwargs, span, sample)
        else:
            def wrapper(*args, **kwargs):
                return tracer.call(
                    split(args, kwargs), original, args, kwargs, span, sample
                )

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        return original, wrapper

    def wrap_function(self, module, name, label, **kw):
        """Wrap a module-level function and rebind every alias of it in the
        already-imported ``repro`` modules (``from x import f`` copies)."""
        original, wrapper = self.wrap(module, name, label, **kw)
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def wrap_methods(self, base, names, label, **kw):
        """Wrap ``names`` on ``base`` and on every subclass defining them."""
        seen = set()
        todo = [base]
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            for name in names:
                if name in cls.__dict__:
                    self.wrap(cls, name, label, **kw)

    def dump(self, path: str, extra: dict) -> None:
        cpu = process_time() - self.cpu_start
        payload = {
            "stats": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                      for k, v in sorted(self.stats.items())},
            "samples": {k: v for k, v in self.samples.items()},
            "under": {k: dict(v) for k, v in self.under.items()},
            "root_cpu_s": self.root_cpu,
            "cpu_s": cpu,
            "spans": len(self.spans),
            **extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        with open(path + ".spans.jsonl", "w", encoding="utf-8") as fh:
            for sid, parent, label, t0, t1, rnd in self.spans:
                fh.write(
                    f'[{sid},{parent},"{label}",{t0:.9f},{t1:.9f},{rnd}]\n'
                )


def _journal_label(args, kwargs):
    # JsonlJournal.append(self, record, sync=None): sync None means the
    # journal-level default.
    journal = args[0]
    sync = kwargs.get("sync", args[2] if len(args) > 2 else None)
    synced = journal.fsync if sync is None else sync
    return "serve.journal.sync" if synced else "serve.journal.append"


def install(mode: str) -> Tracer:
    """Wrap every layer the workload ``mode`` (serve/solve/all) runs."""
    import repro.cli  # noqa: F401  (loads the modules whose aliases we rebind)
    import repro.core.engine as engine
    import repro.experiments.runner as runner
    import repro.offline.brute as offline_brute
    import repro.offline.optimal as optimal
    import repro.opt.brute as opt_brute
    import repro.opt.decode as decode
    import repro.reductions.distribute as distribute
    import repro.reductions.varbatch as varbatch
    import repro.serve.server as server
    import repro.core.schedule as schedule
    import repro.telemetry.recorder as recorder
    from repro.core.array_engine import ArrayPendingStore, ArraySimulator
    from repro.core.pending import PendingStore
    from repro.core.resources import ResourceBank
    from repro.core.simulator import Policy, Simulator

    round_label = {
        "serve": "serve.server.tick",
        "solve": "core.simulator.step",
        "all": "core.simulator.step",
    }[mode]
    tracer = Tracer(round_label)
    w = tracer.wrap_methods

    # -- core.simulator: the engine and its four phases --------------------
    for cls in (Simulator, ArraySimulator):
        tracer.wrap(cls, "step", "core.simulator.step")
        tracer.wrap(cls, "run", "core.simulator.run")
    for store in (PendingStore, ArrayPendingStore):
        tracer.wrap(store, "drop_expired", "core.simulator.drop")
        tracer.wrap(store, "add", "core.simulator.arrival", span=False)
        tracer.wrap(store, "execute_one", "core.simulator.execute", span=False)
    tracer.wrap(ArrayPendingStore, "add_run", "core.simulator.arrival", span=False)
    w(Policy, ["on_drop_phase"], "core.simulator.drop")
    w(Policy, ["on_arrival_phase"], "core.simulator.arrival")
    w(Policy, ["desired_configuration"], "core.simulator.reconfig")
    w(Policy, ["on_execution_phase"], "core.simulator.execute")
    tracer.wrap(ResourceBank, "reconfigure_to", "core.simulator.reconfig")
    tracer.wrap(
        ResourceBank, "nonblack_locations_of_any", "core.simulator.execute",
        span=False,
    )
    tracer.wrap_function(engine, "make_simulator", "core.simulator.build")
    tracer.wrap_function(schedule, "validate_schedule", "core.schedule.validate")

    # -- telemetry: the live recorder serve always installs ----------------
    for name in ("count", "observe", "gauge"):
        tracer.wrap(
            recorder.TelemetryRecorder, name, "telemetry.record", span=False
        )

    if mode == "serve":
        from repro.serve.session import SessionShard, ShardedSession
        from repro.serve.tenants import ShardTenantMeter
        from repro.utils.jsonl import JsonlJournal

        # The frame handlers group one submit's (one tick's) work under a
        # root span; round ids advance when a tick handler returns.
        tracer.wrap(server.SchedulingServer, "_handle_submit", "serve.server.submit")
        tracer.wrap(server.SchedulingServer, "_tick_rounds", "serve.server.tick")
        tracer.wrap(server, "decode_frame", "serve.protocol.decode")
        tracer.wrap(server, "job_from_wire", "serve.protocol.decode", span=False)
        tracer.wrap(server, "encode_frame", "serve.protocol.encode")
        tracer.wrap(ShardedSession, "validate", "serve.session.validate")
        tracer.wrap(ShardedSession, "commit", "serve.session.commit")
        tracer.wrap(ShardedSession, "tick", "serve.session.tick")
        tracer.wrap(ShardedSession, "stats", "serve.session.stats")
        tracer.wrap(SessionShard, "step", "serve.session.shard_step")
        tracer.wrap(ShardTenantMeter, "plan", "serve.tenants.plan")
        tracer.wrap(ShardTenantMeter, "debit", "serve.tenants.debit", span=False)
        tracer.wrap(ShardTenantMeter, "refill", "serve.tenants.refill")
        tracer.wrap(
            JsonlJournal, "append", "serve.journal.append", sample=True,
            split=_journal_label,
        )
        tracer.wrap(os, "fsync", "serve.journal.fsync", span=False)

    if mode == "all":
        tracer.wrap(
            runner, "_execute_experiment", "experiments",
            split=lambda args, kwargs: f"experiments.{args[0]}",
        )
        tracer.wrap_function(optimal, "optimal_cost", "offline.solve")
        tracer.wrap_function(optimal, "optimal_schedule", "offline.solve")
        tracer.wrap_function(offline_brute, "brute_force_cost", "offline.solve")
        tracer.wrap_function(opt_brute, "solve_brute", "opt.solve")
        tracer.wrap_function(decode, "decode_solution", "opt.validate")
        tracer.wrap_function(varbatch, "varbatch_sequence", "reductions.transform")
        tracer.wrap_function(varbatch, "pull_back_schedule", "reductions.transform")
        tracer.wrap_function(distribute, "distribute_sequence", "reductions.transform")
        tracer.wrap_function(distribute, "pull_back_schedule", "reductions.transform")
    return tracer
