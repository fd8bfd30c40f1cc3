"""Per-layer metrics of a traced run.

Each name is ``<repro module>.<quantity>``; ``BENCHMARK.json`` lists them
with their units.  A workload returns the names its layers run; every
other name reads 0.  Times come from the traced pass (the tracer's
inclusive totals, or self time where the name says so); counts come from
the untraced pass and repeat exactly for a seed.  The ``trace.*`` names
give the tracing overhead: the same work untraced and traced.
"""

from __future__ import annotations

from common import quantile

US = 1e6


class Stats:
    """Summed tracer aggregates of one or more traced processes."""

    def __init__(self, traces: list[dict]):
        self.stats: dict[str, list[float]] = {}
        self.samples: dict[str, list[float]] = {}
        self.under: dict[str, dict[str, int]] = {}
        self.root_cpu = self.cpu = 0.0
        for trace in traces:
            for label, entry in trace["stats"].items():
                acc = self.stats.setdefault(label, [0, 0.0, 0.0])
                acc[0] += entry["calls"]
                acc[1] += entry["total_s"]
                acc[2] += entry["self_s"]
            for label, values in trace["samples"].items():
                self.samples.setdefault(label, []).extend(values)
            for root, inner in trace["under"].items():
                slot = self.under.setdefault(root, {})
                for label, calls in inner.items():
                    slot[label] = slot.get(label, 0) + calls
            self.root_cpu += trace["root_cpu_s"]
            self.cpu += trace["cpu_s"]

    def calls(self, label: str) -> int:
        return self.stats.get(label, [0, 0.0, 0.0])[0]

    def total(self, label: str) -> float:
        return self.stats.get(label, [0, 0.0, 0.0])[1]

    def self_time(self, label: str) -> float:
        return self.stats.get(label, [0, 0.0, 0.0])[2]


def _per(value: float, base: float) -> float:
    return value / base if base else 0.0


def _engine(out: dict, st: Stats, rounds: int) -> None:
    """The engine rows, per round (summed over shards)."""
    out["core.simulator.step_us_per_round"] = _per(st.total("core.simulator.step"), rounds) * US
    out["core.simulator.step_self_us_per_round"] = (
        _per(st.self_time("core.simulator.step"), rounds) * US
    )
    for phase in ("drop", "arrival", "reconfig", "execute"):
        out[f"core.simulator.{phase}_us_per_round"] = (
            _per(st.total(f"core.simulator.{phase}"), rounds) * US
        )
    out["telemetry.record_us_per_round"] = _per(st.total("telemetry.record"), rounds) * US
    out["telemetry.calls_per_round"] = _per(st.calls("telemetry.record"), rounds)


def _overhead(out: dict, plain: dict, traced: dict) -> None:
    out["trace.untraced_jobs_per_s"] = plain["jobs_per_s"]
    out["trace.traced_jobs_per_s"] = traced["jobs_per_s"]
    out["trace.untraced_batch_s"] = plain["batch_s"]
    out["trace.traced_batch_s"] = traced["batch_s"]


def serve_layers(plain: dict, traced: dict, traces: list[dict]) -> dict:
    st = Stats(traces)
    n = len(traces)
    counts = plain["counts"]
    rounds = counts["rounds"] * n
    submitted = counts["submitted"] * n
    admitted = counts["admitted"] * n
    submits = counts["submits"] * n
    syncs = st.samples.get("serve.journal.sync", [])
    out = {
        "serve.protocol.decode_us_per_job": _per(st.total("serve.protocol.decode"), submitted) * US,
        "serve.protocol.encode_us_per_round": _per(st.total("serve.protocol.encode"), rounds) * US,
        "serve.protocol.bytes_in_per_job": _per(counts["bytes_in"], counts["submitted"]),
        "serve.protocol.bytes_out_per_round": _per(counts["bytes_out"], counts["rounds"]),
        "serve.session.validate_us_per_job": (
            _per(st.self_time("serve.session.validate"), submitted) * US
        ),
        "serve.session.commit_us_per_job": _per(st.self_time("serve.session.commit"), admitted) * US,
        "serve.session.tick_self_us_per_round": (
            _per(st.self_time("serve.session.tick"), rounds) * US
        ),
        "serve.tenants.plan_us_per_job": _per(st.total("serve.tenants.plan"), submitted) * US,
        "serve.tenants.refill_us_per_round": _per(st.total("serve.tenants.refill"), rounds) * US,
        "serve.tenants.shed_share": _per(counts["shed"], counts["submitted"]),
        "serve.journal.append_us_per_record": (
            _per(st.total("serve.journal.append"), st.calls("serve.journal.append")) * US
        ),
        "serve.journal.sync_ms_p50": quantile(syncs, 0.50) * 1e3,
        "serve.journal.sync_ms_p99": quantile(syncs, 0.99) * 1e3,
        "serve.journal.syncs_per_submit": _per(
            st.under.get("serve.server.submit", {}).get("serve.journal.fsync", 0),
            submits,
        ),
        "serve.journal.bytes_per_job": _per(counts["wal_bytes"], counts["admitted"]),
        "serve.client.submit_p50_ms": plain["submit_p50_ms"],
        "serve.client.tick_p50_ms": plain["tick_p50_ms"],
        "serve.client.submit_p99_ms": plain["submit_p99_ms"],
        "serve.client.tick_p99_ms": plain["tick_p99_ms"],
        "serve.client.slow_tick_share": plain["slow_tick_share"],
        "serve.server.cpu_ms_per_round": plain["server_cpu_ms_per_round"],
        "serve.server.ctx_switches_per_round": plain["server_ctx_switches_per_round"],
        "serve.server.self_share": 1.0 - _per(st.root_cpu, st.cpu),
        "core.simulator.reconfigs_per_round": _per(counts["reconfigs"], counts["rounds"]),
        "core.simulator.build_s": st.total("core.simulator.build") / n,
    }
    _engine(out, st, rounds)
    _overhead(out, plain, traced)
    return out


def offline_layers(plain: dict, traced: dict) -> dict:
    st = Stats([batch["trace"] for batch in traced["batches"]])
    n = len(traced["batches"])
    out = {f"{label}_s": st.total(label) / n
           for label in st.stats if label.startswith("experiments.")}
    for label in ("opt.solve", "opt.validate", "offline.solve", "reductions.transform",
                  "core.simulator.run", "core.schedule.validate", "core.simulator.build"):
        out[f"{label}_s"] = st.total(label) / n
    out["opt.states"] = plain["counts"]["opt_states"]
    _engine(out, st, st.calls("core.simulator.step"))
    _overhead(out, plain, traced)
    return out


def solve_layers(plain: dict, traced: dict) -> dict:
    st = Stats([traced["trace"]])
    reps = len(traced["reps"])
    counts = plain["counts"]
    rounds = counts["rounds"] * reps
    out = {
        "core.simulator.build_s": st.total("core.simulator.build") / reps,
        "core.simulator.run_s": st.total("core.simulator.run") / reps,
        "core.schedule.validate_s": st.total("core.schedule.validate"),
        "core.simulator.reconfigs_per_round": _per(counts["reconfig_count"], counts["rounds"]),
    }
    _engine(out, st, rounds)
    _overhead(out, plain, traced)
    return out
