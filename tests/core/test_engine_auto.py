"""Pin the engine="auto" selection heuristic.

The threshold comes from BENCH_perf.json: the array engine's vectorized
round loop only pays for itself at large resource counts (the measured
crossover sits between n=128 and n=1024), so auto picks incremental
below 1024 resources and array at or above it.  These tests pin the
boundary so a silent threshold change shows up in review.
"""

from repro.core.digest import result_digest
from repro.core.engine import (
    AUTO_ARRAY_MIN_RESOURCES,
    auto_engine,
    make_simulator,
    resolve_engine,
)
from repro.core.simulator import simulate
from repro.policies import make_policy
from repro.workloads import uniform_workload


class TestAutoEngine:
    def test_threshold_value_is_pinned(self):
        assert AUTO_ARRAY_MIN_RESOURCES == 1024

    def test_boundary(self):
        assert auto_engine(1023) == "incremental"
        assert auto_engine(1024) == "array"
        assert auto_engine(1) == "incremental"
        assert auto_engine(10_000) == "array"

    def test_resolve_engine_leaves_auto_to_the_builder(self):
        # Only the code that builds a simulator knows its resource count.
        assert resolve_engine("auto", incremental=False) == "auto"

    def test_make_simulator_accepts_auto(self):
        instance = uniform_workload(
            num_colors=3, horizon=8, delta=2, seed=0, jobs_per_round=1,
            min_exp=0, max_exp=2,
        )
        policy = make_policy("edf", instance.delta)
        sim = make_simulator(instance, policy, 8, engine="auto")
        resolved = make_simulator(
            instance, make_policy("edf", instance.delta), 8,
            engine="incremental",
        )
        assert type(sim) is type(resolved)

    def test_auto_is_digest_identical_to_explicit_choice(self):
        instance = uniform_workload(
            num_colors=3, horizon=16, delta=2, seed=1, jobs_per_round=1,
            min_exp=0, max_exp=2,
        )
        runs = {
            engine: simulate(
                instance, make_policy("edf", instance.delta), n=8,
                record_events=False, engine=engine,
            )
            for engine in ("auto", "incremental", "array")
        }
        digests = {result_digest(run) for run in runs.values()}
        assert len(digests) == 1
