"""Child-process launcher for the benchmark.

Every program process the benchmark measures starts through this file,
so a traced and an untraced run differ only by ``--trace-out``:

    python3 perfbench/launch.py serve [--trace-out F] -- <repro serve args>
    python3 perfbench/launch.py all --result F [--trace-out F] -- <repro all args>
    python3 perfbench/launch.py solve --result F --seed S --reps K --builds B [--trace-out F]
    python3 perfbench/launch.py import --result F

``serve`` and ``all`` hand their arguments to ``repro.cli.main``.
``solve`` builds the wide rate-limited instance from ``--seed``, calls
``make_simulator(..., engine="auto")`` ``--builds`` times alone (set-up
samples), then runs ``make_simulator(..., engine="auto").run()``
``--reps`` times.  Results
go to ``--result`` as JSON; with ``--trace-out`` the tracer's aggregates
and spans are written there at exit.
"""

import argparse
import contextlib
import json
import resource
import sys
import time

import repro.cli

#: perf_counter is CLOCK_MONOTONIC on Linux, shared by every process, so
#: the parent can subtract its own spawn stamp from this one.
IMPORTED_AT = time.perf_counter()

#: widest solve workload: n >= 1024, where engine=auto picks the array engine.
SOLVE_N = 4096
SOLVE_COLORS = 256
SOLVE_HORIZON = 2048


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _write(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _run_all(args, argv) -> dict:
    import repro.core.job as jobmod

    tracer = _install(args, "all")
    first_uid = next(jobmod._JOB_IDS)
    with open(args.stdout, "w", encoding="utf-8") as out:
        with contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            rc = repro.cli.main(["all", *argv])
            wall = time.perf_counter() - t0
    minted = next(jobmod._JOB_IDS) - first_uid - 1
    result = {
        "rc": rc,
        "started_at": t0,
        "wall_s": wall,
        "jobs_minted": minted,
        "imported_at": IMPORTED_AT,
        "peak_rss_mb": _peak_rss_mb(),
    }
    _finish(args, tracer, result)
    return result


def _run_solve(args) -> dict:
    import repro.core.engine as engine
    import repro.core.schedule as schedule
    from repro.policies import make_policy
    from repro.workloads import rate_limited_workload

    instance = rate_limited_workload(
        num_colors=SOLVE_COLORS, horizon=SOLVE_HORIZON, seed=args.seed
    )
    builds = []
    for _ in range(args.builds):
        policy = make_policy("dlru-edf", instance.delta)
        t0 = time.perf_counter()
        sim = engine.make_simulator(instance, policy, SOLVE_N, engine="auto")
        builds.append((t0, time.perf_counter() - t0))
        del sim
    # After the instance exists, so the tracer sees only the solve.
    tracer = _install(args, "solve")
    reps = []
    run = None
    for _ in range(args.reps):
        run = None  # free the previous repetition's result before the next
        policy = make_policy("dlru-edf", instance.delta)
        t0 = time.perf_counter()
        sim = engine.make_simulator(instance, policy, SOLVE_N, engine="auto")
        t1 = time.perf_counter()
        run = sim.run()
        t2 = time.perf_counter()
        reps.append({
            "engine": engine.engine_of(sim),
            "built_from": t0,
            "build_s": t1 - t0,
            "run_s": t2 - t1,
            "jobs": instance.sequence.num_jobs,
            "rounds": instance.horizon,
            "ledger": run.ledger.summary(),
        })
        del sim
    # Repetitions must agree on the ledger (the parent compares them), so
    # checking the last schedule checks them all.
    gate = None
    try:
        schedule.validate_schedule(run.schedule, instance.sequence, instance.delta)
    except schedule.ScheduleError as exc:  # the gate reports, the parent decides
        gate = f"validate_schedule: {exc}"
    cost = run.schedule.cost(instance.sequence, instance.delta)
    if gate is None and cost != run.ledger.total_cost:
        gate = f"Schedule.cost {cost} != ledger total {run.ledger.total_cost}"
    result = {"builds": builds, "reps": reps, "gate": gate, "peak_rss_mb": _peak_rss_mb()}
    _finish(args, tracer, result)
    return result


def _run_serve(args, argv) -> int:
    tracer = _install(args, "serve")
    rc = repro.cli.main(["serve", *argv])
    _finish(args, tracer, {"rc": rc})
    return rc


def _install(args, mode):
    if not args.trace_out:
        return None
    import tracer

    return tracer.install(mode)


def _finish(args, tracer, result: dict) -> None:
    if args.result:
        _write(args.result, result)
    if tracer is not None:
        tracer.dump(args.trace_out, {"rc": result.get("rc", 0)})


def main() -> int:
    parser = argparse.ArgumentParser(prog="launch.py")
    parser.add_argument("mode", choices=["serve", "all", "solve", "import"])
    parser.add_argument("--result", default=None)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--stdout", default="all.out")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=1)
    parser.add_argument("--builds", type=int, default=0)
    args, rest = parser.parse_known_args()
    if rest and rest[0] == "--":
        rest = rest[1:]
    if args.mode == "import":
        _write(args.result, {"imported_at": IMPORTED_AT})
        return 0
    if args.mode == "serve":
        return _run_serve(args, rest)
    if args.mode == "all":
        result = _run_all(args, rest)
        return 0 if result["rc"] == 0 else 1
    result = _run_solve(args)
    return 0 if result["gate"] is None else 1


if __name__ == "__main__":
    sys.exit(main())
