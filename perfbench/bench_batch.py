"""The batch workloads: ``repro all`` and the wide ``engine=auto`` solve.

Both run in a child process started through the launcher, so their peak
RSS is their own and a traced run differs from an untraced one only by
the wrappers the launcher installs.
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import time

from common import Context

#: ``repro all`` exactly as a researcher runs the quick suite.
ALL_ARGS = ["--scale", "quick", "--jobs", "1", "--no-cache", "--ratios"]
#: nominal seconds of one ``repro all`` and of one wide solve on a
#: 2-vCPU host; a run repeats each ``round(--seconds / nominal)`` times,
#: and at least ``MIN_REPEATS`` times.
BATCH_NOMINAL_S = 8.0
SOLVE_NOMINAL_S = 7.0
MIN_REPEATS = 2
#: extra ``make_simulator`` calls per solve-wide run, for the set-up median.
BUILD_PROBES = 2
#: extra interpreter start-ups per offline run, for the set-up median.
IMPORT_PROBES = 6
CHILD_TIMEOUT_S = 170
PASSED = re.compile(r"^(\d+)/(\d+) experiments passed all checks$", re.M)


def _repeats(ctx: Context, nominal: float) -> int:
    return max(MIN_REPEATS, round(ctx.seconds / nominal))


def _wait(proc: subprocess.Popen) -> int:
    try:
        return proc.wait(CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("benchmark child timed out") from None


# -- offline-batch -------------------------------------------------------------


def _import_probe(ctx: Context, idx: int) -> tuple[float, float]:
    """(spawn stamp, seconds to ``repro`` imported) of one interpreter start."""
    result = ctx.out / f"import{idx}.json"
    t0 = time.perf_counter()
    _wait(ctx.spawn(["import", "--result", str(result)], ctx.out, ctx.out / "import.log"))
    return t0, json.loads(result.read_text())["imported_at"] - t0


def _batch(ctx: Context, tag: str, traced: bool) -> dict:
    bdir = ctx.out / tag
    bdir.mkdir()
    argv = ["all", "--result", str(bdir / "result.json"),
            "--stdout", str(bdir / "all.out")]
    if traced:
        argv += ["--trace-out", str(bdir / "trace.json")]
    t0 = time.perf_counter()
    rc = _wait(ctx.spawn(argv + ["--", *ALL_ARGS], bdir, bdir / "stderr.log"))
    result = json.loads((bdir / "result.json").read_text())
    text = (bdir / "all.out").read_text()
    bench = json.loads(
        (bdir / "benchmarks" / "output" / "local" / "BENCH_opt.json").read_text()
    )
    problems = []
    match = PASSED.search(text)
    passed, total = (int(match[1]), int(match[2])) if match else (0, 0)
    if rc != 0 or result["rc"] != 0:
        problems.append(f"repro all exited with {result['rc']}")
    if not match or passed != total:
        problems.append(f"experiments: {match[0] if match else 'no summary line'}")
    cells_ok = [
        cell["opt_validated"]
        and all(cost >= cell["opt_cost"] for cost in cell["policy_costs"].values())
        for cell in bench["cells"]
    ]
    if not bench["ok"] or not all(bench["checks"].values()):
        problems.append(f"ratio checks: {bench['checks']}")
    return {
        "problems": problems,
        "attempted": total + len(cells_ok),
        "failed": (total - passed) + cells_ok.count(False),
        "setup": (t0, result["imported_at"] - t0),
        "started_at": result["started_at"],
        "wall_s": result["wall_s"],
        "jobs_minted": result["jobs_minted"],
        "peak_rss_mb": result["peak_rss_mb"],
        "counts": {
            "experiments": total,
            "passed": passed,
            "ratio_cells": len(cells_ok),
            "opt_states": sum(cell["opt_states"] for cell in bench["cells"]),
            "jobs_minted": result["jobs_minted"],
        },
        "trace": json.loads((bdir / "trace.json").read_text()) if traced else None,
    }


def _offline_pass(ctx: Context, traced: bool, probes: int) -> dict:
    raw_setups = [_import_probe(ctx, i) for i in range(probes)]
    tag = "traced" if traced else "batch"
    batches = [_batch(ctx, f"{tag}{i}", traced) for i in range(_repeats(ctx, BATCH_NOMINAL_S))]
    raw_setups += [b["setup"] for b in batches]
    speed = ctx.host_speed()
    setups = [speed.scaled(at, sec) for at, sec in raw_setups]
    walls = [speed.scaled(b["started_at"], b["wall_s"]) for b in batches]
    counts = batches[0]["counts"]
    problems = [p for b in batches for p in b["problems"]]
    if any(b["counts"] != counts for b in batches):
        problems.append("exact counts differ between batches of one run")
    return {
        "problems": problems,
        "attempted": sum(b["attempted"] for b in batches),
        "failed": sum(b["failed"] for b in batches),
        "counts": counts,
        "batches": batches,
        "setup_s": statistics.median(setups),
        "setups": setups,
        "raw_setups": [sec for _, sec in raw_setups],
        "walls": walls,
        "batch_s": statistics.median(walls),
        "jobs_per_s": statistics.median(
            b["jobs_minted"] / wall for b, wall in zip(batches, walls)
        ),
        "peak_rss_mb": max(b["peak_rss_mb"] for b in batches),
    }


def offline_batch(ctx: Context) -> dict:
    if not ctx.trace:
        run = _offline_pass(ctx, False, IMPORT_PROBES)
        return {**run, "detail": _offline_detail(run)}
    import layers

    plain = _offline_pass(ctx, False, 0)
    traced = _offline_pass(ctx, True, 0)
    problems = plain["problems"] + traced["problems"]
    if traced["counts"] != plain["counts"]:
        problems.append("traced run counts differ from the untraced run")
    return {
        "problems": problems,
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "counts": plain["counts"],
        "layers": layers.offline_layers(plain, traced),
        "detail": {"untraced": _offline_detail(plain), "traced": _offline_detail(traced)},
    }


def _offline_detail(run: dict) -> dict:
    return {
        "setups": run["setups"],
        "batch_walls": run["walls"],
        "raw_setups": run["raw_setups"],
        "raw_batch_walls": [b["wall_s"] for b in run["batches"]],
    }


# -- solve-wide ----------------------------------------------------------------


def _solve_pass(ctx: Context, traced: bool) -> dict:
    tag = "solve-traced" if traced else "solve"
    result_path = ctx.out / f"{tag}.json"
    argv = ["solve", "--result", str(result_path), "--seed", str(ctx.seed),
            "--reps", str(_repeats(ctx, SOLVE_NOMINAL_S)), "--builds", str(BUILD_PROBES)]
    trace_path = ctx.out / f"{tag}-trace.json"
    if traced:
        argv += ["--trace-out", str(trace_path)]
    _wait(ctx.spawn(argv, ctx.out, ctx.out / "solve.log"))
    result = json.loads(result_path.read_text())
    reps = result["reps"]
    problems = [result["gate"]] if result["gate"] else []
    problems += [f"engine=auto picked {rep['engine']!r}, expected 'array'"
                 for rep in reps if rep["engine"] != "array"]
    speed = ctx.host_speed()
    builds = [speed.scaled(at, sec) for at, sec in result["builds"]]
    for rep in reps:
        rep["build_ref_s"] = speed.scaled(rep["built_from"], rep["build_s"])
        rep["run_ref_s"] = speed.scaled(rep["built_from"] + rep["build_s"], rep["run_s"])
    builds += [rep["build_ref_s"] for rep in reps]
    counts = {"jobs": reps[0]["jobs"], "rounds": reps[0]["rounds"], **reps[0]["ledger"]}
    if any({"jobs": r["jobs"], "rounds": r["rounds"], **r["ledger"]} != counts for r in reps):
        problems.append("exact counts differ between repetitions of one run")
    return {
        "problems": problems,
        "attempted": sum(rep["rounds"] for rep in reps),
        "failed": 0,
        "counts": counts,
        "reps": reps,
        "setup_s": statistics.median(builds),
        "builds": builds,
        "batch_s": statistics.median(rep["run_ref_s"] for rep in reps),
        "jobs_per_s": statistics.median(rep["jobs"] / rep["run_ref_s"] for rep in reps),
        "peak_rss_mb": result["peak_rss_mb"],
        "trace": json.loads(trace_path.read_text()) if traced else None,
    }


def solve_wide(ctx: Context) -> dict:
    if not ctx.trace:
        run = _solve_pass(ctx, False)
        return {**run, "detail": _solve_detail(run)}
    import layers

    plain = _solve_pass(ctx, False)
    traced = _solve_pass(ctx, True)
    problems = plain["problems"] + traced["problems"]
    if traced["counts"] != plain["counts"]:
        problems.append("traced run counts differ from the untraced run")
    return {
        "problems": problems,
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "counts": plain["counts"],
        "layers": layers.solve_layers(plain, traced),
        "detail": {"untraced": _solve_detail(plain), "traced": _solve_detail(traced)},
    }


def _solve_detail(run: dict) -> dict:
    return {
        "build_s": run["builds"],
        "run_s": [rep["run_ref_s"] for rep in run["reps"]],
        "raw_build_s": [rep["build_s"] for rep in run["reps"]],
        "raw_run_s": [rep["run_s"] for rep in run["reps"]],
    }
