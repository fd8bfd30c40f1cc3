"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  Everything else a run leaves behind goes under
``perfbench/out/``.  See ``perfbench/README.md`` for the workloads, the
metrics and the seeds.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import Context, host_probe  # noqa: E402

def _workloads():
    import bench_batch
    import bench_serve

    return {
        "serve-light": lambda ctx: bench_serve.workload(ctx, bench_serve.light_spec),
        "serve-durable": lambda ctx: bench_serve.workload(ctx, bench_serve.durable_spec),
        "offline-batch": bench_batch.offline_batch,
        "solve-wide": bench_batch.solve_wide,
    }


WORKLOAD_NAMES = ("serve-light", "serve-durable", "offline-batch", "solve-wide")


def _check_counts(ctx: Context, workload: str, counts: dict) -> str | None:
    """Exact counts must repeat across runs of one seed and size."""
    store = ctx.out.parent / "counts" / f"{workload}-seed{ctx.seed}-t{ctx.seconds}.json"
    store.parent.mkdir(parents=True, exist_ok=True)
    if store.exists():
        prior = json.loads(store.read_text())
        if prior != counts:
            return f"exact counts differ from an earlier run of this seed: {prior} != {counts}"
        return None
    store.write_text(json.dumps(counts, sort_keys=True))
    return None


def main() -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no repro sources under ./src; run it from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    # BENCHMARK.json names every metric and its unit.
    spec = json.loads((root / "BENCHMARK.json").read_text())
    metric_set = spec["per_layer"] if args.trace else spec["end_to_end"]
    out = root / "perfbench" / "out" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(time.time() * 1e3)}"
    )
    out.mkdir(parents=True)
    ctx = Context(root=root, out=out, seed=args.seed, seconds=args.seconds,
                  trace=bool(args.trace))
    probe_before = host_probe()
    try:
        ctx.start_sampler()
        result = _workloads()[args.workload](ctx)
    finally:
        ctx.stop_all()
    probe_after = host_probe()

    problems = list(result["problems"])
    mismatch = _check_counts(ctx, args.workload, result["counts"])
    if mismatch:
        problems.append(mismatch)
    correct = not problems
    attempted = result["attempted"]
    failed = attempted if not correct else result["failed"]
    if args.trace:
        values = {m["name"]: result["layers"].get(m["name"], 0.0) for m in metric_set}
    else:
        values = {m["name"]: result[m["name"]] for m in metric_set}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in metric_set}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host_probe_s": [probe_before, probe_after],
        "problems": problems, "attempted": attempted, "failed": failed,
        "counts": result["counts"], "detail": result.get("detail", {}),
        "metrics": metrics,
    }
    with open(out.parent / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    for problem in problems:
        print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
    print(f"perfbench: host probe {probe_before:.4f}s before, "
          f"{probe_after:.4f}s after", file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
