"""Engine registry: select a round engine by name.

Three engines share one behavioural contract (every digest the
:mod:`repro.core.digest` authority computes must be byte-identical
across them):

- ``reference`` — the historical full-scan object engine
  (:class:`~repro.core.simulator.Simulator` with ``incremental=False``);
- ``incremental`` — the object engine's hot path: index-diffed
  reconfiguration, sparse execution (``incremental=True``);
- ``array`` — the structure-of-arrays engine
  (:class:`~repro.core.array_engine.ArraySimulator`): numpy deadline
  buckets, batch phase kernels.

The CLI, the perf harness, and the serve layer resolve engines through
this module, so a new engine only needs a registry entry to become
selectable everywhere.  :func:`resolve_engine` also maps the legacy
``incremental`` boolean (kept for wire/back compatibility on the serve
surfaces) onto an engine name.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.request import Instance
from repro.core.simulator import Policy, Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.array_engine import ArraySimulator
    from repro.telemetry.recorder import Recorder

__all__ = [
    "AUTO_ARRAY_MIN_RESOURCES",
    "ENGINES",
    "auto_engine",
    "engine_of",
    "make_simulator",
    "resolve_engine",
]

#: Every selectable engine, in documentation order.
ENGINES: tuple[str, ...] = ("reference", "incremental", "array")

#: Resource count at which ``auto`` switches from ``incremental`` to
#: ``array``.  BENCH_perf.json puts the crossover between n=128 (array
#: 1.10× vs incremental 1.46× over reference — numpy call overhead still
#: dominates) and n=1024 (array 1.52× vs 1.51×, pulling decisively ahead
#: by n=16384 at ~14×); the pin test in tests/core guards this value.
AUTO_ARRAY_MIN_RESOURCES = 1024


def auto_engine(n: int) -> str:
    """The ``--engine auto`` heuristic: the best engine for ``n`` resources.

    Returns ``"incremental"`` below :data:`AUTO_ARRAY_MIN_RESOURCES` and
    ``"array"`` at or above it.  Purely a function of the resource count —
    the workload shape moves the crossover far less than ``n`` does — so
    callers can resolve it before building anything.
    """
    return "array" if n >= AUTO_ARRAY_MIN_RESOURCES else "incremental"


def resolve_engine(
    engine: str | None = None, *, incremental: bool | None = None
) -> str:
    """Normalize an engine selection to a registry name or ``"auto"``.

    ``engine`` wins when given; otherwise the legacy ``incremental``
    boolean maps to ``"incremental"``/``"reference"``; with neither, the
    default engine is ``"incremental"`` (matching ``Simulator``'s
    default).  ``"auto"`` passes through unchanged: only the code that
    builds a simulator knows its resource count, and
    :func:`make_simulator` resolves ``auto`` there.
    """
    if engine is None:
        if incremental is None or incremental:
            return "incremental"
        return "reference"
    if engine != "auto" and engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {list(ENGINES)}"
        )
    return engine


def make_simulator(
    instance: Instance,
    policy: Policy,
    n: int,
    *,
    engine: str = "incremental",
    speed: int = 1,
    record_events: bool = True,
    telemetry: "Recorder | None" = None,
) -> "Simulator | ArraySimulator":
    """Build the named engine's simulator over ``instance``.

    ``engine="auto"`` resolves through :func:`auto_engine` on ``n``.
    """
    if engine == "auto":
        engine = auto_engine(n)
    engine = resolve_engine(engine)
    if engine == "array":
        from repro.core.array_engine import ArraySimulator

        return ArraySimulator(
            instance,
            policy,
            n,
            speed=speed,
            record_events=record_events,
            telemetry=telemetry,
        )
    return Simulator(
        instance,
        policy,
        n,
        speed=speed,
        record_events=record_events,
        incremental=engine == "incremental",
        telemetry=telemetry,
    )


def engine_of(sim: object) -> str:
    """The registry name of a live simulator (for labels and trace headers)."""
    name = getattr(sim, "engine", None)
    if isinstance(name, str):
        return name
    return "incremental" if getattr(sim, "incremental", True) else "reference"
