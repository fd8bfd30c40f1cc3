"""Shared helpers: paths, child environment, quantiles, /proc readers."""

from __future__ import annotations

import math
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
LAUNCH = HERE / "launch.py"
SAMPLER = HERE / "sampler.py"

#: CPU seconds one sampler unit takes when the 2-vCPU host the benchmark
#: was sized on runs at its usual fast speed; reported times are scaled
#: to it.
REF_UNIT_S = 0.0025
#: an interval with fewer samples inside borrows the nearest ones.
MIN_SAMPLES = 5

#: a tick slower than one timer-clock round (the server's default
#: --round-interval) would make a timer-clock server miss that round;
#: serve runs report the share of such ticks (serve.client.slow_tick_share).
TICK_LIMIT_S = 0.05


@dataclass
class Context:
    """One benchmark invocation: where it runs and what it was asked."""

    root: Path
    out: Path
    seed: int
    seconds: int
    trace: bool
    children: list = field(default_factory=list)

    def env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        # set iteration order (and so timing) must not vary between runs
        env["PYTHONHASHSEED"] = "0"
        env["REPRO_CACHE_DIR"] = str(self.out / "cache")
        return env

    def spawn(self, argv: list[str], cwd: Path, log: Path) -> subprocess.Popen:
        """Start ``python3 perfbench/launch.py <argv>``; stdout is discarded."""
        with open(log, "ab") as err:
            proc = subprocess.Popen(
                [sys.executable, str(LAUNCH), *argv],
                cwd=str(cwd),
                env=self.env(),
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=err,
            )
        self.children.append(proc)
        return proc

    def start_sampler(self) -> None:
        """Start ``sampler.py``; ``stop_all`` ends it with the others."""
        self.children.append(subprocess.Popen(
            [sys.executable, str(SAMPLER), str(self.out / "host-speed.txt")],
            cwd=str(self.out),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
        ))

    def host_speed(self) -> "HostSpeed":
        """The sampler's units so far."""
        samples = []
        path = self.out / "host-speed.txt"
        for line in path.read_text().splitlines() if path.exists() else ():
            parts = line.split()
            if len(parts) == 2:  # a line cut short by termination is skipped
                samples.append((float(parts[0]), float(parts[1])))
        return HostSpeed(samples)

    def stop_all(self) -> None:
        for proc in self.children:
            stop(proc)


class HostSpeed:
    """How fast the host ran during an interval, from the sampler's units.

    The host the benchmark was sized on speeds up and slows down by up to
    2x, within seconds and for minutes at a time, and a run's CPU time
    moves with it (it is the host, not waiting).  A reported time is the measured time scaled by
    ``factor``, the reference unit time over the mean CPU time of the
    units that ended during that interval: the time the same work would
    take with the host at its reference speed.
    """

    def __init__(self, samples: list[tuple[float, float]]):
        self.samples = sorted(samples)

    def factor(self, start: float, end: float) -> float:
        inside = [sec for at, sec in self.samples if start <= at <= end]
        if len(inside) < MIN_SAMPLES:
            mid = (start + end) / 2
            nearest = sorted(self.samples, key=lambda sample: abs(sample[0] - mid))
            inside = [sec for _, sec in nearest[:MIN_SAMPLES]]
        if not inside:
            raise RuntimeError("the host-speed sampler recorded nothing")
        return REF_UNIT_S * len(inside) / sum(inside)

    def scaled(self, start: float, seconds: float) -> float:
        """``seconds`` measured from ``start``, at the reference host speed."""
        return seconds * self.factor(start, start + seconds)


def stop(proc: subprocess.Popen, timeout: float = 30.0) -> int:
    """SIGTERM (then SIGKILL) a child and wait until it has ended."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    return proc.returncode


def quantile(samples, q: float) -> float:
    """Nearest-rank q-quantile (the convention of repro.telemetry.quantiles)."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def proc_cpu_s(pid: int) -> float:
    """utime + stime of a live process, in seconds."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def proc_status(pid: int) -> dict[str, int]:
    """The numeric ``/proc/<pid>/status`` fields (kB for memory)."""
    status = {}
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        key, _, value = line.partition(":")
        parts = value.split()
        if parts and parts[0].isdigit():
            status[key] = int(parts[0])
    return status


def host_probe() -> float:
    """Seconds a fixed pure-Python loop takes: a record of host speed at
    the time of a run, never a metric."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - t0
