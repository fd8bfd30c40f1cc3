"""Host-speed sampler: times a fixed unit of pure-Python work, 20 times a second.

    python3 perfbench/sampler.py <out>

Appends one ``<end> <cpu seconds>`` line per unit to ``<out>`` and
flushes it, so the file can be read while the sampler runs.  ``<end>``
is a ``time.perf_counter`` stamp (CLOCK_MONOTONIC, shared by every
process on Linux).  The unit is timed in thread CPU time, so time the
sampler spends preempted by the measured processes does not count; what
is left moves with the host's speed.  It runs until it is terminated.
At about 3 ms of work every 50 ms it takes a few percent of one CPU.
"""

import sys
import time

UNIT_ITERATIONS = 20_000
PERIOD_S = 0.05


def unit() -> int:
    acc = 0
    table = {}
    for i in range(UNIT_ITERATIONS):
        acc += i * i % 7
        table[i & 1023] = i
    return acc


def main() -> int:
    perf = time.perf_counter
    cpu = time.thread_time
    with open(sys.argv[1], "a", encoding="utf-8") as out:
        while True:
            t0 = perf()
            c0 = cpu()
            unit()
            c1 = cpu()
            t1 = perf()
            out.write(f"{t1!r} {c1 - c0!r}\n")
            out.flush()
            time.sleep(max(0.0, PERIOD_S - (t1 - t0)))


if __name__ == "__main__":
    sys.exit(main())
