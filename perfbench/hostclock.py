"""Time a step in seconds of an undisturbed host.

On a shared host this process runs up to 1.5 times slower for seconds at a
time while its neighbours load the machine.  The slowdown is uniform (no
gaps where the process is descheduled, and CPU time slows as much as wall
time), so it moves every timing with it, by more than a regression bound.

The clock measures the host's speed while the step runs: a timer
interrupts the step every TICK_S and times a fixed probe of pure-Python
work that uses no flowident code, and one more probe runs just before and
just after the step.  The step's time is its elapsed time minus the
probes' own time, scaled by NOMINAL_PROBE_S over the probes' mean time, so
it reads as seconds on a quiet host.  A change to flowident moves the step
and not the probe, so it shows in full.

The probe mixes a tight arithmetic loop with parsing and grouping short
text records, as flowident's own code does: in 60 interleaved samples of
each CLI step, normalising by either half alone left some steps spreading
up to twice as much as by both.
"""

from __future__ import annotations

import signal
from statistics import mean
from time import perf_counter
from typing import Callable, TypeVar

T = TypeVar("T")

TICK_S = 0.025
PROBE_LOOPS = 2000
PROBE_RECORDS = 130
# Seconds of one probe on the machine the baseline was measured on (2 vCPU
# of an Intel Xeon at 2.1 GHz, Python 3.11.7) while the host was quiet: the
# fastest tenth of probes over 20 s.  Loaded, a probe took up to 0.6 ms.
NOMINAL_PROBE_S = 0.00033


def probe() -> float:
    """Seconds of a fixed amount of interpreter work (about 0.5 ms)."""
    start = perf_counter()
    total, table = 0, {}
    for i in range(PROBE_LOOPS):
        total += i * i % 7
        table[i & 255] = total
    groups: dict[str, list] = {}
    for i in range(PROBE_RECORDS):
        a, b, c, key = f"{i},{i * 0.37:.4f},{i % 7},k{i % 13}".split(",")
        groups.setdefault(key, []).append((int(a), float(b), int(c)))
    sum(b for rows in groups.values() for _, b, _ in rows)
    return perf_counter() - start


def wall_time(fn: Callable[[], T]) -> tuple[float, T]:
    """Plain elapsed seconds of ``fn()`` and its result."""
    start = perf_counter()
    result = fn()
    return perf_counter() - start, result


def steady_time(fn: Callable[[], T]) -> tuple[float, T]:
    """Seconds ``fn()`` takes at the host's nominal speed, and its result."""
    ticks: list[tuple[float, float]] = []  # (start, seconds) of each probe inside the step

    def tick(signum, frame) -> None:
        start = perf_counter()
        ticks.append((start, probe()))

    before = probe()
    previous = signal.signal(signal.SIGALRM, tick)
    start = perf_counter()
    signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
    try:
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = perf_counter()
        signal.signal(signal.SIGALRM, previous)
    inside = [seconds for at, seconds in ticks if at < end]
    probes = [before, *inside, probe()]
    return (end - start - sum(inside)) * NOMINAL_PROBE_S / mean(probes), result
