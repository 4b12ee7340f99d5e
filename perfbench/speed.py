"""Machine-speed reference, for times that hold steady on a shared machine.

On a shared 2-core machine the speed of the same Python code drifts by up
to 2x over minutes as neighbours load the host; steal time stays near 0,
so the slowdown is in the core itself.  The benchmark therefore runs a
fixed pure-Python kernel between operations and reports each time scaled
to a machine on which that kernel takes its `NOMINAL` time:

    reported = wall * nominal / kernel time measured around the operation

The raw wall times are printed beside the scaled ones.  The in-process
kernel does the kind of work the package does (big-integer row operations
in list comprehensions), so contention slows it as it slows the package;
single operations still scatter, but medians over a run hold within a few
percent where raw times drift by 20% and more.  Interpreter start and
imports are slowed differently, so set-up and the subprocess operations of
the `cli` workload are scaled by a second kernel: a fresh interpreter that
imports a fixed set of standard-library modules.  (It also tracks the
model build inside a large `classgroup` call better than the in-process
kernel does.)
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
from time import perf_counter

# Nominal seconds of each kernel: "cpu" is `reference`, "spawn" is
# `spawn_reference`.
NOMINAL = {"cpu": 0.0075, "spawn": 0.1}
SPAWN_CODE = ("import argparse, asyncio, dataclasses, decimal, email.message, fractions, "
              "json, typing, unittest")
# Reference samples within this many seconds of an operation set its scale.
WINDOW_S = 1.0


def _kernel() -> int:
    """Fraction-free row elimination on 40 x 40 integers of about 255 bits."""
    n, m = 40, 2**255 - 19
    rows = [[pow(i * 7919 + j * 104729 + 3, 5, m) for j in range(n)] for i in range(n)]
    for t in range(n - 1):
        piv = rows[t]
        p = piv[t] or 1
        for i in range(t + 1, n):
            q = rows[i][t]
            rows[i] = [(x * p - q * y) % m for x, y in zip(rows[i], piv)]
    return rows[-1][-1]


def reference() -> tuple[float, float]:
    """Median of 3 runs of the in-process kernel; returns (start time, seconds)."""
    start = perf_counter()
    times = []
    for _ in range(3):
        t = perf_counter()
        _kernel()
        times.append(perf_counter() - t)
    return start, statistics.median(times)


def spawn_reference(env: dict) -> tuple[float, float]:
    """Run the interpreter-start kernel once; returns (start time, seconds)."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", SPAWN_CODE], env=env, check=True)
    return start, perf_counter() - start


def scale_at(samples: list[tuple[float, float]], start: float, end: float,
             nominal: float) -> float:
    """nominal over the median kernel time around [start, end].

    Uses the samples within WINDOW_S of the interval, and always the
    nearest sample on each side.
    """
    times = [t for t, _ in samples]
    lo = bisect.bisect_left(times, start - WINDOW_S)
    hi = bisect.bisect_right(times, end + WINDOW_S)
    before = max(bisect.bisect_right(times, start) - 1, 0)
    after = min(bisect.bisect_left(times, end), len(samples) - 1)
    picked = samples[min(lo, before):max(hi, after + 1)]
    return nominal / statistics.median(d for _, d in picked)
