"""Machine-speed calibration for the edcalc benchmark.

On a shared host the speed of a vCPU can swing by tens of percent within a
second and drift as much from one minute to the next.  A run therefore times a
fixed reference task, independent of the package, between its ops, and scales
every op time by the task's reference time over the task time measured next to
it.  In-process ops are scaled by a pure-Python kernel; process ops and set-up
by a bare interpreter start (``python -c pass``), because process start slows
down differently from Python code.  The scaled times read as milliseconds on a
host where the kernel takes ``REF_KERNEL_S`` and a bare start takes
``REF_START_S``; a 2-vCPU x86-64 cloud VM with CPython 3.11 gives about that in
a quiet minute, so scaled and wall-clock figures are close there.  A slower or
faster program still moves the scaled figures; a slower or faster host moves
them far less.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from time import perf_counter

REF_KERNEL_S = 1.7e-3
REF_START_S = 40e-3
NEIGHBOURS = 1  # samples on each side of an op that set its local speed


def kernel() -> int:
    """Fixed work in the package's idiom: int bit tricks, a keyed sort, GF(2) elimination.

    It allocates almost nothing the garbage collector tracks, so a sample
    taken between ops leaves the collector's schedule, and so the memory and
    time of the ops around it, as they would be without it.
    """
    weights = [0] * 2048
    for x in range(1, 2048):
        w = 0
        y = x
        while y:
            low = y & -y
            w += low.bit_length()
            y ^= low
        weights[x] = w
    order = sorted(range(2048), key=weights.__getitem__)
    echelon: list[int] = []
    for r in order[:300]:
        for b in echelon:
            r = min(r, r ^ b)
        if r:
            echelon.append(r)
            echelon.sort(reverse=True)
    return len(echelon)


def time_kernel() -> float:
    """Seconds one kernel run takes now."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def time_start(env: dict | None = None) -> float:
    """Seconds a bare interpreter takes now from spawn to exit.

    Output is captured as the cli ops capture theirs: without pipes,
    ``subprocess`` polls for the exit of a process with a timeout at up to
    50 ms intervals, which would round the sample up by as much.
    """
    t0 = perf_counter()
    cmd = [sys.executable, "-c", "pass"]
    subprocess.run(cmd, env=env, capture_output=True, check=True, timeout=30)
    return perf_counter() - t0


def speed_scale(samples: list[float], ref_s: float) -> float:
    """Factor that turns seconds measured next to these samples into reference seconds."""
    return ref_s / statistics.median(samples)


def scale_times(times: list[float], marks: list[int], samples: list[float], ref_s: float) -> list[float]:
    """Scale each op time by the calibration samples around it.

    ``marks[i]`` is the number of samples taken before op ``i``; the op is
    scaled by the median of the ``NEIGHBOURS`` samples before it and the
    ``NEIGHBOURS`` after it.  The samples nearest in time track the host best:
    its speed can change within the second a long op takes.
    """
    return [
        dt * speed_scale(samples[max(0, k - NEIGHBOURS) : k + NEIGHBOURS], ref_s)
        for dt, k in zip(times, marks)
    ]
