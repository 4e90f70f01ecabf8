"""Host speed, for reporting times at a fixed reference speed.

On a shared machine the CPU speed a process gets drifts by a quarter or more
within minutes, and it moves every job's time with it. The benchmark times a
fixed calibration step every few tens of milliseconds between jobs and scales
each job's time by REFERENCE_S / (the step's mean time around that job): a
job that takes 0.30 s while the step takes 1.8 ms is reported as 0.25 s. The
step is half a pure-Python loop and half numpy table lookups, the two kinds
of work the workloads do, because contention slows them by different amounts.
The mean, not the best, follows the share of the processor the job really
got. The scaled values are what the end-to-end metrics report; the raw ones
are printed next to them. Nothing in flpdl runs inside the step, so a change
to flpdl moves the scaled times exactly as it moves the raw ones.
"""

from time import perf_counter

LOOPS = 10000
LOOKUPS = 10
REFERENCE_S = 1.5e-3    # the step's usual time on the 2-core host the bounds were set on


def calibrate() -> float:
    """One timing of the fixed calibration step, in seconds."""
    import numpy   # here, not above: the workload process times its import of flpdl first

    table, index = (numpy.arange(64).reshape(8, 8) * 5) % 8, numpy.arange(16384) % 8
    started = perf_counter()
    acc = 0
    for i in range(LOOPS):
        acc += i * i % 7
    cells = index
    for _ in range(LOOKUPS):
        cells = table[cells, index]
    return perf_counter() - started


def around(samples, start: float, end: float, margin: float = 0.2) -> float:
    """Mean step time of the [time, seconds] samples within margin of [start, end];
    the nearest sample when none is."""
    near = [loop for t, loop in samples if start - margin <= t <= end + margin]
    if near:
        return sum(near) / len(near)
    return min(samples, key=lambda s: min(abs(s[0] - start), abs(s[0] - end)))[1]
