"""The machine-speed reference end-to-end timings are scaled by.

The benchmark was built on a shared 2-vCPU VM whose speed drifts: the
same CPU-bound Python loop takes anywhere from 1.0x to 2x its best time,
from one pass to the next and in waves that outlast a whole run, and
its CPU time moves as much as its wall time, so stolen time does not
explain it.  Left raw, ten runs of one workload spread by 0.12-0.31 of
their median, and a ten-run median moved by 45% between hours.

So a measuring process also times :func:`reference_loop` — a fixed
pure-Python loop that calls nothing of the program — right next to the
work it measures, in the same process and so on the same vCPU.  A
timing taken while the loop ran in ``cal`` CPU seconds is reported as
``timing * REF_S / cal``: what it would have been had the machine run
the loop in exactly :data:`REF_S`.  In a 10-minute trace of the sim and
net workloads this cut the interquartile range of 8-second medians from
0.13-0.20 to 0.04-0.08 of the median, and the drift between the two
halves of the trace from 8-13% to about 1%.  The report prints the raw
values beside the scaled ones.

The loop is not the program, so a change to the program moves the
program's timings and leaves the reference where it was.
"""

from __future__ import annotations

import gc
from time import process_time
from typing import List, Sequence

#: Iterations of the reference loop: 8-15 ms on the VM above.
REF_ITERS = 50_000

#: The reference loop's CPU time on the reference machine, in seconds:
#: about what it takes on the VM above when the VM runs fast.
REF_S = 0.010


def reference_loop(n: int = REF_ITERS) -> int:
    """Dict stores and lookups on small ints: interpreter-bound work of
    the kind the program's policies and engines do."""
    table: dict = {}
    acc = 0
    for i in range(n):
        table[i & 1023] = i
        acc += table.get((i * 7) & 1023, 0)
    return acc


def calibrate() -> float:
    """CPU seconds one :func:`reference_loop` takes here, now.  CPU time
    rather than wall time, so time the hypervisor gave to other guests
    does not count; the collector is paused so it cannot land inside."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = process_time()
        reference_loop()
        return process_time() - t0
    finally:
        if enabled:
            gc.enable()


def factor(before: float, after: float) -> float:
    """Scale factor of a timing taken between the reference times
    *before* and *after*: :data:`REF_S` over their mean."""
    return 2.0 * REF_S / (before + after)


def scaled(times: Sequence[float], cal: Sequence[float]) -> List[float]:
    """*times* at reference speed, ``times[i]`` having been taken
    between the reference times ``cal[i]`` and ``cal[i + 1]``."""
    if len(cal) != len(times) + 1:
        raise ValueError(f"{len(times)} timings need {len(times) + 1} reference times")
    return [t * factor(cal[i], cal[i + 1]) for i, t in enumerate(times)]
