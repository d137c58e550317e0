"""Per-layer timing taken from outside the program.

The traced run wraps calls into each layer's public functions — policy
methods, ``TraceReader.batches``, ``CacheServer.request_many`` and the
like — from the benchmark's own files; the program gets no new spans.
Each wrapped name accumulates ``[seconds, calls, items]`` in memory,
and the owner writes the totals out when its run ends.

A layer's time is reported as its busy share of the measured window
(:func:`pct`); the window itself is reported as ``trace.window_s``, so
share times window gives the seconds back.  A layer that a workload
never enters reads 0%.  A layer's self time is its own time minus the
time of the layers it calls.
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Callable, Dict, List, Tuple

#: Policy hooks timed per instance.
POLICY_HOOKS = ("choose_victim", "on_hit_batch", "on_hit", "on_insert", "on_evict")


class Spans:
    """In-memory per-layer totals: ``name -> [seconds, calls, items]``."""

    def __init__(self) -> None:
        self.acc: Dict[str, List[float]] = {}

    def _slot(self, name: str) -> List[float]:
        return self.acc.setdefault(name, [0.0, 0, 0])

    def wrap(self, name: str, fn: Callable, count_items: bool = False) -> Callable:
        """Time every call of *fn*; with *count_items* also add up the
        length of its first argument (the pages of a batch call)."""
        acc = self._slot(name)
        clock = perf_counter

        if count_items:
            def timed_items(*args, **kwargs):
                t0 = clock()
                out = fn(*args, **kwargs)
                acc[0] += clock() - t0
                acc[1] += 1
                acc[2] += len(args[0])
                return out

            return timed_items

        def timed(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            acc[0] += clock() - t0
            acc[1] += 1
            return out

        return timed

    def wrap_async(self, name: str, fn: Callable) -> Callable:
        """Time a coroutine function from call to completion."""
        acc = self._slot(name)
        clock = perf_counter

        async def timed(*args, **kwargs):
            t0 = clock()
            out = await fn(*args, **kwargs)
            acc[0] += clock() - t0
            acc[1] += 1
            return out

        return timed

    def wrap_iter(self, name: str, fn: Callable) -> Callable:
        """Time each ``next()`` of the iterator *fn* returns; calls
        count the items yielded."""
        acc = self._slot(name)
        clock = perf_counter

        def timed(*args, **kwargs):
            t0 = clock()
            it = iter(fn(*args, **kwargs))
            acc[0] += clock() - t0
            while True:
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    acc[0] += clock() - t0
                    return
                acc[0] += clock() - t0
                acc[1] += 1
                yield item

        return timed

    def wrap_policy(self, policy) -> None:
        """Time the engine-facing hooks of one policy instance."""
        for hook in POLICY_HOOKS:
            setattr(
                policy, hook,
                self.wrap(f"policy.{hook}", getattr(policy, hook),
                          count_items=hook == "on_hit_batch"),
            )

    def reset(self) -> None:
        """Zero every total in place (the wrappers hold the lists), so
        the totals cover only what runs from here on."""
        for slot in self.acc.values():
            slot[:] = [0.0, 0, 0]

    def seconds(self, name: str) -> float:
        return float(self.acc.get(name, (0.0,))[0])

    def calls(self, name: str) -> int:
        return int(self.acc.get(name, (0.0, 0))[1])

    def items(self, name: str) -> int:
        return int(self.acc.get(name, (0.0, 0, 0))[2])

    def policy_metrics(self, window: float) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for hook in POLICY_HOOKS:
            out[f"policy.{hook}.pct"] = pct(self.seconds(f"policy.{hook}"), window)
            out[f"policy.{hook}.calls"] = self.calls(f"policy.{hook}")
        return out

    def policy_seconds(self) -> float:
        return sum(self.seconds(f"policy.{hook}") for hook in POLICY_HOOKS)


def pct(seconds: float, window: float) -> float:
    """*seconds* of busy time as a share of a *window*-second run, in %."""
    return 100.0 * seconds / window if window > 0 else 0.0


def host_ticks() -> Tuple[int, int]:
    """``(steal, total)`` jiffies of the whole machine from ``/proc/stat``:
    steal is the time a hypervisor ran other guests on this VM's CPUs."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = [int(x) for x in fh.readline().split()[1:9]]
    return fields[7], sum(fields)


def steal_pct(before: Tuple[int, int], after: Tuple[int, int]) -> float:
    """Share of the machine's CPU time stolen between two readings."""
    return 100.0 * (after[0] - before[0]) / max(1, after[1] - before[1])


def proc_usage(pid: int) -> Dict[str, float]:
    """CPU seconds (user + system) and peak resident set (VmHWM, MB) of
    a live process, read from ``/proc``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    cpu = (int(fields[11]) + int(fields[12])) / ticks
    hwm = 0.0
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                hwm = int(line.split()[1]) / 1024.0
                break
    return {"cpu_s": cpu, "hwm_mb": hwm}
