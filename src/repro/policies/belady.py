"""Belady's MIN / OPT — offline furthest-in-future eviction.

For the classical single-tenant objective (minimise total misses, i.e.
all :math:`f_i` linear with equal weights) Belady's rule is *exactly*
optimal, so it serves as the OPT denominator in the linear-cost
experiments and as an upper bound on OPT's quality elsewhere (any
feasible offline schedule upper-bounds the optimum's cost).

Requires the full trace (``requires_future = True``); the next-use
oracle is the backward pass in :meth:`repro.sim.trace.Trace.next_use_table`.
"""

from __future__ import annotations

from typing import Dict

from repro.sim.policy import EvictionPolicy, SimContext
from repro.util.heap import AddressableHeap


class BeladyPolicy(EvictionPolicy):
    """Evict the resident page whose next request is furthest in the future.

    Pages never requested again all have next-use :math:`T` and are
    evicted first; their keys tie at :math:`-T`, so the heap's
    insertion order breaks the tie: the one fetched earliest goes first.
    """

    name = "belady"
    requires_future = True

    def __init__(self) -> None:
        self._next_use_at: Dict[int, int] = {}
        self._heap: AddressableHeap[int] = AddressableHeap()
        self._table = None
        self._T = 0

    def reset(self, ctx: SimContext) -> None:
        if ctx.trace is None:
            raise ValueError("BeladyPolicy requires the trace (offline policy)")
        self._table = ctx.trace.next_use_table()
        self._T = ctx.trace.length
        self._heap = AddressableHeap()

    def _key(self, t: int) -> float:
        """Max-heap via negation: furthest next use pops first."""
        return -float(self._table[t])

    def on_hit(self, page: int, t: int) -> None:
        self._heap.update(page, self._key(t))

    def on_hit_batch(self, pages, ts) -> None:
        # Only a page's last occurrence in the run determines its final
        # next-use key (no pops happen between hits).
        last = dict(zip(pages, ts))
        update = self._heap.update
        key = self._key
        for page, tp in last.items():
            update(page, key(tp))

    def on_insert(self, page: int, t: int) -> None:
        self._heap.push(page, self._key(t))

    def choose_victim(self, page: int, t: int) -> int:
        item, _ = self._heap.peek()
        return item

    def on_evict(self, page: int, t: int) -> None:
        self._heap.remove(page)


__all__ = ["BeladyPolicy"]
