"""LFU — evict the least-frequently-used resident page.

Frequency counts persist across evictions ("perfect LFU"), with FIFO
tie-breaking among equal counts via the addressable heap's insertion
counter.  An in-cache-only variant is available via
``reset_counts_on_evict=True``.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict

from repro.sim.policy import EvictionPolicy, SimContext
from repro.util.heap import AddressableHeap


class LFUPolicy(EvictionPolicy):
    """Least-frequently-used eviction.

    Parameters
    ----------
    reset_counts_on_evict:
        If True, a page's frequency history is forgotten when it is
        evicted (in-cache LFU); if False (default), counts accumulate
        over the whole trace (perfect LFU).
    """

    name = "lfu"

    def __init__(self, reset_counts_on_evict: bool = False) -> None:
        self.reset_counts_on_evict = reset_counts_on_evict
        self._heap: AddressableHeap[int] = AddressableHeap()
        self._counts: Dict[int, int] = {}

    def reset(self, ctx: SimContext) -> None:
        self._heap = AddressableHeap()
        self._counts = {}

    def on_hit(self, page: int, t: int) -> None:
        self._counts[page] = self._counts.get(page, 0) + 1
        self._heap.update(page, self._counts[page])

    def on_hit_batch(self, pages, ts) -> None:
        # One bump of `count` replaces `count` bumps of one; the heap
        # sees only the final key either way (no pops within a run).
        counts = self._counts
        update = self._heap.update
        for page, bump in Counter(pages).items():
            new = counts.get(page, 0) + bump
            counts[page] = new
            update(page, new)

    def on_insert(self, page: int, t: int) -> None:
        self._counts[page] = self._counts.get(page, 0) + 1
        self._heap.push(page, self._counts[page])

    def choose_victim(self, page: int, t: int) -> int:
        item, _ = self._heap.peek()
        return item

    def on_evict(self, page: int, t: int) -> None:
        self._heap.remove(page)
        if self.reset_counts_on_evict:
            del self._counts[page]


__all__ = ["LFUPolicy"]
