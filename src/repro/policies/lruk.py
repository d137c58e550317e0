"""LRU-K (O'Neil, O'Neil & Weikum [16, 17]).

The database-buffering policy the paper's introduction cites as the
deployed state of practice ("Variants of the LRU algorithm, such as
LRU-K, have been employed for many shared-memory systems, however they
treat all users equally").

Eviction rule: remove the resident page whose K-th most recent
reference is oldest (maximum *backward K-distance*).  Pages with fewer
than K references have infinite backward K-distance and are evicted
first, ordered by their least-recent last reference, which is the
standard tie-break.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict

from repro.sim.policy import EvictionPolicy, SimContext
from repro.util.heap import AddressableHeap
from repro.util.validation import check_positive_int

#: Pages with < K references sort before any page with K references.
#: Encoded by offsetting fully-referenced pages far above the reachable
#: timestamp range.
_FULL_HISTORY_OFFSET = 2**40


class LRUKPolicy(EvictionPolicy):
    """LRU-K eviction with retained (out-of-cache) reference history.

    Parameters
    ----------
    k_history:
        The K in LRU-K (2 is the classic database choice).
    retain_history:
        Keep a page's reference history after eviction (the paper's
        LRU-K retains history for a while; we model full retention —
        the variant most favourable to LRU-K).
    """

    name = "lru-k"

    def __init__(self, k_history: int = 2, retain_history: bool = True) -> None:
        self.k_history = check_positive_int(k_history, "k_history")
        self.retain_history = retain_history
        self._history: Dict[int, Deque[int]] = {}
        self._heap: AddressableHeap[int] = AddressableHeap()

    def reset(self, ctx: SimContext) -> None:
        self._history = {}
        self._heap = AddressableHeap()

    # ------------------------------------------------------------------
    def _key(self, page: int) -> float:
        """Min-heap key: smaller = evict sooner.

        With < K references: ``last_ref`` (ancient pages first).
        With K references: ``OFFSET + kth_most_recent`` so every fully-
        referenced page outranks every short-history page, and among
        them the oldest K-th reference is evicted first.
        """
        hist = self._history[page]
        if len(hist) < self.k_history:
            return float(hist[-1])
        return float(_FULL_HISTORY_OFFSET + hist[0])

    def _touch(self, page: int, t: int) -> None:
        hist = self._history.get(page)
        if hist is None:
            hist = deque(maxlen=self.k_history)
            self._history[page] = hist
        hist.append(t)

    # ------------------------------------------------------------------
    def on_hit(self, page: int, t: int) -> None:
        self._touch(page, t)
        self._heap.update(page, self._key(page))

    def on_hit_batch(self, pages, ts) -> None:
        # Group each page's hit times; the bounded deque keeps only the
        # last K of them, and the heap only sees the final key.
        times: Dict[int, list] = {}
        for page, t in zip(pages, ts):
            times.setdefault(page, []).append(t)
        K = self.k_history
        history = self._history
        update = self._heap.update
        key = self._key
        for page, hits in times.items():
            hist = history.get(page)
            if hist is None:
                hist = deque(maxlen=K)
                history[page] = hist
            hist.extend(hits[-K:])
            update(page, key(page))

    def on_insert(self, page: int, t: int) -> None:
        self._touch(page, t)
        self._heap.push(page, self._key(page))

    def choose_victim(self, page: int, t: int) -> int:
        item, _ = self._heap.peek()
        return item

    def on_evict(self, page: int, t: int) -> None:
        self._heap.remove(page)
        if not self.retain_history:
            self._history.pop(page, None)


__all__ = ["LRUKPolicy"]
