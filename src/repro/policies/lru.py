"""Recency-based policies: LRU and MRU.

LRU is the classical :math:`k`-competitive algorithm of Sleator–Tarjan
[19] for the single-tenant linear objective; the paper's related-work
section positions it (and its variants) as the cost-blind baseline that
"treats all users equally".

Both policies keep the recency order in an :class:`~collections.OrderedDict`
rather than a hand-rolled linked list: ``move_to_end`` / ``popitem`` are
C-implemented, which matters because LRU is the baseline every
throughput experiment (E9, E14) compares against.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.sim.policy import EvictionPolicy, SimContext


class LRUPolicy(EvictionPolicy):
    """Evict the least-recently-used resident page."""

    name = "lru"

    def __init__(self) -> None:
        self._order: "OrderedDict[int, None]" = OrderedDict()

    def reset(self, ctx: SimContext) -> None:
        self._order = OrderedDict()

    def on_hit(self, page: int, t: int) -> None:
        self._order.move_to_end(page)

    def on_hit_batch(self, pages, ts) -> None:
        # The recency order after a run depends only on the order of
        # each page's last occurrence, so move each distinct page once.
        # For tiny runs the dedupe costs more than the moves it saves.
        move = self._order.move_to_end
        if len(pages) <= 8:
            for page in pages:
                move(page)
        else:
            for page in reversed(dict.fromkeys(reversed(pages))):
                move(page)

    def on_insert(self, page: int, t: int) -> None:
        self._order[page] = None

    def choose_victim(self, page: int, t: int) -> int:
        if not self._order:
            raise RuntimeError("choose_victim called with empty cache")
        return next(iter(self._order))

    def on_evict(self, page: int, t: int) -> None:
        del self._order[page]


class MRUPolicy(EvictionPolicy):
    """Evict the *most*-recently-used resident page.

    Pathological for temporal locality but optimal for cyclic scans
    slightly larger than the cache — used by tests and the workload
    characterisation examples as a contrast to LRU.
    """

    name = "mru"

    def __init__(self) -> None:
        self._order: "OrderedDict[int, None]" = OrderedDict()

    def reset(self, ctx: SimContext) -> None:
        self._order = OrderedDict()

    def on_hit(self, page: int, t: int) -> None:
        self._order.move_to_end(page)

    def on_hit_batch(self, pages, ts) -> None:
        # Same argument as LRU: only each page's last occurrence matters.
        move = self._order.move_to_end
        if len(pages) <= 8:
            for page in pages:
                move(page)
        else:
            for page in reversed(dict.fromkeys(reversed(pages))):
                move(page)

    def on_insert(self, page: int, t: int) -> None:
        self._order[page] = None

    def choose_victim(self, page: int, t: int) -> int:
        if not self._order:
            raise RuntimeError("choose_victim called with empty cache")
        return next(reversed(self._order))

    def on_evict(self, page: int, t: int) -> None:
        del self._order[page]


__all__ = ["LRUPolicy", "MRUPolicy"]
