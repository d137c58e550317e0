"""The deterministic Marking algorithm.

Marking algorithms partition the request stream into phases: a page is
*marked* when requested; when an eviction is needed and every resident
page is marked, a new phase begins and all marks are cleared.  Victims
are chosen among unmarked resident pages.  Deterministic marking is
:math:`k`-competitive for classical paging; its randomized cousin is
:math:`O(\\log k)`-competitive (not needed here — the paper studies
deterministic algorithms).

This implementation breaks ties deterministically (least-recently-used
unmarked page) so runs are exactly reproducible.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.sim.policy import EvictionPolicy, SimContext
from repro.util.linkedlist import DoublyLinkedList, ListNode


class MarkingPolicy(EvictionPolicy):
    """Phase-based marking with LRU tie-breaking among unmarked pages."""

    name = "marking"

    def __init__(self) -> None:
        self._marked: Set[int] = set()
        self._order: DoublyLinkedList[int] = DoublyLinkedList()
        self._nodes: Dict[int, ListNode[int]] = {}

    def reset(self, ctx: SimContext) -> None:
        self._marked = set()
        self._order = DoublyLinkedList()
        self._nodes = {}

    def on_hit(self, page: int, t: int) -> None:
        self._marked.add(page)
        self._order.move_to_tail(self._nodes[page])

    def on_hit_batch(self, pages, ts) -> None:
        # Marks are a set union; the LRU tie-break order depends only on
        # each page's last occurrence (same argument as LRUPolicy).
        self._marked.update(pages)
        move = self._order.move_to_tail
        nodes = self._nodes
        for page in reversed(dict.fromkeys(reversed(pages))):
            move(nodes[page])

    def on_insert(self, page: int, t: int) -> None:
        self._marked.add(page)
        self._nodes[page] = self._order.append(page)

    def choose_victim(self, page: int, t: int) -> int:
        resident = set(self._nodes)
        if resident <= self._marked:
            # Every resident page is marked: new phase.
            self._marked &= set()  # clear in place semantics
        for candidate in self._order:  # head = least recent first
            if candidate not in self._marked:
                return candidate
        raise RuntimeError("no unmarked page available after phase reset")

    def on_evict(self, page: int, t: int) -> None:
        node = self._nodes.pop(page)
        self._order.remove(node)
        self._marked.discard(page)


class RandomizedMarkingPolicy(EvictionPolicy):
    """Randomized marking (Fiat et al.): evict a uniformly random
    *unmarked* resident page.

    For classical paging this is :math:`O(\\log k)`-competitive against
    an *oblivious* adversary — an exponential improvement over any
    deterministic policy.  Against the paper's Theorem 1.4 adversary it
    does **not** help: that adversary is *adaptive* (it observes the
    actual cache contents), and adaptive adversaries collapse
    randomized caching back to deterministic bounds — demonstrated in
    the lower-bound tests.
    """

    name = "rand-marking"

    def __init__(self, rng=None) -> None:
        from repro.util.rng import ensure_rng

        self._rng = ensure_rng(rng)
        self._marked: Set[int] = set()
        self._resident: Set[int] = set()

    def reset(self, ctx: SimContext) -> None:
        self._marked = set()
        self._resident = set()

    def on_hit(self, page: int, t: int) -> None:
        self._marked.add(page)

    def on_hit_batch(self, pages, ts) -> None:
        self._marked.update(pages)

    def on_insert(self, page: int, t: int) -> None:
        self._marked.add(page)
        self._resident.add(page)

    def choose_victim(self, page: int, t: int) -> int:
        unmarked = self._resident - self._marked
        if not unmarked:
            # New phase: clear all marks.
            self._marked = set()
            unmarked = set(self._resident)
        candidates = sorted(unmarked)
        return candidates[int(self._rng.integers(0, len(candidates)))]

    def on_evict(self, page: int, t: int) -> None:
        self._resident.discard(page)
        self._marked.discard(page)


__all__ = ["MarkingPolicy", "RandomizedMarkingPolicy"]
