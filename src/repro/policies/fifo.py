"""Insertion-order policies: FIFO and CLOCK (second chance).

FIFO is also :math:`k`-competitive classically; CLOCK is the standard
one-bit approximation of LRU used by real operating systems, included
so the SLA comparison experiment spans the practical baseline space.
"""

from __future__ import annotations

from typing import Dict

from repro.sim.policy import EvictionPolicy, SimContext
from repro.util.linkedlist import DoublyLinkedList, ListNode


class FIFOPolicy(EvictionPolicy):
    """Evict the earliest-inserted resident page; hits do not refresh."""

    name = "fifo"
    ignores_hits = True  # insertion order is untouched by hits

    def __init__(self) -> None:
        self._order: DoublyLinkedList[int] = DoublyLinkedList()
        self._nodes: Dict[int, ListNode[int]] = {}

    def reset(self, ctx: SimContext) -> None:
        self._order = DoublyLinkedList()
        self._nodes = {}

    def on_insert(self, page: int, t: int) -> None:
        self._nodes[page] = self._order.append(page)

    def choose_victim(self, page: int, t: int) -> int:
        if self._order.head is None:
            raise RuntimeError("choose_victim called with empty cache")
        return self._order.head.value

    def on_evict(self, page: int, t: int) -> None:
        node = self._nodes.pop(page)
        self._order.remove(node)


class ClockPolicy(EvictionPolicy):
    """CLOCK / second-chance: a one-reference-bit LRU approximation.

    Pages sit on a circular queue (here: a linked list whose head is
    the clock hand).  A hit sets the page's reference bit.  To evict,
    the hand sweeps: referenced pages get their bit cleared and move to
    the back; the first unreferenced page is the victim.
    """

    name = "clock"

    def __init__(self) -> None:
        self._order: DoublyLinkedList[int] = DoublyLinkedList()
        self._nodes: Dict[int, ListNode[int]] = {}
        self._referenced: Dict[int, bool] = {}

    def reset(self, ctx: SimContext) -> None:
        self._order = DoublyLinkedList()
        self._nodes = {}
        self._referenced = {}

    def on_hit(self, page: int, t: int) -> None:
        self._referenced[page] = True

    def on_hit_batch(self, pages, ts) -> None:
        # Setting a reference bit is idempotent and order-free.
        referenced = self._referenced
        for page in pages:
            referenced[page] = True

    def on_insert(self, page: int, t: int) -> None:
        self._nodes[page] = self._order.append(page)
        self._referenced[page] = False

    def choose_victim(self, page: int, t: int) -> int:
        # Sweep the hand.  Terminates: each rotation clears one bit, and
        # there are finitely many resident pages.
        while True:
            head = self._order.head
            if head is None:
                raise RuntimeError("choose_victim called with empty cache")
            candidate = head.value
            if self._referenced[candidate]:
                self._referenced[candidate] = False
                self._order.move_to_tail(head)
            else:
                return candidate

    def on_evict(self, page: int, t: int) -> None:
        node = self._nodes.pop(page)
        self._order.remove(node)
        del self._referenced[page]


__all__ = ["FIFOPolicy", "ClockPolicy"]
