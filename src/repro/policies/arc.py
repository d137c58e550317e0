"""ARC — Adaptive Replacement Cache (Megiddo & Modha, FAST 2003).

A strong practical cost-blind baseline for the E5/E11 comparisons: ARC
balances recency (list T1) against frequency (list T2) using ghost
lists (B1/B2) of recently evicted pages to adapt the target size ``p``
of T1 on the fly.

This is the standard four-list formulation adapted to the engine
protocol: the engine owns admission/eviction timing, so ``REPLACE``
runs inside :meth:`choose_victim` deciding which of T1/T2 yields the
victim, and the ghost-list bookkeeping happens in the hit/insert/evict
callbacks.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.sim.policy import EvictionPolicy, SimContext
from repro.util.linkedlist import DoublyLinkedList, ListNode


class ARCPolicy(EvictionPolicy):
    """Adaptive Replacement Cache."""

    name = "arc"

    def __init__(self) -> None:
        self._k = 0
        self._p = 0.0  # adaptive target size of T1
        self._t1: DoublyLinkedList[int] = DoublyLinkedList()
        self._t2: DoublyLinkedList[int] = DoublyLinkedList()
        self._b1: DoublyLinkedList[int] = DoublyLinkedList()
        self._b2: DoublyLinkedList[int] = DoublyLinkedList()
        self._where: Dict[int, str] = {}
        self._nodes: Dict[int, ListNode[int]] = {}
        #: Set in on_insert when the incoming page was a ghost hit.
        self._pending_list: Optional[str] = None

    def reset(self, ctx: SimContext) -> None:
        self._k = ctx.k
        self._p = 0.0
        self._t1 = DoublyLinkedList()
        self._t2 = DoublyLinkedList()
        self._b1 = DoublyLinkedList()
        self._b2 = DoublyLinkedList()
        self._where = {}
        self._nodes = {}
        self._pending_list = None

    # ------------------------------------------------------------------
    def _list(self, name: str) -> DoublyLinkedList[int]:
        return {"t1": self._t1, "t2": self._t2, "b1": self._b1, "b2": self._b2}[name]

    def _move(self, page: int, dest: str) -> None:
        src = self._where[page]
        self._list(src).remove(self._nodes[page])
        self._nodes[page] = self._list(dest).append(page)
        self._where[page] = dest

    def _drop(self, page: int) -> None:
        self._list(self._where[page]).remove(self._nodes.pop(page))
        del self._where[page]

    def _trim_ghosts(self) -> None:
        """Keep |T1|+|B1| <= k and total directory <= 2k."""
        while len(self._t1) + len(self._b1) > self._k and len(self._b1) > 0:
            self._drop(self._b1.head.value)
        while (
            len(self._t1) + len(self._t2) + len(self._b1) + len(self._b2)
            > 2 * self._k
            and len(self._b2) > 0
        ):
            self._drop(self._b2.head.value)

    # ------------------------------------------------------------------
    def on_hit(self, page: int, t: int) -> None:
        # Case I: hit in T1 or T2 -> promote to MRU of T2.
        self._move(page, "t2")

    def on_hit_batch(self, pages, ts) -> None:
        # Each hit is a remove + append into T2, so the final T2 order
        # depends only on the order of last occurrences.
        move = self._move
        for page in reversed(dict.fromkeys(reversed(pages))):
            move(page, "t2")

    def on_insert(self, page: int, t: int) -> None:
        where = self._where.get(page)
        if where == "b1":
            # Case II: ghost hit in B1 -> grow p, admit into T2.
            delta = max(len(self._b2) / max(len(self._b1), 1), 1.0)
            self._p = min(self._p + delta, float(self._k))
            self._move(page, "t2")
        elif where == "b2":
            # Case III: ghost hit in B2 -> shrink p, admit into T2.
            delta = max(len(self._b1) / max(len(self._b2), 1), 1.0)
            self._p = max(self._p - delta, 0.0)
            self._move(page, "t2")
        else:
            # Case IV: brand-new page -> T1.
            self._nodes[page] = self._t1.append(page)
            self._where[page] = "t1"
        self._trim_ghosts()

    def choose_victim(self, page: int, t: int) -> int:
        """The REPLACE subroutine: evict T1's LRU if |T1| exceeds the
        adaptive target (or on a B2 ghost hit at the boundary), else
        T2's LRU."""
        ghost_in_b2 = self._where.get(page) == "b2"
        t1_len = len(self._t1)
        if t1_len >= 1 and (
            t1_len > self._p or (ghost_in_b2 and t1_len == int(self._p))
        ):
            return self._t1.head.value
        if self._t2.head is not None:
            return self._t2.head.value
        return self._t1.head.value

    def on_evict(self, page: int, t: int) -> None:
        # Demote to the matching ghost list.
        dest = "b1" if self._where[page] == "t1" else "b2"
        self._move(page, dest)
        self._trim_ghosts()

    def __repr__(self) -> str:
        return "ARCPolicy()"


class TwoQueuePolicy(EvictionPolicy):
    """2Q (Johnson & Shasha, VLDB 1994), simplified full version.

    New pages enter a FIFO probation queue ``A1in``; on eviction from
    it they are remembered in a ghost queue ``A1out``; a reference to a
    ghost promotes the page into the main LRU queue ``Am``.  Filters
    one-shot scans out of the hot set — the classic fix for LRU's scan
    pollution.
    """

    name = "2q"

    def __init__(self, in_fraction: float = 0.25, out_fraction: float = 0.5) -> None:
        if not (0.0 < in_fraction < 1.0):
            raise ValueError(f"in_fraction must be in (0,1), got {in_fraction}")
        if out_fraction <= 0.0:
            raise ValueError(f"out_fraction must be positive, got {out_fraction}")
        self.in_fraction = in_fraction
        self.out_fraction = out_fraction
        self._kin = 1
        self._kout = 1
        self._a1in: DoublyLinkedList[int] = DoublyLinkedList()
        self._am: DoublyLinkedList[int] = DoublyLinkedList()
        self._a1out: DoublyLinkedList[int] = DoublyLinkedList()
        self._where: Dict[int, str] = {}
        self._nodes: Dict[int, ListNode[int]] = {}

    def reset(self, ctx: SimContext) -> None:
        self._kin = max(1, int(self.in_fraction * ctx.k))
        self._kout = max(1, int(self.out_fraction * ctx.k))
        self._a1in = DoublyLinkedList()
        self._am = DoublyLinkedList()
        self._a1out = DoublyLinkedList()
        self._where = {}
        self._nodes = {}

    def _list(self, name: str) -> DoublyLinkedList[int]:
        return {"in": self._a1in, "am": self._am, "out": self._a1out}[name]

    def _drop(self, page: int) -> None:
        self._list(self._where[page]).remove(self._nodes.pop(page))
        del self._where[page]

    def on_hit(self, page: int, t: int) -> None:
        if self._where[page] == "am":
            self._am.move_to_tail(self._nodes[page])
        # A hit in A1in leaves the page in FIFO order (the 2Q rule).

    def on_hit_batch(self, pages, ts) -> None:
        # Hits on A1in pages are no-ops; Am moves collapse to last
        # occurrences like LRU.
        where = self._where
        move = self._am.move_to_tail
        nodes = self._nodes
        hot = [p for p in pages if where[p] == "am"]
        for page in reversed(dict.fromkeys(reversed(hot))):
            move(nodes[page])

    def on_insert(self, page: int, t: int) -> None:
        if self._where.get(page) == "out":
            # Ghost hit: promote to the main queue.
            self._list("out").remove(self._nodes.pop(page))
            self._nodes[page] = self._am.append(page)
            self._where[page] = "am"
        else:
            self._nodes[page] = self._a1in.append(page)
            self._where[page] = "in"

    def choose_victim(self, page: int, t: int) -> int:
        if len(self._a1in) > self._kin and self._a1in.head is not None:
            return self._a1in.head.value
        if self._am.head is not None:
            return self._am.head.value
        return self._a1in.head.value

    def on_evict(self, page: int, t: int) -> None:
        came_from = self._where[page]
        self._drop(page)
        if came_from == "in":
            # Remember in the ghost queue.
            self._nodes[page] = self._a1out.append(page)
            self._where[page] = "out"
            while len(self._a1out) > self._kout:
                self._drop(self._a1out.head.value)

    def __repr__(self) -> str:
        return f"TwoQueuePolicy(in_fraction={self.in_fraction}, out_fraction={self.out_fraction})"


__all__ = ["ARCPolicy", "TwoQueuePolicy"]
