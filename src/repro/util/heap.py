"""Addressable min-heap with lazy deletion over :mod:`heapq`.

The budget-driven eviction rules in the paper's ALG-DISCRETE, and the
classic GreedyDual weighted-caching baseline, repeatedly need "the cached
page with the smallest key" while keys of arbitrary resident pages are
updated on hits.  Python's :mod:`heapq` has no decrease-key, so this
module layers item addressing on top of it by *lazy deletion*: the
``heapq`` list holds ``(key, seqno, item)`` tuples, a dict maps each
item to its one live entry, and entries that are no longer live stay in
the list until they surface at the top (or until a rebuild).

* ``push`` appends a live entry (``heappush``, in C).
* ``update`` to a different key pushes a replacement entry carrying the
  item's *original* seqno; the old entry goes stale.  An update to an
  equal key pushes nothing.
* ``remove`` drops the item's live entry; its tuple goes stale.
* ``peek`` / ``pop`` discard stale tops before answering.
* Once the list exceeds ``2 * len(self) + 32`` entries it is rebuilt
  from the live entries with ``heapify``, so the list never holds more
  than that many, and each rebuild's ``O(n)`` is paid for by the
  updates and removals since the last one.

Bounds (``n`` live items): ``push`` / ``update`` / ``pop`` / ``peek`` /
``remove`` in amortised ``O(log n)``; ``len``, membership and
``key_of`` in ``O(1)``; ``add_to_all`` in ``O(n)``.

Ordering contract: ``pop`` and ``peek`` return the live item with the
smallest ``(key, seqno)``, where ``seqno`` counts ``push`` calls and is
kept across updates — equal keys pop FIFO by insertion, exactly as an
eagerly sifted binary heap over the same pairs would.  The paper's
analysis allows any tie-break, but determinism makes the
ALG-CONT/ALG-DISCRETE equivalence testable.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Generic, Hashable, Iterator, Tuple, TypeVar

K = TypeVar("K", bound=Hashable)


class AddressableHeap(Generic[K]):
    """Min-heap over ``(key, item)`` with item-addressed updates.

    Items must be hashable and unique.  Keys are compared as
    ``(key, seqno)`` pairs where ``seqno`` is a monotone insertion
    counter, making tie-breaking deterministic and FIFO.  An entry is
    live while it equals the item's entry in ``_live``: an update to an
    equal key replaces only the ``_live`` tuple (so :meth:`key_of`
    returns the last key stored, ``-0.0`` included), and the heap's
    equal tuple stands for it.
    """

    __slots__ = ("_heap", "_live", "_counter")

    def __init__(self) -> None:
        # heapq list of (key, seqno, item) tuples, live and stale.
        self._heap: list[tuple] = []
        # item -> its live (key, seqno, item) entry
        self._live: dict[K, tuple] = {}
        self._counter: int = 0

    # ------------------------------------------------------------------
    # Basic container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._live)

    def __contains__(self, item: K) -> bool:
        return item in self._live

    def __bool__(self) -> bool:
        return bool(self._live)

    def __iter__(self) -> Iterator[K]:
        """Iterate items in arbitrary (but deterministic) order."""
        return iter(self._live)

    def items(self) -> Iterator[Tuple[K, float]]:
        """Iterate ``(item, key)`` pairs in arbitrary (but deterministic)
        order."""
        for item, entry in self._live.items():
            yield item, entry[0]

    # ------------------------------------------------------------------
    # Heap operations
    # ------------------------------------------------------------------
    def push(self, item: K, key: float) -> None:
        """Insert *item* with *key*; raises if the item is present."""
        live = self._live
        if item in live:
            raise KeyError(f"item {item!r} already in heap; use update()")
        entry = (key, self._counter, item)
        self._counter += 1
        live[item] = entry
        # The list grows by one and its bound by two: no rebuild is due.
        heappush(self._heap, entry)

    def pop(self) -> Tuple[K, float]:
        """Remove and return ``(item, key)`` with the smallest key."""
        heap = self._heap
        live = self._live
        while heap:
            entry = heappop(heap)
            item = entry[2]
            current = live.get(item)
            if current is not None and current == entry:
                del live[item]
                if len(heap) > 2 * len(live) + 32:
                    self._rebuild()
                return item, current[0]
        raise IndexError("pop from empty heap")

    def peek(self) -> Tuple[K, float]:
        """Return ``(item, key)`` with the smallest key without removal."""
        heap = self._heap
        live = self._live
        while heap:
            entry = heap[0]
            current = live.get(entry[2])
            if current is not None and current == entry:
                return entry[2], current[0]
            heappop(heap)
        raise IndexError("peek on empty heap")

    def key_of(self, item: K) -> float:
        """Current key of *item* (raises ``KeyError`` if absent)."""
        return self._live[item][0]

    def update(self, item: K, key: float) -> None:
        """Change the key of an existing *item*, keeping its seqno."""
        live = self._live
        entry = live[item]
        if key == entry[0]:
            live[item] = (key, entry[1], item)
            return
        entry = (key, entry[1], item)
        live[item] = entry
        heap = self._heap
        heappush(heap, entry)
        if len(heap) > 2 * len(live) + 32:
            self._rebuild()

    def push_or_update(self, item: K, key: float) -> None:
        """Insert *item* or update its key if already present."""
        if item in self._live:
            self.update(item, key)
        else:
            self.push(item, key)

    def remove(self, item: K) -> float:
        """Remove *item*, returning its key."""
        live = self._live
        key = live.pop(item)[0]
        if len(self._heap) > 2 * len(live) + 32:
            self._rebuild()
        return key

    def add_to_all(self, delta: float) -> None:
        """Add *delta* to every key, then rebuild.  ``O(n)``.

        ALG-DISCRETE's "subtract the evicted budget from everyone" step
        can be written with this (see
        :class:`repro.core.alg_discrete.AlgDiscrete`, which instead keeps
        a global offset for ``O(1)`` — this method exists for the direct,
        easily-audited implementation and for tests).
        """
        self._live = {
            item: (key + delta, seqno, item)
            for item, (key, seqno, _item) in self._live.items()
        }
        self._rebuild()

    def clear(self) -> None:
        self._heap.clear()
        self._live.clear()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _rebuild(self) -> None:
        """Drop every stale entry: heapify the live ones afresh."""
        heap = list(self._live.values())
        heapify(heap)
        self._heap = heap

    def check_invariants(self) -> None:
        """Validate heap order, liveness and the size bound (test helper)."""
        heap = self._heap
        n = len(heap)
        for i in range(1, n):
            assert not heap[i] < heap[(i - 1) >> 1], f"heap order broken at {i}"
        assert n <= 2 * len(self._live) + 32, "stale entries past the rebuild bound"
        present = set(heap)
        for item, entry in self._live.items():
            assert entry[2] == item, f"live entry of {item!r} names {entry[2]!r}"
            assert entry in present, f"live entry of {item!r} missing from heap"


__all__ = ["AddressableHeap"]
