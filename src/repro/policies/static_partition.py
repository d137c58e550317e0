"""Static per-tenant partitioning — the paper's strawman.

The introduction argues static memory allocation is "inherently both
wasteful … and might fail to meet user requirements"; this policy makes
that concrete: the cache is carved into fixed per-user quotas, each run
as an independent LRU.  Experiment E5 compares it against the shared,
cost-aware ALG-DISCRETE.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.sim.policy import EvictionPolicy, SimContext
from repro.util.linkedlist import DoublyLinkedList, ListNode


class StaticPartitionLRU(EvictionPolicy):
    """Fixed quotas per user; LRU within each partition.

    Parameters
    ----------
    quotas:
        ``quotas[i]`` slots for user ``i``; must sum to at most ``k``.
        When omitted, ``k`` is split as evenly as possible (the first
        ``k mod n`` users get one extra slot).

    Victim selection: a user at (or over) its quota evicts its own LRU
    page.  A user under quota with a full cache — possible only when
    quotas under-cover ``k`` — evicts the LRU page of the most
    over-quota user (global LRU among them as tie-break).
    """

    name = "static-lru"

    def __init__(self, quotas: Optional[Sequence[int]] = None) -> None:
        self._explicit_quotas = None if quotas is None else np.asarray(quotas, dtype=np.int64)
        self._quotas: Optional[np.ndarray] = None
        self._owners: Optional[np.ndarray] = None
        self._owners_list: list = []
        self._lists: Dict[int, DoublyLinkedList[int]] = {}
        self._nodes: Dict[int, ListNode[int]] = {}
        self._counts: Optional[np.ndarray] = None

    def reset(self, ctx: SimContext) -> None:
        n = max(ctx.num_users, 1)
        if self._explicit_quotas is not None:
            if self._explicit_quotas.size < n:
                raise ValueError(f"need {n} quotas, got {self._explicit_quotas.size}")
            if int(self._explicit_quotas[:n].sum()) > ctx.k:
                raise ValueError("quotas exceed cache size")
            if np.any(self._explicit_quotas < 0):
                raise ValueError("quotas must be non-negative")
            self._quotas = self._explicit_quotas[:n].copy()
        else:
            base, extra = divmod(ctx.k, n)
            self._quotas = np.full(n, base, dtype=np.int64)
            self._quotas[:extra] += 1
        self._owners = ctx.owners
        self._owners_list = ctx.owners.tolist()
        self._lists = {i: DoublyLinkedList() for i in range(n)}
        self._nodes = {}
        self._counts = np.zeros(n, dtype=np.int64)

    def on_hit(self, page: int, t: int) -> None:
        user = int(self._owners[page])
        self._lists[user].move_to_tail(self._nodes[page])

    def on_hit_batch(self, pages, ts) -> None:
        # Per-partition recency depends only on last occurrences, and
        # hits never change partition occupancy.
        owners = self._owners_list
        lists = self._lists
        nodes = self._nodes
        for page in reversed(dict.fromkeys(reversed(pages))):
            lists[owners[page]].move_to_tail(nodes[page])

    def on_insert(self, page: int, t: int) -> None:
        user = int(self._owners[page])
        self._nodes[page] = self._lists[user].append(page)
        self._counts[user] += 1

    def choose_victim(self, page: int, t: int) -> int:
        user = int(self._owners[page])
        own = self._lists[user]
        if self._counts[user] >= self._quotas[user] and own.head is not None:
            return own.head.value
        # Under-quota user with a full cache: evict from the most
        # over-quota user with resident pages.
        overage = self._counts - self._quotas
        order = np.argsort(-overage, kind="stable")
        for candidate_user in order:
            lst = self._lists[int(candidate_user)]
            if lst.head is not None and int(candidate_user) != user:
                return lst.head.value
        # Fall back to own pages if nobody else holds anything.
        if own.head is not None:
            return own.head.value
        raise RuntimeError("no resident page to evict")

    def on_evict(self, page: int, t: int) -> None:
        user = int(self._owners[page])
        node = self._nodes.pop(page)
        self._lists[user].remove(node)
        self._counts[user] -= 1


__all__ = ["StaticPartitionLRU"]
