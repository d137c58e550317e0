"""A deliberately naive reference implementation of ALG-DISCRETE.

This is Fig. 3 transliterated: budgets in a plain dict, the victim
found by an O(k) scan, step 3's subtraction applied to every resident
page individually, step 4's uplift likewise.  It exists for two
purposes:

* **differential testing** — the optimised
  :class:`~repro.core.alg_discrete.AlgDiscrete` (lazy offsets over
  per-user heaps and a lazily synced tenant heap) must make identical
  eviction decisions (enforced in ``tests/test_alg_naive.py``), so any
  bug in the lazy-offset algebra or the tenant-heap sync would surface
  against this straight-line version;
* **the scaling ablation (experiment E14)** — it is the O(k)-per-miss
  baseline that shows what the budget index buys.

Tie-breaking matches the optimised version: the minimum budget wins,
users tie-break by the insertion order of their current best page and
pages FIFO within a user — implemented here by explicit sequence
numbers.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.alg_discrete import DERIVATIVE_MODES
from repro.core.cost_functions import CostFunction
from repro.sim.policy import EvictionPolicy, SimContext


class NaiveAlgDiscrete(EvictionPolicy):
    """Fig. 3 with O(k) bookkeeping per miss (reference implementation)."""

    name = "alg-naive"
    requires_costs = True

    def __init__(
        self, derivative_mode: str = "continuous", smoothing_window: int = 100
    ) -> None:
        if derivative_mode not in DERIVATIVE_MODES:
            raise ValueError(
                f"derivative_mode must be one of {DERIVATIVE_MODES}, got {derivative_mode!r}"
            )
        if smoothing_window < 1:
            raise ValueError(f"smoothing_window must be >= 1, got {smoothing_window}")
        self.derivative_mode = derivative_mode
        self.smoothing_window = int(smoothing_window)
        self._costs: Optional[Sequence[CostFunction]] = None
        self._owners: Optional[np.ndarray] = None
        self._budget: Dict[int, float] = {}
        self._page_seq: Dict[int, int] = {}
        self._user_entry_seq: Dict[int, int] = {}
        self._seq = 0
        self._top_seq = 0
        self.evictions_by_user: Optional[np.ndarray] = None

    def reset(self, ctx: SimContext) -> None:
        if ctx.costs is None:
            raise ValueError("NaiveAlgDiscrete requires per-user cost functions")
        self._costs = ctx.costs
        self._owners = ctx.owners
        self._budget = {}
        self._page_seq = {}
        self._user_entry_seq = {}
        self._seq = 0
        self._top_seq = 0
        self.evictions_by_user = np.zeros(max(ctx.num_users, 1), dtype=np.int64)

    # ------------------------------------------------------------------
    def _gradient(self, user: int, m: int) -> float:
        f = self._costs[user]
        if self.derivative_mode == "continuous":
            return float(f.derivative(float(m)))
        if self.derivative_mode == "marginal":
            return f.marginal(m)
        W = self.smoothing_window
        return (float(f.value(m - 1 + W)) - float(f.value(m - 1))) / W

    def _fresh_budget(self, user: int) -> float:
        return self._gradient(user, int(self.evictions_by_user[user]) + 1)

    def _note_user_presence(self, user: int) -> None:
        """Mirror the optimised tenant heap's tie-breaking: a user's
        entry sequence number is assigned when it (re)appears in the
        top structure — i.e. when it goes from zero resident pages to
        one — and dropped when its last page leaves."""
        if user not in self._user_entry_seq:
            self._user_entry_seq[user] = self._top_seq
            self._top_seq += 1

    def _note_user_departure(self, user: int) -> None:
        if not any(int(self._owners[p]) == user for p in self._budget):
            self._user_entry_seq.pop(user, None)

    # ------------------------------------------------------------------
    def on_hit(self, page: int, t: int) -> None:
        user = int(self._owners[page])
        self._budget[page] = self._fresh_budget(user)

    def on_insert(self, page: int, t: int) -> None:
        user = int(self._owners[page])
        self._budget[page] = self._fresh_budget(user)
        self._page_seq[page] = self._seq
        self._seq += 1
        self._note_user_presence(user)

    def choose_victim(self, page: int, t: int) -> int:
        # Per-user best page: (budget, page_seq); across users:
        # (budget, user_entry_seq) — mirrors the per-user heaps and the
        # tenant heap.
        best_by_user: Dict[int, int] = {}
        for p in self._budget:
            u = int(self._owners[p])
            cur = best_by_user.get(u)
            if cur is None or (self._budget[p], self._page_seq[p]) < (
                self._budget[cur],
                self._page_seq[cur],
            ):
                best_by_user[u] = p
        victim_user = min(
            best_by_user,
            key=lambda u: (self._budget[best_by_user[u]], self._user_entry_seq[u]),
        )
        return best_by_user[victim_user]

    def on_evict(self, page: int, t: int) -> None:
        user = int(self._owners[page])
        evicted_budget = self._budget.pop(page)
        del self._page_seq[page]
        self._note_user_departure(user)

        # Step 3: subtract from every other resident page, one by one.
        for p in self._budget:
            self._budget[p] -= evicted_budget

        # Step 4: uplift the evicted user's resident pages.
        m_before = int(self.evictions_by_user[user])
        self.evictions_by_user[user] += 1
        uplift = self._gradient(user, m_before + 2) - self._gradient(user, m_before + 1)
        if uplift != 0.0:
            for p in self._budget:
                if int(self._owners[p]) == user:
                    self._budget[p] += uplift

    def on_flush(self, page: int, t: int) -> None:
        """Externally-forced removal without dual updates (see base)."""
        self._budget.pop(page, None)
        self._page_seq.pop(page, None)
        self._note_user_departure(int(self._owners[page]))

    def resident_budgets(self) -> Dict[int, float]:
        """Snapshot ``{page: B(p)}`` (mirrors the optimised class)."""
        return dict(self._budget)

    def __repr__(self) -> str:
        return (
            f"NaiveAlgDiscrete(derivative_mode={self.derivative_mode!r}, "
            f"smoothing_window={self.smoothing_window})"
        )


__all__ = ["NaiveAlgDiscrete"]
