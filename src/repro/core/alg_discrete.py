"""ALG-DISCRETE — the paper's implementable budget algorithm (Fig. 3).

Each resident page ``p`` carries a budget ``B(p)``.  Let ``m(i, t)`` be
the number of evictions of user *i*'s pages up to time *t* (the paper's
:math:`m(i,t) = \\sum_{p \\in P_i} \\sum_j x^\\circ(p,j)`).  On each
request of page :math:`p_t`:

* **hit, or miss with space** — (fetch if needed and) refresh
  ``B(p_t) ← f'_{i(p_t)}(m(i(p_t), t-1) + 1)``;
* **miss with a full cache** —

  1. evict the resident page ``p`` with the smallest ``B(p)``;
  2. set ``B(p_t) ← f'_{i(p_t)}(m(i(p_t), t-1) + 1)``;
  3. for every other resident ``p'``: ``B(p') ← B(p') - B(p)``;
  4. for every resident ``p'`` owned by the evicted page's user:
     ``B(p') ← B(p') + f'(m+2) - f'(m+1)`` at ``m = m(i(p), t-1)``.

Step 3 is the discrete jump of the dual variable :math:`y_t` by exactly
``B(p)`` (the paper: ":math:`y_t` increases in iteration *t* by the
current value of ``B(p)`` when page ``p`` is evicted"); step 4 keeps
budgets evaluated at the user's *current* eviction count, tracking the
gradient of the convex objective.

Both bulk updates are uniform shifts, handled lazily by the two-level
:class:`~repro.core.budget_index.BudgetIndex` — a full-cache miss costs
``O(log k + log n)``, not ``O(k)``.  Ties break deterministically
(users by their minimum entry's insertion order, pages FIFO within a
user); the paper allows any tie-break, and determinism lets tests check
the ALG-CONT equivalence exactly.

``derivative_mode`` selects the gradient notion (paper §2.5 allows
arbitrary, even discontinuous, costs via discrete derivatives):

* ``'continuous'`` — :math:`f'` (right derivative at kinks); the
  Fig. 3 / Theorem 1.1 setting.
* ``'marginal'`` — the discrete derivative :math:`f(m) - f(m-1)`.
* ``'smoothed'`` — the window-averaged marginal
  :math:`(f(m+W-1)-f(m-1))/W`; a *practical variant* in the spirit of
  §2.5's remark that "variants of our algorithms perform well" in
  production [14]: the pointwise derivative is myopic for SLA costs
  with free-miss allowances (a tenant under allowance has budget 0 and
  churns until it crosses it); averaging over the next ``W`` misses
  anticipates the penalty region.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.budget_index import BudgetIndex
from repro.core.cost_functions import CostFunction
from repro.sim.policy import EvictionPolicy, SimContext

#: Valid gradient notions.
DERIVATIVE_MODES = ("continuous", "marginal", "smoothed")


class AlgDiscrete(EvictionPolicy):
    """The paper's ALG-DISCRETE as an engine policy.

    Parameters
    ----------
    derivative_mode:
        One of :data:`DERIVATIVE_MODES`; see the module docstring.
    smoothing_window:
        The :math:`W` for ``'smoothed'`` mode (ignored otherwise).

    Attributes
    ----------
    evictions_by_user:
        After a run, ``evictions_by_user[i]`` is :math:`m(i, T)` —
        evictions of user *i*'s pages.  (Fetch-miss counts live in the
        engine's :class:`~repro.sim.engine.SimResult`.)
    """

    name = "alg-discrete"
    requires_costs = True

    def __init__(
        self, derivative_mode: str = "continuous", smoothing_window: int = 100
    ) -> None:
        if derivative_mode not in DERIVATIVE_MODES:
            raise ValueError(
                f"derivative_mode must be one of {DERIVATIVE_MODES}, got {derivative_mode!r}"
            )
        self.derivative_mode = derivative_mode
        if smoothing_window < 1:
            raise ValueError(f"smoothing_window must be >= 1, got {smoothing_window}")
        self.smoothing_window = int(smoothing_window)
        if derivative_mode == "smoothed":
            self.name = f"alg-smoothed-{self.smoothing_window}"
        self._costs: Optional[Sequence[CostFunction]] = None
        self._owners: Optional[np.ndarray] = None
        self._owners_list: list = []
        self._index = BudgetIndex()
        self.evictions_by_user: Optional[np.ndarray] = None
        self._fresh_cache: dict = {}

    # ------------------------------------------------------------------
    def reset(self, ctx: SimContext) -> None:
        """Fresh run state; requires ``ctx.costs``."""
        if ctx.costs is None:
            raise ValueError("AlgDiscrete requires per-user cost functions")
        self._costs = ctx.costs
        self._owners = ctx.owners
        # Plain Python list: avoids boxing a numpy scalar per event on
        # the hot path (int(owners[page]) is ~3x a list index).
        self._owners_list = ctx.owners.tolist()
        self._index = BudgetIndex()
        self.evictions_by_user = np.zeros(max(ctx.num_users, 1), dtype=np.int64)
        self._fresh_cache = {}

    # ------------------------------------------------------------------
    def _gradient(self, user: int, m: int) -> float:
        """:math:`f'_i(m)`, the discrete marginal, or the window-averaged
        marginal, per ``derivative_mode``."""
        f = self._costs[user]
        if self.derivative_mode == "continuous":
            return float(f.derivative(float(m)))
        if self.derivative_mode == "marginal":
            return f.marginal(m)
        W = self.smoothing_window
        return (float(f.value(m - 1 + W)) - float(f.value(m - 1))) / W

    def fresh_budget(self, user: int) -> float:
        """``B ← f'_i(m(i, t-1) + 1)`` for a page of *user* being (re)set.

        Cached per user between evictions: the value only changes when
        the user's eviction count does (hot path — every hit refresh).
        """
        cached = self._fresh_cache.get(user)
        if cached is None:
            cached = self._gradient(user, int(self.evictions_by_user[user]) + 1)
            self._fresh_cache[user] = cached
        return cached

    def budget_of(self, page: int) -> float:
        """Current budget ``B(p)`` of a resident page (for inspection/tests)."""
        return self._index.budget_of(page)

    # ------------------------------------------------------------------
    def on_hit(self, page: int, t: int) -> None:
        """Hit refresh: ``B(p_t) <- f'(m+1)`` (Fig. 3, first bullet)."""
        user = self._owners_list[page]
        self._index.refresh(page, self.fresh_budget(user))

    def on_hit_batch(self, pages, t0: int) -> None:
        """Eviction counts are frozen within a hit run, so the per-user
        fresh budget is constant and refreshing a page is idempotent:
        refresh each distinct page exactly once, grouped by user so the
        index pays its top-heap update once per user per run."""
        owners = self._owners_list
        by_user: dict = {}
        for page in dict.fromkeys(pages):
            user = owners[page]
            group = by_user.get(user)
            if group is None:
                by_user[user] = [page]
            else:
                group.append(page)
        refresh_pages = self._index.refresh_pages
        fresh_budget = self.fresh_budget
        for user, group in by_user.items():
            refresh_pages(user, group, fresh_budget(user))

    def on_insert(self, page: int, t: int) -> None:
        """Fetch: index the page with a fresh budget."""
        user = self._owners_list[page]
        self._index.insert(page, user, self.fresh_budget(user))

    def choose_victim(self, page: int, t: int) -> int:
        """Fig. 3 step 1: the resident page with the smallest budget."""
        victim, _user, _budget = self._index.min_page()
        return victim

    def on_evict(self, page: int, t: int) -> None:
        """Fig. 3 steps 3-4: global subtraction + same-user uplift."""
        user = self._owners_list[page]
        budget = self._index.remove(page)

        # Step 3 (Fig. 3): subtract the evicted budget from every other
        # resident page — the discrete y_t jump of size B(p).
        self._index.subtract_from_all(budget)

        # Step 4: the evicted user's pages now face a steeper gradient.
        # The uplift f'(m+2) - f'(m+1) at m = m(i(p), t-1) reuses the
        # cached fresh budget f'(m+1); f'(m+2) becomes the next one.
        before = self.fresh_budget(user)
        m = int(self.evictions_by_user[user]) + 1
        self.evictions_by_user[user] = m
        after = self._fresh_cache[user] = self._gradient(user, m + 1)
        uplift = after - before
        if uplift != 0.0:
            self._index.uplift_user(user, uplift)

    def on_flush(self, page: int, t: int) -> None:
        """Externally-forced removal (e.g. tenant migration): forget the
        page without the Fig. 3 dual updates — the page was not the
        minimum-budget victim, so subtracting its budget from everyone
        would drive other budgets negative, and no miss occurred."""
        self._index.remove(page)

    # ------------------------------------------------------------------
    def resident_budgets(self) -> Dict[int, float]:
        """Snapshot ``{page: B(p)}`` for all resident pages (tests/examples)."""
        return self._index.budgets()

    def __repr__(self) -> str:
        return (
            f"AlgDiscrete(derivative_mode={self.derivative_mode!r}, "
            f"smoothing_window={self.smoothing_window})"
        )


__all__ = ["AlgDiscrete", "DERIVATIVE_MODES"]
