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

Both bulk updates are uniform shifts over their scope, so the policy
applies them lazily and never touches pages individually.  It keeps
the dual offset ``y`` (the sum of evicted budgets), each user's
cumulative uplift ``V[u]``, and one
:class:`~repro.util.heap.AddressableHeap` per user over stored keys
``B + y − V[u]`` taken at set time.  A current budget is
``key − y + V[u]``; within one user every page shares that correction,
so the user's order is its stored-key order.  A tenant heap over users
keys each on ``min key + V[u]`` — adding the common ``−y`` does not
change the arg-min across users — so the minimum-budget page is the
tenant heap's user, then that user's minimum page.  A full-cache miss
costs ``O(log k + log n)``, not ``O(k)``.

The tenant heap is synced lazily.  A hook that changes a user's
minimum key or uplift only marks the user stale; ``choose_victim``
refreshes the stale users' entries, in the order they went stale,
before it peeks.  A user whose last page leaves drops out of the
tenant heap, and out of the stale order, at once.  Ties break as in an
eagerly refreshed index: users by the insertion order of their tenant
entry, which a user takes when it gains its first page, and pages FIFO
within a user.  The paper allows any tie-break; determinism lets tests
check the ALG-CONT equivalence and the naive transliteration exactly.

Representation limit: the lazy form stores ``B + y − V[u]``, so two
budgets whose difference is below one ulp of the accumulated offsets
are absorbed and may order arbitrarily (e.g. a 1e-213 budget after an
offset of 1.0).  For the algorithm this is harmless — such budgets are
equal for every practical purpose and any tie-break is admissible —
but exact-arithmetic comparisons in tests use dyadic inputs.

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

from repro.core.cost_functions import CostFunction
from repro.sim.policy import EvictionPolicy, SimContext
from repro.util.heap import AddressableHeap

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
        self._owners_list: list = []
        #: user -> heap of its resident pages' stored keys ``B + y - V[u]``,
        #: made when the user gains its first page.
        self._heaps: Dict[int, AddressableHeap[int]] = {}
        #: The tenant heap: user -> its minimum stored key + ``V[u]``.
        self._top: AddressableHeap[int] = AddressableHeap()
        #: Users whose tenant entry is out of date, in the order they
        #: went stale (a dict used as an ordered set).
        self._stale: Dict[int, None] = {}
        self._y = 0.0  # the dual offset: the sum of evicted budgets
        self._V: list = []  # per-user cumulative uplift
        self._m: list = []  # per-user eviction count m(i, t)
        self._fresh: list = []  # per-user fresh budget f'(m + 1)

    # ------------------------------------------------------------------
    def reset(self, ctx: SimContext) -> None:
        """Fresh run state; requires ``ctx.costs``."""
        if ctx.costs is None:
            raise ValueError(f"{type(self).__name__} requires per-user cost functions")
        self._costs = ctx.costs
        # Plain Python list: avoids boxing a numpy scalar per event on
        # the hot path (int(owners[page]) is ~3x a list index).
        self._owners_list = ctx.owners.tolist()
        n = max(ctx.num_users, 1)
        self._heaps = {}
        self._top = AddressableHeap()
        self._stale = {}
        self._y = 0.0
        self._V = [0.0] * n
        self._m = [0] * n
        self._fresh = [self._gradient(u, 1) for u in range(len(ctx.costs))]

    @property
    def evictions_by_user(self) -> Optional[np.ndarray]:
        """:math:`m(i, t)` per user as an int64 array (``None`` before
        the first reset)."""
        return np.array(self._m, dtype=np.int64) if self._m else None

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

    def _clamp(self, budget: float) -> float:
        """Snap float-noise negatives to 0.

        For convex costs budgets are non-negative in exact arithmetic
        (the minimum is evicted exactly when it reaches 0), but the
        lazy offsets introduce last-ulp rounding; values within
        tolerance of 0 are snapped.  Genuinely negative budgets are
        *legal* for non-convex costs (§2.5 arbitrary-cost mode: the
        same-user uplift ``f'(m+2) - f'(m+1)`` can be negative) and are
        passed through unchanged.
        """
        if budget >= 0.0:
            return budget
        if budget > -1e-9 * max(1.0, abs(self._y)):
            return 0.0
        return budget

    def _vacate(self, user: int) -> None:
        """*user* lost its last page: its tenant entry and its place in
        the stale order go now, so a later first page pushes a new entry
        behind the users that entered before it, as in an eager index."""
        self._stale.pop(user, None)
        if user in self._top:
            self._top.remove(user)

    def fresh_budget(self, user: int) -> float:
        """``B ← f'_i(m(i, t-1) + 1)`` for a page of *user* being (re)set.

        Kept per user and recomputed only when the user's eviction
        count changes (hot path — every hit refresh)."""
        return self._fresh[user]

    def budget_of(self, page: int) -> float:
        """Current budget ``B(p)`` of a resident page (for inspection/tests)."""
        user = self._owners_list[page]
        return self._clamp(self._heaps[user].key_of(page) - self._y + self._V[user])

    # ------------------------------------------------------------------
    def on_hit(self, page: int, t: int) -> None:
        """Hit refresh: ``B(p_t) <- f'(m+1)`` (Fig. 3, first bullet)."""
        user = self._owners_list[page]
        self._heaps[user].update(page, self._fresh[user] + self._y - self._V[user])
        self._stale[user] = None

    def on_hit_batch(self, pages, ts) -> None:
        """Eviction counts are frozen within a hit run, so the per-user
        fresh budget is constant and refreshing a page is idempotent:
        refresh each distinct page exactly once."""
        owners = self._owners_list
        heaps = self._heaps
        fresh = self._fresh
        V = self._V
        y = self._y
        stale = self._stale
        for page in dict.fromkeys(pages):
            user = owners[page]
            heaps[user].update(page, fresh[user] + y - V[user])
            stale[user] = None

    def on_insert(self, page: int, t: int) -> None:
        """Fetch: index the page with a fresh budget."""
        user = self._owners_list[page]
        heap = self._heaps.get(user)
        if heap is None:
            heap = self._heaps[user] = AddressableHeap()
        heap.push(page, self._fresh[user] + self._y - self._V[user])
        self._stale[user] = None

    def choose_victim(self, page: int, t: int) -> int:
        """Fig. 3 step 1: the resident page with the smallest budget."""
        heaps = self._heaps
        top = self._top
        stale = self._stale
        if stale:
            V = self._V
            for user in stale:
                top.push_or_update(user, heaps[user].peek()[1] + V[user])
            stale.clear()
        return heaps[top.peek()[0]].peek()[0]

    def on_evict(self, page: int, t: int) -> None:
        """Fig. 3 steps 3-4: the y jump + same-user uplift."""
        user = self._owners_list[page]
        heap = self._heaps[user]
        V = self._V
        budget = heap.remove(page) - self._y + V[user]
        if budget < 0.0:
            budget = self._clamp(budget)

        # Step 3 (Fig. 3): subtract the evicted budget from every other
        # resident page — the discrete y_t jump of size B(p).
        self._y += budget
        if heap:
            self._stale[user] = None
        else:
            self._vacate(user)

        # Step 4: the evicted user's pages now face a steeper gradient.
        # The uplift f'(m+2) - f'(m+1) at m = m(i(p), t-1) reuses the
        # kept fresh budget f'(m+1); f'(m+2) becomes the next one.
        before = self._fresh[user]
        m = self._m[user] + 1
        self._m[user] = m
        after = self._fresh[user] = self._gradient(user, m + 1)
        uplift = after - before
        if uplift != 0.0:
            V[user] += uplift

    def on_flush(self, page: int, t: int) -> None:
        """Externally-forced removal (e.g. tenant migration): forget the
        page without the Fig. 3 dual updates — the page was not the
        minimum-budget victim, so subtracting its budget from everyone
        would drive other budgets negative, and no miss occurred."""
        user = self._owners_list[page]
        heap = self._heaps[user]
        heap.remove(page)
        if heap:
            self._stale[user] = None
        else:
            self._vacate(user)

    # ------------------------------------------------------------------
    def resident_budgets(self) -> Dict[int, float]:
        """Snapshot ``{page: B(p)}`` for all resident pages (tests/examples)."""
        out: Dict[int, float] = {}
        for user, heap in self._heaps.items():
            corr = -self._y + self._V[user]
            for page, key in heap.items():
                out[page] = key + corr
        return out

    def __repr__(self) -> str:
        return (
            f"AlgDiscrete(derivative_mode={self.derivative_mode!r}, "
            f"smoothing_window={self.smoothing_window})"
        )


__all__ = ["AlgDiscrete", "DERIVATIVE_MODES"]
