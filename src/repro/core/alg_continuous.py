"""ALG-CONT — the paper's continuous primal-dual algorithm (Fig. 2).

The continuous algorithm raises the dual variable :math:`y^\\circ_t`
until the first resident page's optimality slack

.. math::

   f'_{i(p')}\\bigl(m(i(p'), t-1) + 1\\bigr)
   \\;-\\; \\sum_{t'=t(p',j)+1}^{t} y^\\circ_{t'}
   \\;+\\; z^\\circ(p', j)

reaches zero; that page is evicted (its :math:`x^\\circ` is set to 1).
While :math:`y_t` rises, the :math:`z^\\circ` of every page *outside*
the cache (except :math:`p_t`) rises at the same rate, preserving the
complementary-slackness equality (2b) for already-evicted intervals.

All continuous motion collapses to one jump per eviction — :math:`y_t`
rises by exactly the minimum slack (the paper's §2.5: ":math:`y_t`
increases in iteration :math:`t` by the current value of :math:`B(p)`
when page :math:`p` is evicted") — so this implementation shares the
budget arithmetic (and the two-level
:class:`~repro.core.budget_index.BudgetIndex`, hence tie-breaking) with
:class:`~repro.core.alg_discrete.AlgDiscrete` and provably makes
identical eviction decisions (tested), while additionally recording the
complete dual solution in a :class:`~repro.core.ledger.PrimalDualLedger`
for machine-checking the paper's Lemma 2.1 invariants.

A resident page's slack relates to the discrete budget by
``slack(p) = B(p)``: the gradient term refreshes on every request and
eviction of the owner (Fig. 3 steps 2/4) and the accumulated
:math:`y` subtraction is Fig. 3's step 3; :math:`z^\\circ` of a
resident page is always zero by complementary slackness (2a).
"""

from __future__ import annotations

from typing import Optional, Sequence, Set

import numpy as np

from repro.core.budget_index import BudgetIndex
from repro.core.cost_functions import CostFunction
from repro.core.ledger import PrimalDualLedger
from repro.sim.policy import EvictionPolicy, SimContext


class AlgContinuous(EvictionPolicy):
    """ALG-CONT with full dual-ledger recording.

    Parameters
    ----------
    derivative_mode:
        ``'continuous'`` for :math:`f'` (the Fig. 2 / Theorem 1.1
        setting), ``'marginal'`` for the discrete derivative (§2.5).

    Attributes
    ----------
    ledger:
        After a run, the complete :math:`(x^\\circ, y^\\circ, z^\\circ)`
        record for invariant checking.
    """

    name = "alg-cont"
    requires_costs = True

    def __init__(self, derivative_mode: str = "continuous") -> None:
        if derivative_mode not in ("continuous", "marginal"):
            raise ValueError(
                f"derivative_mode must be 'continuous' or 'marginal', got {derivative_mode!r}"
            )
        self.derivative_mode = derivative_mode
        self._costs: Optional[Sequence[CostFunction]] = None
        self._owners: Optional[np.ndarray] = None
        self.ledger: Optional[PrimalDualLedger] = None
        # Same structure/arithmetic as AlgDiscrete so decisions match.
        self._index = BudgetIndex()
        self._evictions_by_user: Optional[np.ndarray] = None
        self._fresh_cache: dict = {}
        #: Pages whose *current* interval has x = 1 (outside the cache,
        #: requested before) — the set whose z rises with y.
        self._evicted_now: Set[int] = set()
        #: The page being served when an eviction is in flight; the
        #: paper excludes p_t from the z-raise.
        self._pending_request: Optional[int] = None

    # ------------------------------------------------------------------
    def reset(self, ctx: SimContext) -> None:
        if ctx.costs is None:
            raise ValueError("AlgContinuous requires per-user cost functions")
        self._costs = ctx.costs
        self._owners = ctx.owners
        self.ledger = PrimalDualLedger(
            num_pages=ctx.num_pages, num_users=ctx.num_users, T=ctx.horizon
        )
        self._index = BudgetIndex()
        self._evictions_by_user = np.zeros(max(ctx.num_users, 1), dtype=np.int64)
        self._fresh_cache = {}
        self._evicted_now = set()
        self._pending_request = None

    # ------------------------------------------------------------------
    def _gradient(self, user: int, m: int) -> float:
        f = self._costs[user]
        if self.derivative_mode == "continuous":
            return float(f.derivative(float(m)))
        return f.marginal(m)

    def _fresh_budget(self, user: int) -> float:
        # Cached per user between evictions (hot path; see AlgDiscrete).
        cached = self._fresh_cache.get(user)
        if cached is None:
            cached = self._gradient(user, int(self._evictions_by_user[user]) + 1)
            self._fresh_cache[user] = cached
        return cached

    def slack_of(self, page: int) -> float:
        """Current optimality slack of a resident page (== its budget)."""
        return self._index.budget_of(page)

    # ------------------------------------------------------------------
    def on_hit(self, page: int, t: int) -> None:
        # The hit opens a new interval j+1 with x = 0 and a fresh slack.
        self.ledger.record_request(page, t)
        user = int(self._owners[page])
        self._index.refresh(page, self._fresh_budget(user))

    def on_insert(self, page: int, t: int) -> None:
        self.ledger.record_request(page, t)
        # If the page was outside the cache with x = 1, its old interval
        # closes; the new interval starts with x = 0 and z = 0.
        self._evicted_now.discard(page)
        user = int(self._owners[page])
        self._index.insert(page, user, self._fresh_budget(user))

    def choose_victim(self, page: int, t: int) -> int:
        self._pending_request = page
        victim, _user, _budget = self._index.min_page()
        return victim

    def on_evict(self, page: int, t: int) -> None:
        user = int(self._owners[page])
        delta = self._index.remove(page)  # = min slack = the y_t jump

        # Record the continuous motion's endpoint: y_t rose by `delta`,
        # and z of every page outside the cache — except the requested
        # page p_t, which the paper explicitly excludes — rose in
        # lockstep.  The victim itself reaches slack 0 exactly at this
        # moment, so its x is set *before* z starts accruing on it:
        # z(p, j) of the victim's interval stays 0 for this jump and
        # grows only on later jumps within the same interval, matching
        # Fig. 2 where z rises only for pages already outside the cache.
        self.ledger.record_y_jump(t, delta)
        if delta != 0.0:
            for outside in self._evicted_now:
                if outside == self._pending_request:
                    continue
                self.ledger.record_z_increase(
                    outside, self.ledger.current_interval(outside), delta
                )
        self.ledger.record_eviction(page, user, t)
        self._evicted_now.add(page)

        self._index.subtract_from_all(delta)

        # One derivative per eviction, as in AlgDiscrete.on_evict.
        before = self._fresh_budget(user)
        m = int(self._evictions_by_user[user]) + 1
        self._evictions_by_user[user] = m
        after = self._fresh_cache[user] = self._gradient(user, m + 1)
        uplift = after - before
        if uplift != 0.0:
            self._index.uplift_user(user, uplift)

    def on_flush(self, page: int, t: int) -> None:
        """Externally-forced removal (e.g. tenant migration): forget the
        page without dual updates.  The ledger records the eviction (the
        page did leave the cache, so its interval's x is 1) but no y
        jump — invariant (2b) is not maintained across flushes, which
        only the multi-pool simulator performs."""
        user = int(self._owners[page])
        self._index.remove(page)
        self.ledger.record_eviction(page, user, t)
        self._evicted_now.add(page)
        self._evictions_by_user[user] += 1
        self._fresh_cache.pop(user, None)

    def __repr__(self) -> str:
        return f"AlgContinuous(derivative_mode={self.derivative_mode!r})"


__all__ = ["AlgContinuous"]
