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
when page :math:`p` is evicted") — so this implementation is
:class:`~repro.core.alg_discrete.AlgDiscrete` (its budget state, lazy
offsets and tie-breaking) plus the recording of the complete dual
solution in a :class:`~repro.core.ledger.PrimalDualLedger` for
machine-checking the paper's Lemma 2.1 invariants.  The two make
identical eviction decisions (tested).

A resident page's slack relates to the discrete budget by
``slack(p) = B(p)``: the gradient term refreshes on every request and
eviction of the owner (Fig. 3 steps 2/4) and the accumulated
:math:`y` subtraction is Fig. 3's step 3; :math:`z^\\circ` of a
resident page is always zero by complementary slackness (2a).

Representation limit (shared with ALG-DISCRETE): slacks are stored as
``B + y − V[u]`` under lazy offsets, so two slacks closer than one ulp
of the accumulated offsets may order arbitrarily; exact-arithmetic
comparisons in tests use dyadic inputs.
"""

from __future__ import annotations

from typing import Optional

from repro.core.alg_discrete import AlgDiscrete
from repro.core.ledger import PrimalDualLedger
from repro.sim.policy import EvictionPolicy, SimContext


class AlgContinuous(AlgDiscrete):
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

    def __init__(self, derivative_mode: str = "continuous") -> None:
        if derivative_mode not in ("continuous", "marginal"):
            raise ValueError(
                f"derivative_mode must be 'continuous' or 'marginal', got {derivative_mode!r}"
            )
        super().__init__(derivative_mode)
        self.ledger: Optional[PrimalDualLedger] = None
        #: The page being served when an eviction is in flight; the
        #: paper excludes p_t from the z-raise.
        self._pending_request: Optional[int] = None

    # ------------------------------------------------------------------
    def reset(self, ctx: SimContext) -> None:
        super().reset(ctx)
        self.ledger = PrimalDualLedger(
            num_pages=ctx.num_pages, num_users=ctx.num_users, T=ctx.horizon
        )
        self._pending_request = None

    def slack_of(self, page: int) -> float:
        """Current optimality slack of a resident page (== its budget)."""
        return self.budget_of(page)

    # ------------------------------------------------------------------
    def on_hit(self, page: int, t: int) -> None:
        # The hit opens a new interval j+1 with x = 0 and a fresh slack.
        self.ledger.record_request(page, t)
        super().on_hit(page, t)

    #: The ledger records every hit, so hit runs go through ``on_hit``.
    on_hit_batch = EvictionPolicy.on_hit_batch

    def on_insert(self, page: int, t: int) -> None:
        # If the page was outside the cache with x = 1, its old interval
        # closes and its z is written; the new interval starts with
        # x = 0 and z = 0.
        self.ledger.settle_z(page)
        self.ledger.record_request(page, t)
        super().on_insert(page, t)

    def choose_victim(self, page: int, t: int) -> int:
        self._pending_request = page
        return super().choose_victim(page, t)

    def on_evict(self, page: int, t: int) -> None:
        delta = self.budget_of(page)  # = min slack = the y_t jump

        # Record the continuous motion's endpoint: y_t rose by `delta`,
        # and z of every page outside the cache — except the requested
        # page p_t, which the paper explicitly excludes — rose in
        # lockstep (the ledger's running sum, O(1) per jump).  Settling
        # p_t's interval first keeps this jump and any later one off it.
        # The victim itself reaches slack 0 exactly at this moment, so
        # its x is set *before* z starts accruing on it: z(p, j) of the
        # victim's interval stays 0 for this jump and grows only on
        # later jumps within the same interval, matching Fig. 2 where z
        # rises only for pages already outside the cache.
        ledger = self.ledger
        ledger.settle_z(self._pending_request)
        ledger.record_y_jump(t, delta)
        ledger.record_eviction(page, self._owners_list[page], t)
        ledger.accrue_z(page)
        super().on_evict(page, t)

    def on_flush(self, page: int, t: int) -> None:
        """Externally-forced removal (e.g. tenant migration): forget the
        page without dual updates.  The ledger records the eviction (the
        page did leave the cache, so its interval's x is 1) but no y
        jump — invariant (2b) is not maintained across flushes, which
        only the multi-pool simulator performs.  The owner's eviction
        count (and so its fresh slack) moves; its resident slacks do
        not."""
        user = self._owners_list[page]
        super().on_flush(page, t)
        self.ledger.record_eviction(page, user, t)
        self.ledger.accrue_z(page)
        m = self._m[user] + 1
        self._m[user] = m
        self._fresh[user] = self._gradient(user, m + 1)

    def __repr__(self) -> str:
        return f"AlgContinuous(derivative_mode={self.derivative_mode!r})"


__all__ = ["AlgContinuous"]
