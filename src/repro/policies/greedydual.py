"""GreedyDual — Young's primal-dual weighted-caching algorithm [20].

The paper's Theorem 1.1 specialises to weighted caching when every
:math:`f_i` is linear (:math:`\\alpha = 1`), where Young's GreedyDual
is the classical :math:`k`-competitive algorithm.  Implemented here as
the baseline for experiment E6 (the linear-cost reduction) and as a
reference point for ALG-DISCRETE's behaviour.

Algorithm (inflation formulation): maintain a global "water level"
:math:`L`; each resident page carries credit :math:`H(p) = L_{set} +
w(p)` where :math:`w(p)` is the weight of the page (its owner's per-
miss cost).  On a hit or insert the credit refreshes to the current
:math:`L + w(p)`.  To evict, take the page with minimum credit and
raise :math:`L` to that credit — equivalent to the textbook "subtract
the minimum from everyone" without the O(k) sweep.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.sim.policy import EvictionPolicy, SimContext
from repro.util.heap import AddressableHeap


class GreedyDualPolicy(EvictionPolicy):
    """Weighted caching via GreedyDual.

    Parameters
    ----------
    weights:
        Optional explicit per-user weights.  When omitted the policy
        derives :math:`w_i = f_i(1) - f_i(0)` from the context's cost
        functions — the exact per-miss cost when the :math:`f_i` are
        linear, and the first marginal otherwise.  Costs with a free
        allowance (first marginal 0, e.g. SLA refunds) fall back to the
        average per-miss cost over ``reference_misses``,
        :math:`f_i(R)/R` — GreedyDual has no notion of curvature, so a
        single representative weight is the best a weighted-caching
        baseline can do (which is exactly the gap the paper's algorithm
        closes).
    reference_misses:
        The horizon :math:`R` for the fallback weight.
    """

    name = "greedydual"
    requires_costs = False  # can run from explicit weights alone

    def __init__(
        self, weights: Optional[np.ndarray] = None, reference_misses: int = 1000
    ) -> None:
        self._explicit_weights = (
            None if weights is None else np.asarray(weights, dtype=float)
        )
        if reference_misses < 1:
            raise ValueError(f"reference_misses must be >= 1, got {reference_misses}")
        self.reference_misses = int(reference_misses)
        self._weights: Optional[np.ndarray] = None
        self._owners: Optional[np.ndarray] = None
        self._level = 0.0
        self._heap: AddressableHeap[int] = AddressableHeap()

    def reset(self, ctx: SimContext) -> None:
        if self._explicit_weights is not None:
            if self._explicit_weights.size < ctx.num_users:
                raise ValueError(
                    f"need {ctx.num_users} weights, got {self._explicit_weights.size}"
                )
            self._weights = self._explicit_weights
        elif ctx.costs is not None:

            def derive_weight(f) -> float:
                w = f.marginal(1)
                if w > 0:
                    return w
                # Free-allowance costs: average per-miss cost over a
                # reference horizon, doubling until the cost function
                # becomes positive (allowances can exceed any fixed
                # horizon on long traces).
                R = self.reference_misses
                for _ in range(60):
                    value = float(f.value(R))
                    if value > 0:
                        return value / R
                    R *= 2
                raise ValueError(
                    f"cost function {f!r} appears identically zero; "
                    "GreedyDual cannot derive a weight"
                )

            self._weights = np.array(
                [derive_weight(f) for f in ctx.costs[: ctx.num_users]], dtype=float
            )
        else:
            self._weights = np.ones(max(ctx.num_users, 1), dtype=float)
        if np.any(self._weights <= 0.0):
            raise ValueError("GreedyDual weights must be positive")
        self._owners = ctx.owners
        self._level = 0.0
        self._heap = AddressableHeap()

    def _credit(self, page: int) -> float:
        return self._level + float(self._weights[self._owners[page]])

    def on_hit(self, page: int, t: int) -> None:
        self._heap.update(page, self._credit(page))

    def on_hit_batch(self, pages, ts) -> None:
        # The level L only moves on evictions, so every hit in a run
        # refreshes to the same credit: refresh each distinct page once.
        update = self._heap.update
        for page in dict.fromkeys(pages):
            update(page, self._credit(page))

    def on_insert(self, page: int, t: int) -> None:
        self._heap.push(page, self._credit(page))

    def choose_victim(self, page: int, t: int) -> int:
        item, credit = self._heap.peek()
        # Raising the level to the evicted credit implements the
        # "subtract the minimum residual from everyone" step lazily.
        self._level = credit
        return item

    def on_evict(self, page: int, t: int) -> None:
        self._heap.remove(page)


__all__ = ["GreedyDualPolicy"]
