"""Theorem 1.4 — the adversarial lower-bound instance (paper §4).

The construction: *n* users, each owning a single page; cache size
:math:`k = n - 1`; cost :math:`f_i(x) = x^{\\beta}`.  At every step the
adversary requests exactly the one page missing from the *online
algorithm's* cache, forcing a miss (hence an eviction) on every request
after warm-up.  Meanwhile an offline strategy that batches evictions —
one per :math:`(n-1)/2` requests, always evicting the page with the
fewest evictions so far that is not requested within the batch — pays
only :math:`\\approx (4T/n^2)^{\\beta} n`, while the online algorithm
pays at least :math:`(T/n)^{\\beta} n`.  The ratio is
:math:`\\Omega(k)^{\\beta}` — concretely :math:`(n/4)^{\\beta}`.

Because the request sequence depends on the online algorithm's state,
it cannot be a static :class:`~repro.sim.trace.Trace`; the
:class:`AdaptiveAdversary` drives the policy step by step, mirroring
the engine mechanics, and *records* the sequence it generated so the
offline strategies can then run on it as an ordinary trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cost_functions import CostFunction, MonomialCost
from repro.sim.engine import CacheState, SimResult, simulate
from repro.sim.policy import EvictionPolicy, SimContext
from repro.sim.trace import Trace
from repro.util.validation import check_positive_int


def lower_bound_costs(n: int, beta: float) -> List[MonomialCost]:
    """The instance's cost functions :math:`f_i(x) = x^{\\beta}`."""
    return [MonomialCost(beta) for _ in range(n)]


@dataclass
class AdversarialRun:
    """Outcome of driving one online policy with the §4 adversary."""

    trace: Trace
    online_result: SimResult

    def online_cost(self, costs: Sequence[CostFunction]) -> float:
        return self.online_result.cost(costs)


class AdaptiveAdversary:
    """Generates the request-the-missing-page sequence for a policy.

    The first :math:`n-1` requests are pages ``0..n-2`` (filling the
    cache); from then on, each request is the unique page outside the
    policy's cache, which by construction is a miss forcing an
    eviction.
    """

    def __init__(self, n: int, T: int) -> None:
        self.n = check_positive_int(n, "n")
        if self.n < 2:
            raise ValueError("need n >= 2 users")
        self.T = check_positive_int(T, "T")
        if self.T < self.n:
            raise ValueError("need T >= n so the adversary phase is non-empty")

    def run(
        self,
        policy: EvictionPolicy,
        costs: Optional[Sequence[CostFunction]] = None,
    ) -> AdversarialRun:
        """Drive *policy*; return the generated trace and online result.

        Every request goes through the engine's own miss step
        (:meth:`repro.sim.engine.CacheState.admit`) — property tests
        cross-check by re-simulating the recorded trace through
        :func:`repro.sim.engine.simulate` and asserting identical miss
        counts.
        """
        n, T, k = self.n, self.T, self.n - 1
        owners = np.arange(n, dtype=np.int64)  # page i owned by user i
        if policy.requires_future:
            raise ValueError("the adversary only makes sense against online policies")
        if policy.requires_costs and costs is None:
            raise ValueError(f"{policy.name} requires cost functions")

        ctx = SimContext(
            k=k,
            owners=owners,
            num_users=n,
            costs=costs,
            trace=None,
            num_pages=n,
            horizon=T,
        )
        policy.reset(ctx)

        state = CacheState(policy, k, n)
        requests: List[int] = []
        for t in range(T):
            # The smallest non-resident page: 0, 1, ... while the cache
            # fills, then the one page left out, so every request misses.
            page = state.res.index(0)
            requests.append(page)
            state.admit(page, t)
        user_misses = np.bincount(requests, minlength=n)  # owner(page) == page

        trace = Trace(
            np.asarray(requests, dtype=np.int64),
            owners,
            name=f"adversarial(n={n},T={T})",
        )
        result = SimResult(
            policy_name=policy.name,
            trace_name=trace.name,
            k=k,
            hits=0,
            misses=int(user_misses.sum()),
            user_misses=user_misses,
            final_cache=state.resident(),
        )
        return AdversarialRun(trace=trace, online_result=result)


class BatchedOfflinePolicy(EvictionPolicy):
    """The §4 offline strategy, generalised to run on any trace.

    Time is split into batches of length ``batch_len`` (the paper uses
    :math:`(n-1)/2`).  On a miss, the victim is a resident page that is
    **not requested before the end of the current batch** — so at most
    one miss occurs per batch on the adversarial instance — choosing,
    among candidates, the page evicted fewest times so far (the
    balancing rule that keeps every user's count near the average),
    breaking remaining ties by furthest next use.
    """

    name = "batched-offline"
    requires_future = True

    def __init__(self, batch_len: int) -> None:
        self.batch_len = check_positive_int(batch_len, "batch_len")
        self._table: Optional[np.ndarray] = None
        self._next_use: dict[int, int] = {}
        self._evictions: dict[int, int] = {}
        self._T = 0

    def reset(self, ctx: SimContext) -> None:
        if ctx.trace is None:
            raise ValueError("BatchedOfflinePolicy requires the trace")
        self._table = ctx.trace.next_use_table()
        self._T = ctx.trace.length
        self._next_use = {}
        self._evictions = {}

    def on_hit(self, page: int, t: int) -> None:
        self._next_use[page] = int(self._table[t])

    def on_insert(self, page: int, t: int) -> None:
        self._next_use[page] = int(self._table[t])

    def choose_victim(self, page: int, t: int) -> int:
        batch_end = ((t // self.batch_len) + 1) * self.batch_len
        best: Optional[Tuple[int, int, int]] = None
        best_page = -1
        for candidate, nxt in self._next_use.items():
            outside_batch = 0 if nxt >= batch_end else 1
            key = (outside_batch, self._evictions.get(candidate, 0), -nxt)
            if best is None or key < best:
                best = key
                best_page = candidate
        return best_page

    def on_evict(self, page: int, t: int) -> None:
        del self._next_use[page]
        self._evictions[page] = self._evictions.get(page, 0) + 1


@dataclass
class LowerBoundMeasurement:
    """One cell of the Theorem 1.4 experiment."""

    n: int
    k: int
    beta: float
    T: int
    online_cost: float
    offline_cost: float
    online_misses: np.ndarray
    offline_misses: np.ndarray

    @property
    def ratio(self) -> float:
        return self.online_cost / self.offline_cost if self.offline_cost > 0 else np.inf

    @property
    def theoretical_ratio(self) -> float:
        """The paper's :math:`(n/4)^{\\beta}` lower-bound guarantee."""
        return (self.n / 4.0) ** self.beta


def measure_lower_bound(
    policy_factory: Callable[[], EvictionPolicy],
    n: int,
    beta: float,
    T: int,
) -> LowerBoundMeasurement:
    """Run the Theorem 1.4 instance against one online policy.

    ``policy_factory`` builds a fresh policy (e.g.
    ``lambda: AlgDiscrete()`` or ``lambda: LRUPolicy()``); the offline
    comparator is :class:`BatchedOfflinePolicy` with the paper's batch
    length :math:`\\max(1, (n-1)/2)` run on the recorded sequence.
    """
    costs = lower_bound_costs(n, beta)
    adversary = AdaptiveAdversary(n=n, T=T)
    run = adversary.run(policy_factory(), costs=costs)

    batch_len = max(1, (n - 1) // 2)
    offline = simulate(run.trace, BatchedOfflinePolicy(batch_len), n - 1)

    from repro.sim.metrics import cost_of_misses

    return LowerBoundMeasurement(
        n=n,
        k=n - 1,
        beta=float(beta),
        T=T,
        online_cost=cost_of_misses(run.online_result.user_misses, costs),
        offline_cost=cost_of_misses(offline.user_misses, costs),
        online_misses=run.online_result.user_misses,
        offline_misses=offline.user_misses,
    )


__all__ = [
    "lower_bound_costs",
    "AdversarialRun",
    "AdaptiveAdversary",
    "BatchedOfflinePolicy",
    "LowerBoundMeasurement",
    "measure_lower_bound",
]
