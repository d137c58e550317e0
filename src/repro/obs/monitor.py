"""Live invariant-drift monitoring for the paper's budget algorithm.

:mod:`repro.core.invariants` machine-checks the full Lemma 2.1 KKT
conditions *post hoc* from a recorded primal-dual ledger — exact, but
only available after a run and only for ALG-CONT.  A long-running
server needs the complementary live view: sample the cheap structural
consequences of those invariants from ALG-DISCRETE's state *while
requests flow*, and flag drift the moment it appears instead of after
a billion requests.

:class:`InvariantMonitor` samples, per tenant, the running miss count
:math:`m_i`, the objective term :math:`f_i(m_i)`, and the fresh-budget
marginal quote :math:`f_i'(m_i + 1)`, plus every resident page budget,
and checks:

* **budget-nonneg** — resident budgets stay :math:`\\ge 0` for convex
  costs (Fig. 3 evicts the minimum exactly when it reaches 0; a
  negative budget means the dual update drifted — e.g. a lost uplift
  or a double subtraction).  One flag per tenant per sample names the
  tenant's most negative page, its budget (the flag's magnitude) and
  the count of negative pages;
* **fresh-budget** — the cached fresh budget equals
  :math:`f_i'(m_i^{ev} + 1)` recomputed from the cost function at the
  policy's own eviction count (cache-invalidation drift);
* **eviction-bound** — per-tenant evictions never exceed fetch misses
  (each eviction is triggered by exactly one miss);
* **miss-monotone** — per-tenant miss counts never decrease between
  samples (counter corruption);
* **quote-monotone** — for convex costs the marginal quote
  :math:`f_i'(m_i+1)` is non-decreasing in time (convexity of
  :math:`f_i` + miss monotonicity).

Each failed check appends a :class:`DriftFlag`; a clean ALG-DISCRETE
run produces none (test-enforced, as is catching an injected budget
violation).  Samples are kept so per-tenant trajectories can be
plotted or exported after the run (:meth:`InvariantMonitor.trajectory`).

:func:`watch_simulation` is the offline entry point: replay a trace
through the serving core of a one-shard server (bit-identical to
``simulate()``) sampling the monitor every ``every`` requests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cost_functions import CostFunction


@dataclass(frozen=True)
class DriftFlag:
    """One detected invariant drift."""

    kind: str
    t: int
    tenant: Optional[int]
    detail: str
    magnitude: float = 0.0


@dataclass(frozen=True)
class MonitorSample:
    """One sampling instant's per-tenant state."""

    t: int
    misses: Tuple[int, ...]
    costs: Tuple[float, ...]
    quotes: Tuple[float, ...]
    evictions: Tuple[int, ...]
    min_budget: Optional[float] = None


def _policy_gradient(
    policy: object, f: CostFunction, m_plus_1: int
) -> float:
    """The fresh-budget gradient in the policy's own derivative mode."""
    mode = getattr(policy, "derivative_mode", "continuous")
    if mode == "marginal":
        return f.marginal(m_plus_1)
    if mode == "smoothed":
        W = int(getattr(policy, "smoothing_window", 1))
        return (float(f.value(m_plus_1 - 1 + W)) - float(f.value(m_plus_1 - 1))) / W
    return float(f.derivative(float(m_plus_1)))


@dataclass
class InvariantMonitor:
    """Sample-and-check drift monitor for ALG-DISCRETE-style policies.

    Parameters
    ----------
    costs:
        Per-tenant cost functions (the instance the policy runs with).
    tol:
        Relative tolerance on budget non-negativity and fresh-budget
        equality (scaled by the magnitude of the compared values).
    convexity_m_max:
        Range over which per-tenant convexity is probed once at
        construction (gates the convex-only checks).
    """

    costs: Sequence[CostFunction]
    tol: float = 1e-6
    convexity_m_max: int = 512
    flags: List[DriftFlag] = field(default_factory=list)
    samples: List[MonitorSample] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._convex: Tuple[bool, ...] = tuple(
            f.is_convex_on_integers(self.convexity_m_max) for f in self.costs
        )

    # ------------------------------------------------------------------
    @property
    def ok(self) -> bool:
        return not self.flags

    def _flag(
        self,
        kind: str,
        t: int,
        tenant: Optional[int],
        detail: str,
        magnitude: float = 0.0,
    ) -> None:
        self.flags.append(DriftFlag(kind, t, tenant, detail, magnitude))

    # ------------------------------------------------------------------
    def sample(
        self,
        t: int,
        misses_by_user: Sequence[int],
        policies: Sequence[object] = (),
    ) -> MonitorSample:
        """Record one sampling instant and run every check.

        Parameters
        ----------
        t:
            The global request clock at the sample.
        misses_by_user:
            Per-tenant fetch-miss counts so far (the ledger's
            :math:`m_i` / the engine's ``user_misses``).
        policies:
            The live policy instance(s) — one per shard.  Policies
            without ALG-DISCRETE's introspection surface
            (``resident_budgets`` / ``evictions_by_user`` /
            ``fresh_budget``) are skipped by the budget checks; the
            trajectory checks run regardless.
        """
        n = len(self.costs)
        misses = tuple(int(m) for m in misses_by_user[:n])
        costs = tuple(float(f.value(m)) for f, m in zip(self.costs, misses))
        quotes = tuple(
            float(f.derivative(m + 1)) for f, m in zip(self.costs, misses)
        )

        evictions = np.zeros(n, dtype=np.int64)
        min_budget: Optional[float] = None
        negative: Dict[Optional[int], Tuple[float, int, int]] = {}
        for policy in policies:
            ev = getattr(policy, "evictions_by_user", None)
            if ev is not None:
                evictions[: min(n, len(ev))] += np.asarray(ev[:n], dtype=np.int64)
            budgets = self._budgets_of(policy)
            if budgets:
                self._find_negative(policy, budgets, negative)
                lo = min(budgets.values())
                min_budget = lo if min_budget is None else min(min_budget, lo)
            self._check_fresh_budgets(policy, t)
        for tenant, (budget, page, count) in negative.items():
            self._flag(
                "budget-nonneg",
                t,
                tenant,
                f"resident page {page} has budget {budget} < 0 "
                f"({count} negative resident pages)",
                -budget,
            )

        self._check_eviction_bound(t, misses, evictions)
        if self.samples:
            self._check_trajectories(t, misses, quotes)

        sample = MonitorSample(
            t=t,
            misses=misses,
            costs=costs,
            quotes=quotes,
            evictions=tuple(int(e) for e in evictions),
            min_budget=min_budget,
        )
        self.samples.append(sample)
        return sample

    # ------------------------------------------------------------------
    # Individual checks
    # ------------------------------------------------------------------
    @staticmethod
    def _budgets_of(policy: object) -> Dict[int, float]:
        getter = getattr(policy, "resident_budgets", None)
        return getter() if callable(getter) else {}

    def _find_negative(
        self,
        policy: object,
        budgets: Dict[int, float],
        worst: Dict[Optional[int], Tuple[float, int, int]],
    ) -> None:
        """Fold *policy*'s negative budgets into *worst*: per tenant, the
        most negative budget, its page, and the count of negative pages.
        The sample raises one ``budget-nonneg`` flag per tenant from it —
        a drift moves every budget at once, and a flag per page would
        grow the flag list by up to k on every sample it persists."""
        owners = getattr(policy, "_owners_list", None)
        limit = -self.tol * max(1.0, max(abs(b) for b in budgets.values()))
        for page, budget in budgets.items():
            if budget >= limit:
                continue
            tenant = owners[page] if owners else None
            if tenant is not None and not self._convex[tenant]:
                continue  # negative budgets are legal for non-convex costs
            lo, lo_page, count = worst.get(tenant, (budget, page, 0))
            if budget < lo:
                lo, lo_page = budget, page
            worst[tenant] = (lo, lo_page, count + 1)

    def _check_fresh_budgets(self, policy: object, t: int) -> None:
        fresh = getattr(policy, "fresh_budget", None)
        ev = getattr(policy, "evictions_by_user", None)
        if not callable(fresh) or ev is None:
            return
        for tenant, f in enumerate(self.costs):
            expected = _policy_gradient(policy, f, int(ev[tenant]) + 1)
            actual = float(fresh(tenant))
            scale = max(1.0, abs(expected))
            if abs(actual - expected) > self.tol * scale:
                self._flag(
                    "fresh-budget",
                    t,
                    tenant,
                    f"fresh budget {actual} != f'({int(ev[tenant]) + 1}) = {expected}",
                    abs(actual - expected),
                )

    def _check_eviction_bound(
        self, t: int, misses: Tuple[int, ...], evictions: np.ndarray
    ) -> None:
        for tenant, (m, e) in enumerate(zip(misses, evictions)):
            if e > m:
                self._flag(
                    "eviction-bound",
                    t,
                    tenant,
                    f"evictions {int(e)} exceed fetch misses {m}",
                    float(e - m),
                )

    def _check_trajectories(
        self, t: int, misses: Tuple[int, ...], quotes: Tuple[float, ...]
    ) -> None:
        prev = self.samples[-1]
        for tenant in range(len(self.costs)):
            if misses[tenant] < prev.misses[tenant]:
                self._flag(
                    "miss-monotone",
                    t,
                    tenant,
                    f"miss count fell {prev.misses[tenant]} -> {misses[tenant]}",
                    float(prev.misses[tenant] - misses[tenant]),
                )
            elif (
                self._convex[tenant]
                and quotes[tenant] < prev.quotes[tenant] * (1 - self.tol) - self.tol
            ):
                self._flag(
                    "quote-monotone",
                    t,
                    tenant,
                    f"marginal quote fell {prev.quotes[tenant]} -> {quotes[tenant]}",
                    prev.quotes[tenant] - quotes[tenant],
                )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def trajectory(self, tenant: int) -> np.ndarray:
        """``(num_samples, 4)`` array of ``[t, m_i, f_i(m_i), quote]``."""
        return np.array(
            [
                [s.t, s.misses[tenant], s.costs[tenant], s.quotes[tenant]]
                for s in self.samples
            ],
            dtype=float,
        )

    def summary(self) -> str:
        if self.ok:
            return (
                f"no drift over {len(self.samples)} samples "
                f"(t <= {self.samples[-1].t if self.samples else 0})"
            )
        counts: Dict[str, int] = {}
        for flag in self.flags:
            counts[flag.kind] = counts.get(flag.kind, 0) + 1
        parts = ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
        return f"{len(self.flags)} drift flags ({parts})"


@dataclass
class MonitoredRun:
    """Outcome of :func:`watch_simulation`."""

    hits: int
    misses: int
    user_misses: np.ndarray
    monitor: InvariantMonitor
    auditor: Optional[object] = None


def watch_simulation(
    trace: "object",
    policy: "object",
    k: int,
    costs: Sequence[CostFunction],
    *,
    every: int = 256,
    monitor: Optional[InvariantMonitor] = None,
    tol: float = 1e-6,
    auditor: Optional[object] = None,
    flight: Optional[object] = None,
) -> MonitoredRun:
    """Replay *trace* stepwise, sampling *monitor* every *every* requests.

    Serves through a :class:`~repro.serve.shard.ShardGroup` over a
    single shard — the serving core of a ``workers=1`` server, which
    applies requests through the engine's own kernel — so hits/misses/
    user_misses are bit-identical to ``simulate(trace, policy, k)``
    while the monitor observes the live policy mid-run — the property
    ``tests/test_obs_monitor.py`` enforces.

    Optionally feeds every request to a
    :class:`~repro.obs.audit.CompetitiveAuditor` (finalized at the end
    of the trace) and attaches a
    :class:`~repro.obs.flight.FlightRecorder` to the shard — with the
    same auto-dump-on-new-drift behaviour as the serve consumer when
    the recorder has a ``dump_path``.
    """
    # Imported lazily: repro.serve pulls in the server, which imports
    # this module.
    from repro.serve.accounting import CostLedger
    from repro.serve.shard import ShardGroup, ShardManager, hit_flags

    if every < 1:
        raise ValueError(f"every must be >= 1, got {every}")
    if monitor is None:
        monitor = InvariantMonitor(costs, tol=tol)
    shards = ShardManager(
        policy, 1, int(k), trace.owners, costs, trace=trace,
        horizon=trace.length,
    )

    def dump() -> None:
        if flight is not None and flight.dump_path:
            flight.dump_jsonl(reason="invariant-drift")

    group = ShardGroup(
        shards, CostLedger(shards.num_users, costs), monitor, every,
        on_drift=dump,
    )
    owners = group.owners_list
    if flight is not None:
        shards.shards[0].attach_flight(flight, owners)
        flight.note_config(
            policy=policy.name,
            k=int(k),
            num_shards=1,
            source="watch_simulation",
            trace=getattr(trace, "name", None),
        )
    for t0, batch in trace.batches(every):
        pages = batch.tolist()
        misses = group.apply(pages, range(t0, t0 + len(pages)))
        if auditor is not None:
            for page, hit in zip(pages, hit_flags(len(pages), misses)):
                auditor.observe(page, owners[page], hit)
    if trace.length % every != 0:  # final partial-interval sample
        group.sample(trace.length)
    if auditor is not None:
        auditor.finalize()
    ledger = group.ledger
    return MonitoredRun(
        hits=ledger.hits,
        misses=ledger.misses,
        user_misses=ledger.misses_by_user(),
        monitor=monitor,
        auditor=auditor,
    )


__all__ = [
    "DriftFlag",
    "InvariantMonitor",
    "MonitorSample",
    "MonitoredRun",
    "watch_simulation",
]
