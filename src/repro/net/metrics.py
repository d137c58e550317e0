"""First-class network metrics: latency distributions, per-node
ledgers, and hierarchy-level convex cost.

The network simulator's outputs follow the repo's two cost axes:

* **Latency** — every served request contributes one end-to-end
  latency sample (read delays of the links crossed, both directions).
  A topology induces only a handful of distinct latencies (one per
  hit level per ingress), so :class:`LatencyDist` stores exact
  ``value -> count`` mass rather than histogram buckets: means and
  quantiles are exact, and distributions merge losslessly across
  nodes, batches, and worker processes.

* **Convex tenant cost** — the paper's :math:`\\sum_i f_i(\\cdot)`
  aggregated across the hierarchy.  The network analogue of the
  single-cache miss count :math:`a_i(\\sigma)` is the tenant's
  *origin fetches* (requests no cache in the network could serve);
  :meth:`NetResult.hierarchy_cost` prices those.  Per-node ledgers
  (:meth:`NetResult.node_costs`) price each cache's own misses, which
  is what per-node capacity planning reads.

Accounting identities (test-enforced): every request is either served
by some cache or fetched from the origin; a queue rejection at a node
is **not** a miss there — the request bypasses that cache entirely and
the node's hit/miss ledgers do not move.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.cost_functions import CostFunction


class LatencyDist:
    """Exact discrete latency distribution (``value -> count``)."""

    __slots__ = ("mass",)

    def __init__(self, mass: Optional[Dict[float, int]] = None) -> None:
        self.mass: Dict[float, int] = dict(mass or {})

    def add(self, value: float, count: int = 1) -> None:
        if count:
            self.mass[value] = self.mass.get(value, 0) + count

    def merge(self, other: "LatencyDist") -> "LatencyDist":
        for value, count in other.mass.items():
            self.add(value, count)
        return self

    @property
    def total(self) -> int:
        return sum(self.mass.values())

    def mean(self) -> float:
        """Exact-rounded mean: ``fsum`` makes it a function of the mass
        alone, not of the order in which values were first added."""
        total = self.total
        if not total:
            return 0.0
        return math.fsum(v * c for v, c in self.mass.items()) / total

    def max(self) -> float:
        return max(self.mass) if self.mass else 0.0

    def quantile(self, q: float) -> float:
        """Exact *q*-quantile (0 <= q <= 1) of the sample mass."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        total = self.total
        if not total:
            return 0.0
        need = q * total
        seen = 0
        for value in sorted(self.mass):
            seen += self.mass[value]
            if seen >= need:
                return value
        return self.max()  # pragma: no cover - float-edge fallback

    def to_rows(self) -> List[Dict[str, float]]:
        """Sorted ``{latency, count}`` rows (JSON-friendly)."""
        return [
            {"latency": v, "count": self.mass[v]} for v in sorted(self.mass)
        ]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LatencyDist) and self.mass == other.mass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LatencyDist(n={self.total}, mean={self.mean():.3f}, "
            f"p99={self.quantile(0.99):.3f})"
        )


@dataclass
class NodeStats:
    """One cache node's complete ledger for a network run.

    ``misses`` counts probes that found no copy at this node —
    regardless of whether the admission strategy then stored one.
    ``rejected`` counts queue rejections (bypasses); rejected requests
    never probe, so ``hits + misses + rejected`` equals the arrivals
    at this node.
    """

    node_id: int
    name: str
    k: int
    policy: str
    hits: int = 0
    misses: int = 0
    rejected: int = 0
    admissions: int = 0
    evictions: int = 0
    write_cost: float = 0.0
    tenant_hits: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    tenant_misses: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    tenant_rejected: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    final_cache: List[int] = field(default_factory=list)
    queue_peak: float = 0.0

    @property
    def arrivals(self) -> int:
        return self.hits + self.misses + self.rejected

    @property
    def occupancy(self) -> int:
        return len(self.final_cache)

    def cost(self, costs: Sequence[CostFunction]) -> float:
        """This node's convex cost :math:`\\sum_i f_i(m_{v,i})` over its
        own per-tenant miss ledger."""
        return float(
            sum(
                f.value(int(m))
                for f, m in zip(costs, self.tenant_misses)
            )
        )

    def as_row(self) -> Dict[str, object]:
        return {
            "node": self.name,
            "k": self.k,
            "policy": self.policy,
            "hits": self.hits,
            "misses": self.misses,
            "rejected": self.rejected,
            "admissions": self.admissions,
            "evictions": self.evictions,
            "occupancy": self.occupancy,
        }


@dataclass
class NetResult:
    """Outcome of one network simulation run."""

    topology_repr: str
    strategy: str
    routing: str
    trace_name: str
    total_requests: int
    nodes: List[NodeStats]
    origin_fetches: np.ndarray
    latency: LatencyDist
    write_cost: float = 0.0

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def network_hits(self) -> int:
        """Requests served by some cache in the network."""
        return sum(n.hits for n in self.nodes)

    @property
    def origin_total(self) -> int:
        return int(self.origin_fetches.sum())

    @property
    def rejected_total(self) -> int:
        return sum(n.rejected for n in self.nodes)

    @property
    def network_hit_ratio(self) -> float:
        if not self.total_requests:
            return 0.0
        return self.network_hits / self.total_requests

    def node(self, name: str) -> NodeStats:
        for n in self.nodes:
            if n.name == name:
                return n
        raise KeyError(f"no node named {name!r}")

    # ------------------------------------------------------------------
    # Convex cost
    # ------------------------------------------------------------------
    def hierarchy_cost(self, costs: Sequence[CostFunction]) -> float:
        """The hierarchy-level convex cost :math:`\\sum_i f_i(o_i)` over
        per-tenant **origin fetches** — the network analogue of the
        paper's :math:`\\sum_i f_i(a_i(\\sigma))` where the whole cache
        network plays the role of the single cache."""
        if len(costs) < self.origin_fetches.size:
            raise ValueError(
                f"need {self.origin_fetches.size} cost functions, "
                f"got {len(costs)}"
            )
        return float(
            sum(f.value(int(m)) for f, m in zip(costs, self.origin_fetches))
        )

    def node_costs(self, costs: Sequence[CostFunction]) -> Dict[str, float]:
        """Per-node convex cost over each cache's own miss ledger."""
        return {n.name: n.cost(costs) for n in self.nodes}

    # ------------------------------------------------------------------
    # Consistency
    # ------------------------------------------------------------------
    def check_conservation(self) -> None:
        """Raise unless the per-node ledgers aggregate consistently:
        every request is a network hit or an origin fetch, and tenant
        ledgers sum to their scalar counters."""
        served = self.network_hits + self.origin_total
        if served != self.total_requests:
            raise AssertionError(
                f"hits ({self.network_hits}) + origin ({self.origin_total}) "
                f"!= requests ({self.total_requests})"
            )
        for n in self.nodes:
            if int(n.tenant_hits.sum()) != n.hits:
                raise AssertionError(f"{n.name}: tenant hit ledger != hits")
            if int(n.tenant_misses.sum()) != n.misses:
                raise AssertionError(f"{n.name}: tenant miss ledger != misses")
            if int(n.tenant_rejected.sum()) != n.rejected:
                raise AssertionError(
                    f"{n.name}: tenant rejection ledger != rejected"
                )
        if self.latency.total != self.total_requests:
            raise AssertionError(
                f"latency samples ({self.latency.total}) != requests "
                f"({self.total_requests})"
            )

    def summary_rows(self) -> List[Dict[str, object]]:
        return [n.as_row() for n in self.nodes]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NetResult(strategy={self.strategy!r}, trace={self.trace_name!r}, "
            f"T={self.total_requests}, net_hit={self.network_hit_ratio:.3f}, "
            f"origin={self.origin_total}, rejected={self.rejected_total})"
        )


__all__ = ["LatencyDist", "NetResult", "NodeStats"]
