"""Routing and admission strategies for cache networks.

The network simulator splits each request into two pluggable decisions,
mirroring the icarus strategy taxonomy the ROADMAP points at:

* **Routing** — which node sequence the request probes on its way to a
  copy.  ``to-origin`` walks the ingress node's tree route upward and
  stops at the first cache holding the page (the origin always does);
  ``nearest-copy`` is the oracle variant that jumps to the cheapest
  holder anywhere in the tree (smallest cumulative link read delay
  from the ingress, ties to the smaller node id) and falls back to
  the origin route when no holder beats it.

* **Admission** — after the fetch, which probed caches store a copy.
  ``lce`` (leave-copy-everywhere) admits at every cache that missed;
  ``lcd`` (leave-copy-down) only one hop below the hit, so a page
  migrates one level per request toward the edge; ``edge`` pins copies
  at the ingress cache only; ``prob`` admits independently with a
  fixed probability per cache; ``probcache`` approximates the
  ProbCache rule — admission probability grows with the remaining
  cache capacity along the path and with proximity to the edge.

Determinism: ``prob`` draws from per-node
:func:`numpy.random.Generator` streams derived with
:func:`repro.util.rng.derive_seed` from the simulation seed and the
node id — a node draws exactly once per miss it serves, in global
clock order, so no node's draws shift another node's stream.
``probcache`` draws from one stream shared across the whole network,
one draw per missing cache in walk order.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.net.topology import Topology
from repro.util.rng import derive_seed, ensure_rng


class RoutingStrategy:
    """Chooses the probe path for one request.

    ``route(ingress, page)`` returns the node-id sequence the request
    visits, ending at a node currently holding *page* (the origin
    qualifies always).  ``holds(node_id, page)`` is supplied by the
    simulator at reset."""

    name: str = "routing"

    def reset(
        self, topology: Topology, holds: Callable[[int, int], bool]
    ) -> None:
        self.topology = topology
        self.holds = holds

    def route(self, ingress: int, page: int) -> Tuple[int, ...]:
        raise NotImplementedError


class RouteToOrigin(RoutingStrategy):
    """Walk the tree route from the ingress toward the origin; the
    fetch stops at the first cache on it holding the page."""

    name = "to-origin"

    def route(self, ingress: int, page: int) -> Tuple[int, ...]:
        full = self.topology.route(ingress)
        holds = self.holds
        for i, v in enumerate(full[:-1]):
            if holds(v, page):
                return full[: i + 1]
        return full


class NearestCopy(RoutingStrategy):
    """Oracle routing to the cheapest holder anywhere in the tree.

    Scans every cache node holding the page, picks the smallest
    cumulative link ``read_delay`` from the ingress (ties to the
    smaller node id), and probes the intermediate nodes of the
    ingress→holder tree path.  With no holder — or when the plain
    to-origin route is strictly cheaper than every holder, which
    heterogeneous link delays allow — identical to
    :class:`RouteToOrigin`'s full route."""

    name = "nearest-copy"

    def reset(
        self, topology: Topology, holds: Callable[[int, int], bool]
    ) -> None:
        super().reset(topology, holds)
        self._cache_ids = [n.node_id for n in topology.cache_nodes]

    def _tree_path(self, a: int, b: int) -> Tuple[int, ...]:
        ra, rb = self.topology.route(a), self.topology.route(b)
        anc = {v: i for i, v in enumerate(ra)}
        for j, v in enumerate(rb):
            if v in anc:
                return ra[: anc[v] + 1] + rb[:j][::-1]
        return ra  # pragma: no cover - unreachable in a validated tree

    def route(self, ingress: int, page: int) -> Tuple[int, ...]:
        holds = self.holds
        topo = self.topology
        best: Optional[int] = None
        best_d = 0.0
        # _cache_ids ascend, so the first minimum ties to the smaller id.
        for v in self._cache_ids:
            if holds(v, page):
                d = topo.path_delay(ingress, v)
                if best is None or d < best_d:
                    best, best_d = v, d
        if best is None or topo.path_delay(ingress, topo.origin) < best_d:
            return topo.route(ingress)
        return self._tree_path(ingress, best)


class AdmissionStrategy:
    """Chooses which probed caches store a copy after a fetch.

    ``admit(path, page, t)`` receives the *miss path* — the node ids
    that probed and missed, edge-most first — and returns the subset
    (any order) that must admit the page.  ``hit_node`` is where the
    copy was found (a cache id, or the topology origin).
    """

    name: str = "admission"

    def reset(self, topology: Topology, seed: int = 0) -> None:
        self.topology = topology

    def admit(
        self, path: Sequence[int], hit_node: int, page: int, t: int
    ) -> List[int]:
        raise NotImplementedError


class LeaveCopyEverywhere(AdmissionStrategy):
    """Admit at every cache that missed — the classical default, and
    the strategy under which every per-node flight window is an
    engine-compatible decision stream (every recorded miss inserted)."""

    name = "lce"

    def admit(
        self, path: Sequence[int], hit_node: int, page: int, t: int
    ) -> List[int]:
        return list(path)


class LeaveCopyDown(AdmissionStrategy):
    """Admit only at the cache one hop below the hit, migrating popular
    pages one level edge-ward per request (LCD, van Leeuwaarden et al.;
    the icarus ``LCD`` on-path strategy)."""

    name = "lcd"

    def admit(
        self, path: Sequence[int], hit_node: int, page: int, t: int
    ) -> List[int]:
        return [path[-1]] if path else []


class EdgeOnly(AdmissionStrategy):
    """Admit at the ingress cache only — keeps mid-tier caches clean
    for traffic that aggregates from many edges."""

    name = "edge"

    def admit(
        self, path: Sequence[int], hit_node: int, page: int, t: int
    ) -> List[int]:
        return [path[0]] if path else []


class ProbAdmit(AdmissionStrategy):
    """Admit independently with fixed probability *p* at every cache
    that missed, from per-node RNG streams (one draw per miss, global
    clock order)."""

    name = "prob"

    def __init__(self, p: float = 0.5) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p}")
        self.p = float(p)

    def reset(self, topology: Topology, seed: int = 0) -> None:
        super().reset(topology, seed)
        self._rngs = {
            n.node_id: ensure_rng(derive_seed(seed, n.node_id))
            for n in topology.cache_nodes
        }

    def admit(
        self, path: Sequence[int], hit_node: int, page: int, t: int
    ) -> List[int]:
        p = self.p
        return [v for v in path if self._rngs[v].random() < p]


class ProbCache(AdmissionStrategy):
    """ProbCache-style probabilistic admission (Psaras et al.).

    The admission probability at a missing cache grows with (a) the
    cache capacity accumulated between the edge and that cache relative
    to the whole miss path (the *TimesIn* weight — paths through
    well-provisioned regions cache more aggressively) and (b) the
    node's proximity to the edge (copies belong near clients):

    .. math::

        p_j = \\min\\Big(1,\\;
            \\frac{\\sum_{i \\le j} k_{v_i}}{t_w \\bar k L}
            \\cdot \\frac{L - j}{L}\\Big)

    for miss-path position ``j`` (edge-most = 0) on a miss path of
    ``L`` caches with mean capacity :math:`\\bar k` over those caches —
    a simplification of the published rule, which normalizes over the
    full fetch path including the cache that served the hit
    (``hit_node`` is accepted for interface compatibility but unused).
    One RNG draw per missing cache, edge-most first, from a single
    stream shared across the network, so the decisions along a path
    are coupled.
    """

    name = "probcache"

    def __init__(self, times_in: float = 10.0) -> None:
        if times_in <= 0:
            raise ValueError(f"times_in must be > 0, got {times_in}")
        self.times_in = float(times_in)

    def reset(self, topology: Topology, seed: int = 0) -> None:
        super().reset(topology, seed)
        self._rng = ensure_rng(derive_seed(seed, topology.num_nodes))
        self._k = {n.node_id: n.k for n in topology.nodes}

    def admit(
        self, path: Sequence[int], hit_node: int, page: int, t: int
    ) -> List[int]:
        if not path:
            return []
        ks = self._k
        L = len(path)
        mean_k = sum(ks[v] for v in path) / L
        if mean_k <= 0:  # pragma: no cover - degenerate all-zero caches
            return []
        rng = self._rng
        out: List[int] = []
        acc = 0.0
        for j, v in enumerate(path):
            acc += ks[v]
            p = (acc / (self.times_in * mean_k * L)) * ((L - j) / L)
            if rng.random() < min(1.0, p):
                out.append(v)
        return out


#: name -> zero/few-argument admission-strategy factories.
STRATEGY_REGISTRY: Dict[str, Callable[..., AdmissionStrategy]] = {
    "lce": LeaveCopyEverywhere,
    "lcd": LeaveCopyDown,
    "edge": EdgeOnly,
    "prob": ProbAdmit,
    "probcache": ProbCache,
}

#: name -> routing-strategy factories.
ROUTING_REGISTRY: Dict[str, Callable[[], RoutingStrategy]] = {
    "to-origin": RouteToOrigin,
    "nearest-copy": NearestCopy,
}


def make_strategy(spec, **kwargs) -> AdmissionStrategy:
    """Resolve an admission strategy from a name, factory, or instance."""
    if isinstance(spec, AdmissionStrategy):
        return spec
    if isinstance(spec, str):
        try:
            return STRATEGY_REGISTRY[spec](**kwargs)
        except KeyError:
            known = ", ".join(sorted(STRATEGY_REGISTRY))
            raise KeyError(f"unknown strategy {spec!r}; known: {known}") from None
    return spec(**kwargs)


def make_routing(spec) -> RoutingStrategy:
    """Resolve a routing strategy from a name, factory, or instance."""
    if isinstance(spec, RoutingStrategy):
        return spec
    if isinstance(spec, str):
        try:
            return ROUTING_REGISTRY[spec]()
        except KeyError:
            known = ", ".join(sorted(ROUTING_REGISTRY))
            raise KeyError(f"unknown routing {spec!r}; known: {known}") from None
    return spec()


__all__ = [
    "AdmissionStrategy",
    "EdgeOnly",
    "LeaveCopyDown",
    "LeaveCopyEverywhere",
    "NearestCopy",
    "ProbAdmit",
    "ProbCache",
    "ROUTING_REGISTRY",
    "RouteToOrigin",
    "RoutingStrategy",
    "STRATEGY_REGISTRY",
    "make_routing",
    "make_strategy",
]
