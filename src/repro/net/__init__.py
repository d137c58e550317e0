"""Cache-network hierarchies: topologies, routing, admission, and
end-to-end latency on top of the single-cache engine.

The paper's convex-cost model is motivated by CDN/edge economics; this
package provides the network setting.  A :class:`Topology` (path /
tree / edge→origin star) places one cache per node, each running any
registered eviction policy; :class:`NetworkSim` walks every request
from its ingress leaf toward the origin under pluggable routing
(:data:`ROUTING_REGISTRY`) and admission (:data:`STRATEGY_REGISTRY`)
strategies, with optional bounded ingress queues that reject (bypass)
rather than miss.  Outputs are first-class
:class:`~repro.net.metrics.NetResult` objects: exact end-to-end latency
distributions, per-node ledgers, and the hierarchy-level convex tenant
cost :math:`\\sum_i f_i(\\cdot)`.

A degenerate single-node topology is bit-identical to
:func:`repro.sim.engine.simulate` (test-enforced for every registered
policy): every node is a kernel cache state
(:class:`repro.sim.engine.CacheState`), walked in one process.

Quickstart::

    from repro import workloads
    from repro.net import path_topology, simulate_network

    topo = path_topology(depth=3, k=64, origin_delay=10.0)
    trace = workloads.zipf_trace(
        num_pages=4096, length=200_000, skew=0.9, seed=0)
    result = simulate_network(topo, trace, policy="lru", strategy="lcd")
    print(result.network_hit_ratio, result.latency.mean())

or from the shell: ``python -m repro.net run --topology path --depth 3
--k 64 --zipf 0.9 --length 200000``.
"""

from repro.net.metrics import LatencyDist, NetResult, NodeStats
from repro.net.netsim import (
    NetGridRun,
    NetworkSim,
    network_many,
    simulate_network,
)
from repro.net.strategies import (
    ROUTING_REGISTRY,
    STRATEGY_REGISTRY,
    AdmissionStrategy,
    EdgeOnly,
    LeaveCopyDown,
    LeaveCopyEverywhere,
    NearestCopy,
    ProbAdmit,
    ProbCache,
    RouteToOrigin,
    RoutingStrategy,
    make_routing,
    make_strategy,
)
from repro.net.topology import (
    TOPOLOGY_FACTORIES,
    Link,
    NodeSpec,
    Topology,
    edge_origin_topology,
    path_topology,
    single_node_topology,
    tree_topology,
)

__all__ = [
    "AdmissionStrategy",
    "EdgeOnly",
    "LatencyDist",
    "LeaveCopyDown",
    "LeaveCopyEverywhere",
    "Link",
    "NearestCopy",
    "NetGridRun",
    "NetResult",
    "NetworkSim",
    "NodeSpec",
    "NodeStats",
    "ProbAdmit",
    "ProbCache",
    "ROUTING_REGISTRY",
    "RouteToOrigin",
    "RoutingStrategy",
    "STRATEGY_REGISTRY",
    "TOPOLOGY_FACTORIES",
    "Topology",
    "edge_origin_topology",
    "make_routing",
    "make_strategy",
    "network_many",
    "path_topology",
    "simulate_network",
    "single_node_topology",
    "tree_topology",
]
