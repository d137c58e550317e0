"""The serial network walk against a reference walk, on generated
networks.

``reference_run`` walks each request the plain way: the scalar
``page_hash`` picks a hashed ingress leaf, ``topo.route`` and
``prefix_read_delay`` are looked up on every request, the ledgers are
numpy arrays and every request adds its own latency sample.  It drives
the node state's kernel miss step (``admit``) and ``queue_admits``, so
what it checks is the walk: ingress, hop positions, rejections, the
nearest-copy continuation, ledgers, latency and admission calls.  The
property draws the topology, link delays, queues, strategy, routing,
ingress mode, policy, seeds, flight recording and batch size, and
requires every ``NetResult`` field to match.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost_functions import MonomialCost
from repro.net import NetworkSim
from repro.net.metrics import LatencyDist, NetResult, NodeStats
from repro.net.netsim import _NodeState
from repro.net.strategies import RouteToOrigin
from repro.net.topology import (
    Topology,
    edge_origin_topology,
    path_topology,
    single_node_topology,
    tree_topology,
)
from repro.obs.flight import FlightRecorder
from repro.policies import make_policy
from repro.serve.shard import page_hash
from repro.sim.policy import SimContext
from repro.workloads.builders import random_multi_tenant_trace


def _reference_ingress(sim: NetworkSim, owners: np.ndarray):
    leaves = sim.topology.ingress
    mode = sim.ingress_mode
    n = len(leaves)
    if callable(mode):

        def checked(page, t):
            v = mode(page, t)
            if v not in leaves:
                raise ValueError(f"ingress callable returned {v!r}")
            return v

        return checked
    if n == 1:
        return lambda page, t: leaves[0]
    if mode == "rr":
        return lambda page, t: leaves[t % n]
    if mode == "tenant":
        return lambda page, t: leaves[int(owners[page]) % n]
    return lambda page, t: leaves[page_hash(page) % n]


def reference_run(sim: NetworkSim, trace, batch: int):
    """One serial run, request by request; ``(NetResult, flights)``."""
    topo = sim.topology
    num_users = trace.num_users
    num_pages = trace.num_pages
    owners = np.asarray(trace.owners)
    owners_l = owners.tolist()
    width = max(num_users, 1)

    states: Dict[int, _NodeState] = {}
    names: Dict[int, str] = {}
    flights: Dict[int, FlightRecorder] = {}
    for spec in topo.cache_nodes:
        inst = make_policy(
            spec.policy or sim.policy_spec,
            None if sim.policy_seed is None else sim.policy_seed + spec.node_id,
        )
        up = topo.uplink(spec.node_id)
        st_ = _NodeState(
            spec.node_id, spec.name, inst,
            SimContext(
                k=spec.k,
                owners=owners,
                num_users=num_users,
                costs=sim.costs,
                num_pages=num_pages,
                horizon=trace.length,
            ),
            up.write_delay if up is not None else 0.0,
            spec.queue_capacity, spec.drain_rate, sim.validate,
        )
        if sim.flight_capacity is not None:
            fl = FlightRecorder(capacity=sim.flight_capacity)
            fl.note_config(
                policy=inst.name,
                k=spec.k,
                num_shards=1,
                source=f"net:{spec.name}",
                trace=getattr(trace, "name", "trace"),
                dense=False,
                policy_seed=(
                    None
                    if sim.policy_seed is None
                    else sim.policy_seed + spec.node_id
                ),
            )
            st_.attach_flight(fl, owners_l)
            flights[spec.node_id] = fl
        states[spec.node_id] = st_
        names[spec.node_id] = inst.name

    hits = {v: 0 for v in states}
    misses = {v: 0 for v in states}
    rejected = {v: 0 for v in states}
    t_hits = {v: np.zeros(width, dtype=np.int64) for v in states}
    t_misses = {v: np.zeros(width, dtype=np.int64) for v in states}
    t_rejected = {v: np.zeros(width, dtype=np.int64) for v in states}

    strategy = sim.strategy
    strategy.reset(topo, sim.seed)
    routing = sim.routing
    routing.reset(topo, lambda v, page: states[v].res[page])
    ingress_of = _reference_ingress(sim, owners)
    origin = topo.origin
    pair_delay = {}
    for link in topo.links:
        pair_delay[(link.src, link.dst)] = link.read_delay
        pair_delay[(link.dst, link.src)] = link.read_delay

    latency = LatencyDist()
    origin_fetches = np.zeros(width, dtype=np.int64)
    total = 0
    for base, chunk in trace.batches(batch):
        for i, page in enumerate(chunk.tolist()):
            t = base + i
            tenant = owners_l[page]
            v0 = ingress_of(page, t)
            miss_path: List[int] = []
            hit_node = -1
            lat = 0.0
            if isinstance(routing, RouteToOrigin):
                route = topo.route(v0)
                pre = topo.prefix_read_delay(v0)
                walk = [(v, pre[j]) for j, v in enumerate(route)]
            else:
                route = list(routing.route(v0, page))
                if route[-1] != origin:
                    route.extend(topo.route(route[-1])[1:])
                walk = []
                for j, v in enumerate(route):
                    if j:
                        lat += pair_delay[(route[j - 1], v)]
                    walk.append((v, lat))
            visited = set()
            for v, lat in walk:
                if v == origin:
                    break
                if v in visited:
                    continue
                visited.add(v)
                node = states[v]
                if node.queue_capacity is not None and not node.queue_admits(t):
                    rejected[v] += 1
                    t_rejected[v][tenant] += 1
                    continue
                if node.res[page]:
                    hits[v] += 1
                    t_hits[v][tenant] += 1
                    node.policy.on_hit(page, t)
                    if node.fl_append is not None:
                        node.fl_append((t, page, 0))
                    hit_node = v
                    break
                misses[v] += 1
                t_misses[v][tenant] += 1
                miss_path.append(v)
            if hit_node < 0:
                hit_node = origin
                origin_fetches[tenant] += 1
            latency.add(2.0 * lat)
            if miss_path:
                for v in strategy.admit(miss_path, hit_node, page, t):
                    node = states[v]
                    if not node.res[page]:
                        node.admit(page, t)
                        node.write_cost += node.uplink_write_delay
            total += 1

    nodes = [
        NodeStats(
            node_id=v,
            name=node.name,
            k=node.k,
            policy=names[v],
            hits=hits[v],
            misses=misses[v],
            rejected=rejected[v],
            admissions=node.admissions,
            evictions=node.evictions,
            write_cost=node.write_cost,
            tenant_hits=t_hits[v],
            tenant_misses=t_misses[v],
            tenant_rejected=t_rejected[v],
            final_cache=[p for p, r in enumerate(node.res) if r],
            queue_peak=node.queue_peak,
        )
        for v, node in states.items()
    ]
    result = NetResult(
        topology_repr=repr(topo),
        strategy=strategy.name,
        routing=routing.name,
        trace_name=getattr(trace, "name", "trace"),
        total_requests=total,
        nodes=nodes,
        origin_fetches=origin_fetches,
        latency=latency,
        write_cost=sum(n.write_cost for n in nodes),
    )
    return result, flights


def _same_array(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype == np.int64
    assert a.tolist() == b.tolist()


def assert_same_result(got: NetResult, want: NetResult) -> None:
    for name in (
        "topology_repr", "strategy", "routing", "trace_name",
        "total_requests", "write_cost",
    ):
        assert getattr(got, name) == getattr(want, name), name
    _same_array(got.origin_fetches, want.origin_fetches)
    assert got.latency.mass == want.latency.mass
    assert got.latency.mean() == want.latency.mean()
    assert len(got.nodes) == len(want.nodes)
    for a, b in zip(got.nodes, want.nodes):
        for name in (
            "node_id", "name", "k", "policy", "hits", "misses", "rejected",
            "admissions", "evictions", "write_cost", "final_cache",
            "queue_peak",
        ):
            assert getattr(a, name) == getattr(b, name), (a.name, name)
        _same_array(a.tenant_hits, b.tenant_hits)
        _same_array(a.tenant_misses, b.tenant_misses)
        _same_array(a.tenant_rejected, b.tenant_rejected)


# ----------------------------------------------------------------------
# Generated networks
# ----------------------------------------------------------------------
_delays = st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False)


@st.composite
def networks(draw) -> Topology:
    kind = draw(st.sampled_from(["path", "tree", "star", "single"]))
    k = st.integers(1, 6)
    if kind == "path":
        depth = draw(st.integers(1, 3))
        topo = path_topology(depth, draw(st.lists(k, min_size=depth, max_size=depth)))
    elif kind == "tree":
        depth = draw(st.integers(2, 3))
        topo = tree_topology(
            draw(st.integers(2, 3)),
            depth,
            draw(st.lists(k, min_size=depth, max_size=depth)),
        )
    elif kind == "star":
        edges = draw(st.integers(2, 4))
        topo = edge_origin_topology(
            edges, draw(st.lists(k, min_size=edges, max_size=edges))
        )
    else:
        topo = single_node_topology(draw(k))
    links = [
        replace(link, read_delay=draw(_delays), write_delay=draw(_delays))
        for link in topo.links
    ]
    nodes = list(topo.nodes)
    if draw(st.booleans()):
        for i, spec in enumerate(nodes):
            if not spec.is_origin and draw(st.booleans()):
                nodes[i] = replace(
                    spec,
                    queue_capacity=draw(st.integers(1, 3)),
                    drain_rate=draw(st.sampled_from([0.2, 0.5, 0.9, 1.7])),
                )
    return Topology(nodes, links)


@settings(max_examples=60, deadline=None)
@given(
    topo=networks(),
    strategy=st.sampled_from(["lce", "lcd", "edge", "prob", "probcache"]),
    routing=st.sampled_from(["to-origin", "nearest-copy"]),
    ingress=st.sampled_from(["auto", "hash", "rr", "tenant", "callable"]),
    policy=st.sampled_from(["lru", "fifo", "arc", "random", "alg-discrete", "lfu"]),
    num_users=st.integers(1, 3),
    pages_per_user=st.integers(3, 15),
    length=st.integers(1, 400),
    trace_seed=st.integers(0, 2**16),
    policy_seed=st.integers(0, 2**16),
    seed=st.integers(0, 2**16),
    flight_capacity=st.one_of(st.none(), st.integers(1, 512)),
    batch=st.integers(1, 97),
)
def test_walk_matches_reference(
    topo, strategy, routing, ingress, policy, num_users, pages_per_user,
    length, trace_seed, policy_seed, seed, flight_capacity, batch,
):
    trace = random_multi_tenant_trace(
        num_users, pages_per_user, length, skew=0.9, seed=trace_seed
    )
    costs = [MonomialCost(1.0 + 0.5 * u) for u in range(num_users)]
    if ingress == "callable":
        leaves = topo.ingress
        ingress = lambda page, t: leaves[(3 * page + t) % len(leaves)]  # noqa: E731

    def build() -> NetworkSim:
        return NetworkSim(
            topo,
            policy,
            costs=costs,
            strategy=strategy,
            routing=routing,
            ingress=ingress,
            policy_seed=policy_seed,
            seed=seed,
            flight_capacity=flight_capacity,
        )

    sim = build()
    got = sim.run(trace, batch=batch)
    want, want_flights = reference_run(build(), trace, batch)
    assert_same_result(got, want)
    got.check_conservation()
    assert set(sim.flights) == set(want_flights)
    for v, fl in want_flights.items():
        assert list(sim.flights[v].ring) == list(fl.ring), v
        assert sim.flights[v].meta == fl.meta
