"""Process-parallel network runs: one worker per node, pipes as links,
bit-identical to serial (the PR's parallel acceptance contract)."""

from __future__ import annotations

import pytest

from repro.core.cost_functions import MonomialCost
from repro.net import NetworkSim, path_topology, tree_topology
from repro.net.metrics import LatencyDist
from repro.net.topology import Link, Topology
from repro.obs.flight import verify_flight
from repro.workloads import zipf_trace

K = 16


@pytest.fixture(scope="module")
def trace():
    return zipf_trace(num_pages=128, length=3_000, skew=0.8, seed=5)


def _run_pair(trace, **kw):
    serial = NetworkSim(path_topology(3, K), **kw).run(trace)
    parallel = NetworkSim(path_topology(3, K), **kw).run(
        trace, workers="per-node"
    )
    return serial, parallel


def _assert_identical(a, b):
    assert a.total_requests == b.total_requests
    assert a.latency == b.latency
    assert list(a.origin_fetches) == list(b.origin_fetches)
    assert a.write_cost == b.write_cost
    for na, nb in zip(a.nodes, b.nodes):
        assert na.name == nb.name
        assert (na.hits, na.misses, na.rejected) == (
            nb.hits, nb.misses, nb.rejected,
        )
        assert (na.admissions, na.evictions) == (nb.admissions, nb.evictions)
        assert na.final_cache == nb.final_cache
        assert list(na.tenant_misses) == list(nb.tenant_misses)
        assert list(na.tenant_hits) == list(nb.tenant_hits)


class TestSerialParallelEquivalence:
    @pytest.mark.parametrize("strategy", ["lce", "edge", "prob"])
    def test_local_strategies_identical(self, trace, strategy):
        serial, parallel = _run_pair(
            trace, policy="lru", strategy=strategy, seed=3, policy_seed=3
        )
        _assert_identical(serial, parallel)

    @pytest.mark.parametrize("policy", ["lru", "fifo", "clock", "random"])
    def test_policies_identical(self, trace, policy):
        serial, parallel = _run_pair(
            trace, policy=policy, strategy="lce", policy_seed=9
        )
        _assert_identical(serial, parallel)

    def test_queues_identical(self, trace):
        topo = path_topology(3, K).with_queues(4, drain_rate=0.9)
        serial = NetworkSim(topo, "lru").run(trace)
        parallel = NetworkSim(topo, "lru").run(trace, workers="per-node")
        assert serial.rejected_total == parallel.rejected_total > 0
        _assert_identical(serial, parallel)

    def test_costs_ride_along(self, trace):
        costs = [MonomialCost(2) for _ in range(trace.num_users)]
        serial, parallel = _run_pair(
            trace, policy="lru", strategy="lce", costs=costs
        )
        assert serial.hierarchy_cost(costs) == parallel.hierarchy_cost(costs)

    def test_parallel_flight_windows_replay(self, trace):
        sim = NetworkSim(
            path_topology(3, K),
            "lru",
            strategy="prob",
            seed=4,
            policy_seed=4,
            flight_capacity=1 << 14,
        )
        sim.run(trace, workers="per-node")
        assert set(sim.flights) == {0, 1, 2}
        for node_id, fl in sim.flights.items():
            check = verify_flight(fl, trace.owners)
            assert check.ok, f"node {node_id}: {check.mismatches[:3]}"


class TestLatencyMean:
    def test_mean_ignores_insertion_order(self):
        pairs = [(6.0392, 7), (12.2964, 3), (12.9516, 11), (0.6552, 5)]
        forward, backward = LatencyDist(), LatencyDist()
        for value, count in pairs:
            forward.add(value, count)
        for value, count in reversed(pairs):
            backward.add(value, count)
        assert forward == backward
        assert forward.mean() == backward.mean()

    def test_serial_and_per_node_report_one_mean(self):
        """The serial walk adds latencies in first-served order, the
        per-node pipeline in node order: equal mass must give one mean
        (this seed read 10.11962288 and 10.119622880000001 when the mean
        summed in insertion order)."""
        base = path_topology(3, K)
        delays = (3.0196, 3.1286, 0.3276)
        links = [Link(i, i + 1, read_delay=d) for i, d in enumerate(delays)]
        topo = Topology(base.nodes, links)
        trace = zipf_trace(num_pages=300, length=5_000, skew=0.8, seed=7)
        serial = NetworkSim(topo, "lru", strategy="lce").run(trace)
        parallel = NetworkSim(topo, "lru", strategy="lce").run(
            trace, workers="per-node"
        )
        assert serial.latency == parallel.latency
        assert serial.latency.mean() == parallel.latency.mean()


class TestPreconditions:
    def test_tree_topology_rejected(self, trace):
        sim = NetworkSim(tree_topology(2, 2, K), "lru")
        with pytest.raises(ValueError, match="path topology"):
            sim.run(trace, workers="per-node")

    def test_non_local_strategy_rejected(self, trace):
        sim = NetworkSim(path_topology(2, K), "lru", strategy="lcd")
        with pytest.raises(ValueError, match="not local"):
            sim.run(trace, workers="per-node")

    def test_nearest_copy_rejected(self, trace):
        sim = NetworkSim(path_topology(2, K), "lru", routing="nearest-copy")
        with pytest.raises(ValueError, match="to-origin"):
            sim.run(trace, workers="per-node")

    def test_offline_policy_rejected(self, trace):
        sim = NetworkSim(path_topology(1, K), "belady")
        with pytest.raises(ValueError, match="requires_future"):
            sim.run(trace, workers="per-node")

    def test_bad_workers_value(self, trace):
        sim = NetworkSim(path_topology(2, K), "lru")
        with pytest.raises(ValueError, match="per-node"):
            sim.run(trace, workers="threads")
