"""NetworkSim contracts: degenerate single-node equivalence to
``simulate()`` for every registered policy, queue-rejection accounting
(rejected != miss), convex-cost aggregation, flight replay, and the
``network_many`` grid driver over colstore paths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cost_functions import MonomialCost
from repro.net import (
    NetworkSim,
    network_many,
    path_topology,
    simulate_network,
    single_node_topology,
    tree_topology,
)
from repro.obs.flight import verify_flight
from repro.policies import POLICY_REGISTRY
from repro.serve.shard import make_policy_instance
from repro.sim.colstore import write_columnar
from repro.sim.engine import simulate
from repro.workloads import zipf_trace

SEED = 7
K = 16


@pytest.fixture(scope="module")
def trace():
    return zipf_trace(num_pages=128, length=4_000, skew=0.8, seed=3)


@pytest.fixture(scope="module")
def costs(trace):
    return [MonomialCost(2) for _ in range(trace.num_users)]


class TestDegenerateEquivalence:
    """A single-node topology is bit-identical to the engine, for every
    registered policy (ISSUE acceptance criterion)."""

    @pytest.mark.parametrize("name", sorted(POLICY_REGISTRY))
    def test_matches_simulate(self, name, trace, costs):
        ref = simulate(
            trace,
            make_policy_instance(POLICY_REGISTRY[name], SEED),
            K,
            costs=costs,
        )
        net = simulate_network(
            single_node_topology(K),
            trace,
            name,
            costs=costs,
            policy_seed=SEED,
        )
        node = net.nodes[0]
        assert node.hits == ref.hits
        assert node.misses == ref.misses
        assert node.final_cache == ref.final_cache
        assert list(node.tenant_misses[: trace.num_users]) == list(
            ref.user_misses
        )
        # The network-level convex cost equals the engine's: one cache
        # means origin fetches == misses.
        assert net.hierarchy_cost(costs) == ref.cost(costs)
        net.check_conservation()


class TestRejectionAccounting:
    """rejected != miss: a queue rejection bypasses the node entirely."""

    def test_rejections_are_not_misses(self, trace):
        # drain_rate ~ 0 with capacity 1: the first arrival occupies the
        # queue forever, everything after is rejected at the edge.
        topo = path_topology(2, K).with_queues(1, drain_rate=1e-9)
        net = simulate_network(topo, trace, "lru")
        edge = net.node("edge")
        assert edge.rejected > 0
        assert edge.hits + edge.misses + edge.rejected == trace.length
        # Only probed requests can miss; the node's policy never saw
        # the rejected ones.
        assert edge.misses < trace.length - edge.rejected + 1
        net.check_conservation()

    def test_rejected_requests_still_get_served(self, trace):
        topo = path_topology(2, K).with_queues(1, drain_rate=1e-9)
        net = simulate_network(topo, trace, "lru")
        # Every request is a network hit or an origin fetch; rejection
        # only changes *where*.
        assert net.network_hits + net.origin_total == trace.length
        assert net.latency.total == trace.length

    def test_no_queue_means_no_rejections(self, trace):
        net = simulate_network(path_topology(3, K), trace, "lru")
        assert net.rejected_total == 0

    def test_queue_peak_bounded_by_capacity(self, trace):
        topo = path_topology(2, K).with_queues(5, drain_rate=0.5)
        net = simulate_network(topo, trace, "lru")
        for node in net.nodes:
            # An arrival is admitted while the fluid level is < capacity
            # and then occupies its slot, so the peak is < capacity + 1.
            assert node.queue_peak < 5 + 1


class TestStrategyBehaviour:
    def test_lce_fills_every_level(self, trace):
        net = simulate_network(path_topology(3, K), trace, "lru", strategy="lce")
        assert all(n.occupancy == K for n in net.nodes)

    def test_edge_leaves_upper_levels_empty(self, trace):
        net = simulate_network(
            path_topology(3, K), trace, "lru", strategy="edge"
        )
        assert net.node("edge").occupancy == K
        assert net.node("l1").occupancy == 0
        assert net.node("l2").occupancy == 0

    def test_lcd_beats_lce_on_skewed_path(self, trace):
        lce = simulate_network(path_topology(3, K), trace, "lru", strategy="lce")
        lcd = simulate_network(path_topology(3, K), trace, "lru", strategy="lcd")
        # LCD avoids duplicating the same hot pages at every level, so a
        # skewed trace sees strictly more distinct pages cached.
        assert lcd.origin_total < lce.origin_total

    def test_run_determinism(self, trace):
        a = simulate_network(
            path_topology(3, K), trace, "lru", strategy="prob", seed=5,
            policy_seed=5,
        )
        b = simulate_network(
            path_topology(3, K), trace, "lru", strategy="prob", seed=5,
            policy_seed=5,
        )
        assert a.latency == b.latency
        assert [n.final_cache for n in a.nodes] == [
            n.final_cache for n in b.nodes
        ]
        assert list(a.origin_fetches) == list(b.origin_fetches)

    def test_nearest_copy_reduces_latency_on_tree(self, trace):
        topo = tree_topology(2, 2, K)
        up = simulate_network(topo, trace, "lru", strategy="lcd")
        near = simulate_network(
            topo, trace, "lru", strategy="lcd", routing="nearest-copy"
        )
        assert near.latency.mean() <= up.latency.mean()

    def test_nearest_copy_with_queues_keeps_ledgers_consistent(self, trace):
        # Bounded queues make holders reject mid-route; the continued
        # walk must keep per-node accounting single-counted (validate
        # stays on and would trip on a double admission).
        topo = tree_topology(2, 2, K).with_queues(3, drain_rate=0.7)
        net = simulate_network(
            topo, trace, "lru", strategy="lce", routing="nearest-copy"
        )
        net.check_conservation()
        for n in net.nodes:
            assert n.arrivals <= trace.length

    def test_per_node_policy_override(self, trace):
        topo = path_topology(2, K)
        from dataclasses import replace

        nodes = [
            replace(n, policy="fifo") if n.name == "l1" else n
            for n in topo.nodes
        ]
        from repro.net.topology import Topology

        topo = Topology(nodes, topo.links)
        net = simulate_network(topo, trace, "lru")
        assert net.node("edge").policy == "lru"
        assert net.node("l1").policy == "fifo"

    def test_offline_policy_rejected_on_multi_node(self, trace):
        with pytest.raises(ValueError, match="requires_future"):
            simulate_network(path_topology(2, K), trace, "belady")

    def test_ingress_modes_cover_all_leaves(self, trace):
        topo = tree_topology(2, 2, K)
        for mode in ("hash", "rr", "tenant"):
            net = simulate_network(topo, trace, "lru", ingress=mode)
            net.check_conservation()
        net = simulate_network(
            topo, trace, "lru", ingress=lambda page, t: topo.ingress[0]
        )
        arrivals = [n.arrivals for n in net.nodes]
        assert arrivals[1] == 0  # all traffic entered at leaf 0

    def test_bad_ingress_mode(self, trace):
        with pytest.raises(ValueError, match="ingress"):
            NetworkSim(path_topology(2, K), ingress="nope")

    def test_ingress_callable_must_return_a_leaf(self, trace):
        topo = tree_topology(2, 2, K)
        root = topo.cache_nodes[-1].node_id
        assert root not in topo.ingress
        for bad in (99, root):
            net = NetworkSim(topo, "lru", ingress=lambda page, t: bad)
            with pytest.raises(ValueError, match="ingress leaf"):
                net.run(trace)

    def test_rejected_holder_is_not_probed_twice(self):
        # Regression: nearest-copy routes leaf0 -> root -> leaf1 for
        # the copy at leaf1; leaf1's stuck queue rejects, and the walk
        # continues toward the origin *through the root again*.  The
        # revisited root must not be re-probed (double miss) or
        # re-admitted (double insert used to evict the page it had just
        # admitted, tripping validate=True), though the detour's link
        # crossings still count toward latency.
        from repro.net.topology import Link, NodeSpec, Topology
        from repro.sim.trace import Trace

        nodes = [
            NodeSpec(0, "leaf0", 1),
            NodeSpec(1, "leaf1", 1, queue_capacity=1, drain_rate=1e-9),
            NodeSpec(2, "root", 1),
            NodeSpec(3, "origin", 0),
        ]
        links = [Link(0, 2), Link(1, 2), Link(2, 3)]
        topo = Topology(nodes, links)
        # t=0,1 prime leaf1 (copy of page 5 + full queue); t=2 makes
        # the root hold 6; t=3 probes 5 from leaf0 and hits the
        # rejecting holder.
        trace = Trace(np.array([5, 5, 6, 5]), np.zeros(7, dtype=np.int64))
        net = simulate_network(
            topo,
            trace,
            "lru",
            strategy="lce",
            routing="nearest-copy",
            ingress=lambda page, t: 1 if t < 2 else 0,
        )
        net.check_conservation()
        root = net.node("root")
        # One probe per request that reached it: t=0, t=2, t=3.
        assert root.misses == 3
        assert root.occupancy == len(root.final_cache) == 1
        assert net.node("leaf1").rejected == 1
        # The t=3 detour leaf0->root->leaf1->root->origin crosses four
        # unit links each way.
        assert net.latency.max() == 8.0


class TestFlightReplay:
    @pytest.mark.parametrize("strategy", ["lce", "lcd", "edge", "prob", "probcache"])
    def test_every_node_window_replays(self, trace, strategy):
        sim = NetworkSim(
            path_topology(3, K),
            "lru",
            strategy=strategy,
            seed=SEED,
            policy_seed=SEED,
            flight_capacity=1 << 14,
        )
        sim.run(trace)
        assert set(sim.flights) == {0, 1, 2}
        for node_id, fl in sim.flights.items():
            check = verify_flight(fl, trace.owners)
            assert check.ok, f"{strategy} node {node_id}: {check.mismatches[:3]}"

    def test_stochastic_policy_replays_under_node_seed(self, trace):
        sim = NetworkSim(
            path_topology(2, K),
            "random",
            strategy="lce",
            policy_seed=11,
            flight_capacity=1 << 14,
        )
        sim.run(trace)
        for fl in sim.flights.values():
            assert verify_flight(fl, trace.owners).ok


class TestObsWiring:
    def test_registry_scrape_has_per_node_series(self, trace):
        from repro.obs import Observability
        from repro.obs.export import render_prometheus

        obs = Observability.enabled()
        net = simulate_network(
            path_topology(3, K), trace, "lru", obs=obs
        )
        text = render_prometheus(obs.registry)
        for node in net.nodes:
            assert f'net_node_hits_total{{node="{node.name}"}}' in text
        assert "net_latency_mean" in text

    def test_disabled_obs_is_noop(self, trace):
        from repro.obs import Observability

        net = simulate_network(
            path_topology(2, K), trace, "lru", obs=Observability.disabled()
        )
        net.check_conservation()


class TestNetworkMany:
    def test_grid_over_colstore_paths_parallel_matches_serial(
        self, trace, tmp_path
    ):
        col = str(tmp_path / "col")
        write_columnar(trace, col)
        topos = [path_topology(2, K), path_topology(3, K)]
        serial = network_many(topos, ["lce", "lcd"], [col], base_seed=3)
        parallel = network_many(
            topos, ["lce", "lcd"], [col], base_seed=3, workers=2
        )
        assert len(serial) == 4
        for a, b in zip(serial, parallel):
            assert (a.topology_index, a.strategy, a.seed) == (
                b.topology_index, b.strategy, b.seed,
            )
            assert a.result.latency == b.result.latency
            assert list(a.result.origin_fetches) == list(
                b.result.origin_fetches
            )
            assert [n.final_cache for n in a.result.nodes] == [
                n.final_cache for n in b.result.nodes
            ]

    def test_costs_callable_sees_resolved_reader(self, trace, tmp_path):
        col = str(tmp_path / "col")
        write_columnar(trace, col)
        seen = []

        def build_costs(resolved):
            seen.append(resolved)
            return [MonomialCost(2) for _ in range(resolved.num_users)]

        runs = network_many(
            [single_node_topology(K)], ["lce"], [col], costs=build_costs
        )
        assert len(runs) == 1
        # The callable received an object with num_users, not the path.
        assert not isinstance(seen[0], str)
        assert seen[0].num_users == trace.num_users


class TestSimulateManyColstorePaths:
    """ROADMAP item 5 leftover: simulate_many over colstore *paths*
    with per-cell readers, parallel == serial."""

    def test_parallel_grid_over_paths(self, trace, tmp_path):
        from repro.sim.driver import simulate_many

        col = str(tmp_path / "col")
        write_columnar(trace, col)
        serial = simulate_many(["lru", "fifo"], [8, 16], [col])
        parallel = simulate_many(["lru", "fifo"], [8, 16], [col], workers=2)
        assert len(serial) == 4
        for a, b in zip(serial, parallel):
            assert a.result.misses == b.result.misses
            assert a.result.final_cache == b.result.final_cache

    def test_costs_callable_gets_reader_for_paths(self, trace, tmp_path):
        from repro.sim.driver import simulate_many

        col = str(tmp_path / "col")
        write_columnar(trace, col)
        seen = []

        def build_costs(resolved):
            seen.append(resolved)
            return [MonomialCost(2) for _ in range(resolved.num_users)]

        runs = simulate_many(["lru"], [8], [col], costs=build_costs)
        assert not isinstance(seen[0], str)
        assert runs[0].result.misses > 0

    def test_resolve_trace_passthrough(self, trace):
        from repro.sim.driver import resolve_trace

        assert resolve_trace(trace) is trace


class TestQueuedPathSmoke:
    """A queued 3-cache path under Zipf 0.9 over 2,000 pages, 50k
    requests: the aggregates, the Prometheus scrape and the per-node
    pipeline all agree with the per-node ledgers."""

    @pytest.fixture(scope="class")
    def smoke(self):
        from repro.workloads.builders import zipf_trace as build

        trace = build(2_000, 50_000, skew=0.9, seed=0)
        costs = [MonomialCost(2)] * trace.num_users
        topo = path_topology(3, 128).with_queues(64, drain_rate=0.9)
        return trace, costs, topo

    @pytest.fixture(scope="class")
    def lcd_run(self, smoke):
        from repro.obs import Observability

        trace, costs, topo = smoke
        obs = Observability.enabled()
        sim = NetworkSim(topo, "lru", strategy="lcd", costs=costs, obs=obs)
        return sim.run(trace), obs

    def test_aggregates_equal_per_node_ledgers(self, smoke, lcd_run):
        trace = smoke[0]
        result, _ = lcd_run
        result.check_conservation()
        assert result.network_hits == sum(n.hits for n in result.nodes)
        assert result.rejected_total == sum(n.rejected for n in result.nodes)
        assert result.rejected_total > 0
        assert result.origin_total == int(result.origin_fetches.sum())
        assert result.network_hits + result.origin_total == trace.length
        assert result.latency.total == trace.length
        for n in result.nodes:
            assert n.tenant_hits[: trace.num_users].sum() == n.hits
            assert n.tenant_misses[: trace.num_users].sum() == n.misses

    def test_scrape_equals_ledgers(self, lcd_run):
        from repro.obs.export import (
            parse_prometheus,
            render_prometheus,
            sample_value,
        )

        result, obs = lcd_run
        samples = parse_prometheus(render_prometheus(obs.registry))
        for node in result.nodes:
            got = sample_value(samples, "net_node_hits_total", node=node.name)
            assert got == float(node.hits), node.name

    def test_per_node_equals_serial_on_queued_lce_path(self, smoke):
        # LCE: LCD needs the hit position, so it runs serially only.
        trace, costs, topo = smoke
        ser = NetworkSim(topo, "lru", strategy="lce", costs=costs).run(trace)
        par = NetworkSim(topo, "lru", strategy="lce", costs=costs).run(
            trace, workers="per-node"
        )
        assert [(n.hits, n.misses, n.rejected) for n in par.nodes] == [
            (n.hits, n.misses, n.rejected) for n in ser.nodes
        ]
        assert par.latency == ser.latency

    def test_conservation_under_default_telemetry(self, smoke):
        # Run with the process default bundle, so the REPRO_OBS=off
        # tier-1 pass checks the same ledgers with telemetry off.
        trace, costs, topo = smoke
        result = simulate_network(
            topo, trace, "lru", costs=costs, strategy="lcd"
        )
        result.check_conservation()
        assert result.network_hits == sum(n.hits for n in result.nodes)
        assert result.network_hits + result.origin_total == trace.length
