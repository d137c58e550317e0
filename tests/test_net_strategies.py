"""Routing/admission strategy contracts: behaviour and determinism."""

from __future__ import annotations

import pytest

from repro.net.strategies import (
    ROUTING_REGISTRY,
    STRATEGY_REGISTRY,
    LeaveCopyDown,
    LeaveCopyEverywhere,
    NearestCopy,
    ProbAdmit,
    ProbCache,
    RouteToOrigin,
    make_routing,
    make_strategy,
)
from repro.net.topology import (
    Link,
    NodeSpec,
    Topology,
    path_topology,
    tree_topology,
)


@pytest.fixture
def path3():
    return path_topology(3, 8)


class TestRouting:
    def test_to_origin_stops_at_first_holder(self, path3):
        holdings = {1: {7}}
        r = RouteToOrigin()
        r.reset(path3, lambda v, page: page in holdings.get(v, ()))
        assert r.route(0, 7) == (0, 1)
        assert r.route(0, 9) == (0, 1, 2, 3)

    def test_nearest_copy_prefers_sibling_over_origin(self):
        topo = tree_topology(2, 2, 4)  # leaves 0,1 under root 2, origin 3
        holdings = {1: {5}}
        r = NearestCopy()
        r.reset(topo, lambda v, page: page in holdings.get(v, ()))
        route = r.route(0, 5)
        assert route[0] == 0 and route[-1] == 1
        assert topo.origin not in route

    def test_nearest_copy_tie_breaks_to_smaller_id(self):
        topo = tree_topology(2, 2, 4)
        holders = {1, 2}
        r = NearestCopy()
        r.reset(topo, lambda v, page: v in holders)
        # 0->2 costs 1 read delay; 0->1 costs 2: the cheaper copy wins.
        assert r.route(0, 0)[-1] == 2

    def test_nearest_copy_minimizes_delay_not_hops(self):
        # Leaves 0,1 under mid 2, root 3, origin 4.  Holders 1 and 3
        # are both two hops from leaf 0, but the sibling leaf sits
        # behind an expensive link — cumulative read delay decides.
        nodes = [
            NodeSpec(0, "a", 4),
            NodeSpec(1, "b", 4),
            NodeSpec(2, "mid", 4),
            NodeSpec(3, "root", 4),
            NodeSpec(4, "origin", 0),
        ]
        links = [
            Link(0, 2, read_delay=1.0),
            Link(1, 2, read_delay=9.0),
            Link(2, 3, read_delay=1.0),
            Link(3, 4, read_delay=1.0),
        ]
        topo = Topology(nodes, links)
        r = NearestCopy()
        r.reset(topo, lambda v, page: v in {1, 3})
        assert r.route(0, 0) == (0, 2, 3)

    def test_nearest_copy_prefers_cheap_origin_over_costly_holder(self):
        # The only holder is the sibling leaf behind two expensive
        # links; the origin route is strictly cheaper, so the oracle
        # must not detour to the copy.
        nodes = [
            NodeSpec(0, "a", 4),
            NodeSpec(1, "b", 4),
            NodeSpec(2, "hub", 4),
            NodeSpec(3, "origin", 0),
        ]
        links = [
            Link(0, 2, read_delay=5.0),
            Link(1, 2, read_delay=5.0),
            Link(2, 3, read_delay=1.0),
        ]
        topo = Topology(nodes, links)
        r = NearestCopy()
        r.reset(topo, lambda v, page: v == 1)
        assert r.route(0, 0) == topo.route(0) == (0, 2, 3)

    def test_nearest_copy_falls_back_to_origin(self, path3):
        r = NearestCopy()
        r.reset(path3, lambda v, page: False)
        assert r.route(0, 1) == path3.route(0)

    def test_registry(self):
        assert sorted(ROUTING_REGISTRY) == ["nearest-copy", "to-origin"]
        assert isinstance(make_routing("to-origin"), RouteToOrigin)
        with pytest.raises(KeyError, match="unknown routing"):
            make_routing("nope")


class TestAdmission:
    def test_lce_admits_everywhere(self, path3):
        s = LeaveCopyEverywhere()
        s.reset(path3)
        assert s.admit([0, 1, 2], 3, 5, 0) == [0, 1, 2]

    def test_lcd_admits_below_hit_only(self, path3):
        s = LeaveCopyDown()
        s.reset(path3)
        assert s.admit([0, 1], 2, 5, 0) == [1]
        assert s.admit([], 0, 5, 0) == []

    def test_edge_admits_first_missing(self, path3):
        s = make_strategy("edge")
        s.reset(path3)
        assert s.admit([0, 1, 2], 3, 5, 0) == [0]

    def test_prob_extremes(self, path3):
        never = ProbAdmit(p=0.0)
        never.reset(path3, seed=1)
        assert never.admit([0, 1, 2], 3, 5, 0) == []
        always = ProbAdmit(p=1.0)
        always.reset(path3, seed=1)
        assert always.admit([0, 1, 2], 3, 5, 0) == [0, 1, 2]

    def test_prob_validates_p(self):
        with pytest.raises(ValueError, match="p must be"):
            ProbAdmit(p=1.5)

    def test_probcache_validates_times_in(self):
        with pytest.raises(ValueError, match="times_in"):
            ProbCache(times_in=0)

    def test_probcache_saturates_with_tiny_times_in(self, path3):
        # times_in -> 0 drives every probability past the min(1, .) cap.
        s = ProbCache(times_in=0.01)
        s.reset(path3, seed=3)
        assert s.admit([0, 1, 2], 3, 5, 0) == [0, 1, 2]

    def test_probcache_weights_match_formula(self, path3):
        # Equal per-node k on a 3-hop path gives p_j proportional to
        # (j+1)(L-j) = 3, 4, 3: the middle node admits most often.
        s = ProbCache(times_in=10.0)
        s.reset(path3, seed=3)
        counts = {0: 0, 1: 0, 2: 0}
        for t in range(20000):
            for v in s.admit([0, 1, 2], 3, t, t):
                counts[v] += 1
        assert counts[1] > counts[0]
        assert counts[1] > counts[2]

    def test_registry(self):
        assert sorted(STRATEGY_REGISTRY) == [
            "edge", "lcd", "lce", "prob", "probcache",
        ]
        s = make_strategy("prob", p=0.25)
        assert s.p == 0.25
        with pytest.raises(KeyError, match="unknown strategy"):
            make_strategy("nope")


class TestDeterminism:
    @pytest.mark.parametrize("name", ["prob", "probcache"])
    def test_same_seed_same_decisions(self, path3, name):
        a, b = make_strategy(name), make_strategy(name)
        a.reset(path3, seed=42)
        b.reset(path3, seed=42)
        for t in range(500):
            assert a.admit([0, 1, 2], 3, t % 16, t) == b.admit(
                [0, 1, 2], 3, t % 16, t
            )

    @pytest.mark.parametrize("name", ["prob", "probcache"])
    def test_different_seed_diverges(self, path3, name):
        a, b = make_strategy(name), make_strategy(name)
        a.reset(path3, seed=1)
        b.reset(path3, seed=2)
        decisions_a = [tuple(a.admit([0, 1, 2], 3, t, t)) for t in range(200)]
        decisions_b = [tuple(b.admit([0, 1, 2], 3, t, t)) for t in range(200)]
        assert decisions_a != decisions_b

