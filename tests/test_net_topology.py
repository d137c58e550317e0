"""Topology construction, validation, routes, and serialization."""

from __future__ import annotations

import json

import pytest

from repro.net.topology import (
    Link,
    NodeSpec,
    Topology,
    edge_origin_topology,
    path_topology,
    single_node_topology,
    tree_topology,
)


class TestValidation:
    def test_needs_exactly_one_origin(self):
        nodes = [NodeSpec(0, "a", 4), NodeSpec(1, "b", 4)]
        with pytest.raises(ValueError, match="exactly one origin"):
            Topology(nodes, [Link(0, 1)])

    def test_two_origins_rejected(self):
        nodes = [NodeSpec(0, "a", 4), NodeSpec(1, "o1", 0), NodeSpec(2, "o2", 0)]
        with pytest.raises(ValueError, match="exactly one origin"):
            Topology(nodes, [Link(0, 1)])

    def test_dense_ids_required(self):
        nodes = [NodeSpec(0, "a", 4), NodeSpec(2, "origin", 0)]
        with pytest.raises(ValueError, match="dense"):
            Topology(nodes, [Link(0, 2)])

    def test_unique_names_required(self):
        nodes = [NodeSpec(0, "x", 4), NodeSpec(1, "x", 4), NodeSpec(2, "origin", 0)]
        with pytest.raises(ValueError, match="unique"):
            Topology(nodes, [Link(0, 1), Link(1, 2)])

    def test_two_uplinks_rejected(self):
        nodes = [NodeSpec(0, "a", 4), NodeSpec(1, "b", 4), NodeSpec(2, "origin", 0)]
        with pytest.raises(ValueError, match="two upstream"):
            Topology(nodes, [Link(0, 1), Link(0, 2), Link(1, 2)])

    def test_disconnected_node_rejected(self):
        nodes = [NodeSpec(0, "a", 4), NodeSpec(1, "b", 4), NodeSpec(2, "origin", 0)]
        with pytest.raises(ValueError, match="no path to the origin"):
            Topology(nodes, [Link(0, 2)])

    def test_origin_cannot_have_uplink(self):
        nodes = [NodeSpec(0, "a", 4), NodeSpec(1, "origin", 0)]
        with pytest.raises(ValueError, match="origin has no upstream"):
            Topology(nodes, [Link(0, 1), Link(1, 0)])

    def test_self_link_rejected(self):
        with pytest.raises(ValueError, match="self-link"):
            Link(0, 0).validate()

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match="delays"):
            Link(0, 1, read_delay=-1.0).validate()

    def test_bad_drain_rate(self):
        with pytest.raises(ValueError, match="drain_rate"):
            NodeSpec(0, "a", 4, drain_rate=0.0).validate()


class TestShape:
    def test_path_routes_and_delays(self):
        topo = path_topology(3, 8, read_delay=1.0, origin_delay=10.0)
        assert topo.origin == 3
        assert topo.ingress == (0,)
        assert topo.route(0) == (0, 1, 2, 3)
        assert topo.prefix_read_delay(0) == (0.0, 1.0, 2.0, 12.0)
        assert topo.total_cache_capacity == 24

    def test_path_per_level_capacities(self):
        topo = path_topology(3, [16, 8, 4])
        assert [n.k for n in topo.cache_nodes] == [16, 8, 4]

    def test_tree_shape(self):
        topo = tree_topology(2, 3, 4)
        # 4 leaves + 2 mid + 1 root + origin
        assert topo.num_nodes == 8
        assert len(topo.ingress) == 4
        # Every leaf is 3 hops from the root cache's parent (origin).
        root = topo.route(topo.ingress[0])[-2]
        assert all(topo.route(leaf)[-2] == root for leaf in topo.ingress)

    def test_star_shape(self):
        topo = edge_origin_topology(4, 8)
        assert len(topo.ingress) == 4
        assert all(topo.route(e) == (e, topo.origin) for e in topo.ingress)

    def test_single_node(self):
        topo = single_node_topology(32)
        assert len(topo.cache_nodes) == 1

    def test_hops_symmetric(self):
        topo = tree_topology(2, 2, 4)
        for a in range(topo.num_nodes):
            for b in range(topo.num_nodes):
                assert topo.hops(a, b) == topo.hops(b, a)
        # siblings are 2 hops apart through their parent
        l0, l1 = topo.ingress[0], topo.ingress[1]
        assert topo.hops(l0, l1) == 2
        assert topo.hops(l0, l0) == 0

    def test_path_delay_symmetric_and_additive(self):
        topo = tree_topology(2, 2, 4, read_delay=2.0, origin_delay=7.0)
        for a in range(topo.num_nodes):
            assert topo.path_delay(a, a) == 0.0
            for b in range(topo.num_nodes):
                assert topo.path_delay(a, b) == topo.path_delay(b, a)
        # siblings: two read_delay=2 links through their parent
        l0, l1 = topo.ingress[0], topo.ingress[1]
        assert topo.path_delay(l0, l1) == 4.0
        # leaf -> origin matches the route's prefix delay
        assert topo.path_delay(l0, topo.origin) == topo.prefix_read_delay(l0)[-1]

    def test_parent_children(self):
        topo = path_topology(2, 4)
        assert topo.parent(0) == 1
        assert topo.parent(2) is None
        assert topo.children(1) == [0]
        assert topo.uplink(0).dst == 1


class TestSerialization:
    def test_json_round_trip(self, tmp_path):
        topo = tree_topology(2, 2, [8, 16], origin_delay=5.0)
        path = str(tmp_path / "topo.json")
        topo.save(path)
        loaded = Topology.load(path)
        assert [n.name for n in loaded.nodes] == [n.name for n in topo.nodes]
        assert [n.k for n in loaded.nodes] == [n.k for n in topo.nodes]
        assert loaded.route(0) == topo.route(0)
        assert loaded.prefix_read_delay(0) == topo.prefix_read_delay(0)

    def test_queue_fields_round_trip(self):
        topo = path_topology(2, 4).with_queues(10, drain_rate=0.5)
        loaded = Topology.from_json(topo.to_json())
        spec = loaded.node(0)
        assert spec.queue_capacity == 10
        assert spec.drain_rate == 0.5
        assert loaded.node(loaded.origin).queue_capacity is None

    def test_with_queues_leaves_origin_alone(self):
        topo = path_topology(2, 4).with_queues(3)
        assert topo.node(topo.origin).queue_capacity is None
        assert all(n.queue_capacity == 3 for n in topo.cache_nodes)


def _doc(**edits):
    """A valid one-cache document with *edits* applied: ``node0`` /
    ``link0`` update (or, for ``None`` values, drop) fields of the
    cache node / its link; ``doc`` replaces the whole document."""
    doc = json.loads(path_topology(1, 4).with_queues(2).to_json())
    if "doc" in edits:
        return json.dumps(edits["doc"])
    for key, row in (("node0", doc["nodes"][0]), ("link0", doc["links"][0])):
        for name, value in edits.get(key, {}).items():
            if value is None:
                row.pop(name, None)
            else:
                row[name] = value
    return json.dumps(doc)


class TestFromJsonRefusals:
    """Documents the decoder must refuse with a ValueError naming the
    node or link and the field."""

    @pytest.mark.parametrize(
        "text, match",
        [
            pytest.param(_doc(node0={"k": 4.9}), r"node 0: 'k' must be an integer", id="k-float"),
            pytest.param(_doc(node0={"k": "4"}), r"node 0: 'k' must be an integer", id="k-string"),
            pytest.param(_doc(node0={"k": True}), r"node 0: 'k' must be an integer", id="k-bool"),
            pytest.param(_doc(node0={"id": 0.0}), r"node 0: 'id' must be an integer", id="id-float"),
            pytest.param(_doc(node0={"k": None}), r"node 0: missing field 'k'", id="k-missing"),
            pytest.param(_doc(node0={"id": None}), r"node 0: missing field 'id'", id="id-missing"),
            pytest.param(_doc(node0={"name": 7}), r"node 0: 'name' must be a string", id="name-number"),
            pytest.param(
                _doc(node0={"drain_rate": float("nan")}),
                r"edge: drain_rate must be finite",
                id="drain-rate-nan",
            ),
            pytest.param(
                _doc(node0={"drain_rate": "1"}),
                r"node 0: 'drain_rate' must be a number",
                id="drain-rate-string",
            ),
            pytest.param(
                _doc(link0={"read_delay": float("nan")}),
                r"link 0->1: .*read_delay=nan",
                id="read-delay-nan",
            ),
            pytest.param(
                _doc(link0={"write_delay": float("inf")}),
                r"link 0->1: .*write_delay=inf",
                id="write-delay-inf",
            ),
            pytest.param(
                _doc(link0={"read_delay": "1.0"}),
                r"link 0: 'read_delay' must be a number",
                id="read-delay-string",
            ),
            pytest.param(_doc(link0={"src": 0.5}), r"link 0: 'src' must be an integer", id="src-float"),
            pytest.param(_doc(link0={"dst": None}), r"link 0: missing field 'dst'", id="dst-missing"),
            pytest.param(_doc(doc=[]), r"must be a JSON object", id="doc-list"),
            pytest.param(_doc(doc={"links": []}), r"needs a 'nodes' list", id="nodes-missing"),
            pytest.param(
                _doc(doc={"nodes": [3], "links": []}),
                r"node 0: must be a JSON object",
                id="node-not-object",
            ),
        ],
    )
    def test_refused(self, text, match):
        with pytest.raises(ValueError, match=match):
            Topology.from_json(text)

    def test_factories_refuse_non_finite_delays(self):
        with pytest.raises(ValueError, match="finite"):
            path_topology(2, 4, read_delay=float("nan"))
        with pytest.raises(ValueError, match="finite"):
            path_topology(2, 4).with_queues(2, drain_rate=float("inf"))

    @pytest.mark.parametrize(
        "topo",
        [
            path_topology(3, [4, 8, 16], read_delay=0.3, write_delay=0.7),
            tree_topology(3, 2, [2, 5], origin_delay=2.5),
            edge_origin_topology(3, [1, 2, 3], read_delay=4.0),
            single_node_topology(8, origin_delay=3.0),
            path_topology(2, 4).with_queues(3, drain_rate=0.25),
        ],
    )
    def test_factory_topologies_round_trip(self, topo):
        loaded = Topology.from_json(topo.to_json())
        assert loaded.nodes == topo.nodes
        assert loaded.links == topo.links
