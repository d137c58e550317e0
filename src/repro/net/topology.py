"""Cache-network topologies: nodes, links, and routes to the origin.

A :class:`Topology` is an in-tree of cache nodes rooted at a single
*origin* — the backing store that holds every page.  Each cache node
carries its own capacity :math:`k_v`, an optional per-node policy
override, and an optional ingress-queue model (capacity + drain rate);
each link carries a one-way ``read_delay`` (charged in both directions
on the fetch path) and a ``write_delay`` (charged when an admission
writes a copy across it).

The in-tree restriction — every non-origin node has exactly one
upstream link — covers the three families the CDN/edge literature
sweeps (and the icarus exemplars in SNIPPETS.md use): linear *paths*
(client → edge → … → origin), balanced *trees* (many edges aggregating
toward the origin), and flat *edge→origin* stars.  Routes are
precomputed at construction; all-pairs tree paths back the
``nearest-copy`` routing strategy.

Topologies serialize to a small JSON document (``to_json`` /
``from_json``) so experiment grids and the ``python -m repro.net`` CLI
can share named topology files; DESIGN.md §"The network layer"
documents the format.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.util.validation import check_positive_int


@dataclass(frozen=True)
class NodeSpec:
    """One cache node (or the origin) of a topology.

    Attributes
    ----------
    node_id:
        Dense id, ``0..num_nodes-1``.
    name:
        Display name used in tables, metric labels, and flight meta.
    k:
        Cache capacity :math:`k_v` (``0`` for the origin, which holds
        every page by definition and never evicts).
    policy:
        Optional per-node policy registry name; ``None`` inherits the
        network default passed to the simulator.
    queue_capacity:
        Ingress-queue slots.  ``None`` disables the queue entirely (no
        per-request queue work); a bounded queue rejects arrivals that
        find it full — rejected requests *bypass* this node's cache
        (no probe, no admission) and continue toward the origin, and
        are accounted separately from misses.
    drain_rate:
        Requests drained from the queue per unit of trace time (the
        global clock advances by 1 per request).
    """

    node_id: int
    name: str
    k: int
    policy: Optional[str] = None
    queue_capacity: Optional[int] = None
    drain_rate: float = 1.0

    @property
    def is_origin(self) -> bool:
        return self.k == 0

    def validate(self) -> None:
        if self.node_id < 0:
            raise ValueError(f"node_id must be >= 0, got {self.node_id}")
        if self.k < 0:
            raise ValueError(f"{self.name}: k must be >= 0, got {self.k}")
        if self.queue_capacity is not None:
            check_positive_int(self.queue_capacity, "queue_capacity")
        if not math.isfinite(self.drain_rate) or self.drain_rate <= 0:
            raise ValueError(
                f"{self.name}: drain_rate must be finite and > 0, "
                f"got {self.drain_rate}"
            )


@dataclass(frozen=True)
class Link:
    """A directed link from a node to its upstream (origin-ward) parent.

    ``read_delay`` is the one-way traversal latency; a fetch that
    crosses the link pays it twice (request up, response down).
    ``write_delay`` is the storage-write penalty charged once per copy
    admitted over this link (write-behind: it lands in the write-cost
    ledger, not the request latency).
    """

    src: int
    dst: int
    read_delay: float = 1.0
    write_delay: float = 0.0

    def validate(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"self-link at node {self.src}")
        for field_name in ("read_delay", "write_delay"):
            value = getattr(self, field_name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(
                    f"link {self.src}->{self.dst}: delays must be finite "
                    f"and >= 0, got {field_name}={value}"
                )


class Topology:
    """An in-tree of cache nodes rooted at a single origin node.

    Construction validates the shape (exactly one origin, every cache
    node exactly one upstream link, no cycles, all nodes reach the
    origin) and precomputes:

    * ``route(v)`` — the node sequence from *v* up to the origin;
    * ``prefix_read_delay(v)`` — cumulative one-way read delay along
      that route (index *i* = delay from *v* to ``route(v)[i]``);
    * all-pairs tree hop distances (``hops``) and read-delay distances
      (``path_delay``) backing nearest-copy routing and the parallel
      driver's sanity checks.

    ``ingress`` lists the nodes where client requests may enter: the
    leaves of the tree (cache nodes with no children).
    """

    def __init__(self, nodes: Sequence[NodeSpec], links: Sequence[Link]) -> None:
        if not nodes:
            raise ValueError("topology needs at least one node")
        self.nodes: List[NodeSpec] = list(nodes)
        self.links: List[Link] = list(links)
        ids = [n.node_id for n in self.nodes]
        if ids != list(range(len(self.nodes))):
            raise ValueError(
                f"node ids must be dense 0..{len(self.nodes) - 1}, got {ids}"
            )
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            raise ValueError(f"node names must be unique, got {names}")
        for n in self.nodes:
            n.validate()
        origins = [n.node_id for n in self.nodes if n.is_origin]
        if len(origins) != 1:
            raise ValueError(
                f"topology needs exactly one origin (k=0) node, got {origins}"
            )
        self.origin: int = origins[0]

        self._uplink: Dict[int, Link] = {}
        self._children: Dict[int, List[int]] = {n.node_id: [] for n in self.nodes}
        for link in self.links:
            link.validate()
            for end in (link.src, link.dst):
                if not 0 <= end < len(self.nodes):
                    raise ValueError(f"link references unknown node {end}")
            if link.src == self.origin:
                raise ValueError("the origin has no upstream link")
            if link.src in self._uplink:
                raise ValueError(
                    f"node {link.src} has two upstream links (in-tree required)"
                )
            self._uplink[link.src] = link
            self._children[link.dst].append(link.src)
        for cid in self._children:
            self._children[cid].sort()

        self._routes: List[Tuple[int, ...]] = []
        self._prefix_delay: List[Tuple[float, ...]] = []
        for n in self.nodes:
            route = [n.node_id]
            delays = [0.0]
            seen = {n.node_id}
            while route[-1] != self.origin:
                link = self._uplink.get(route[-1])
                if link is None:
                    raise ValueError(
                        f"node {route[-1]} ({self.nodes[route[-1]].name}) "
                        f"has no path to the origin"
                    )
                if link.dst in seen:
                    raise ValueError(f"cycle through node {link.dst}")
                seen.add(link.dst)
                route.append(link.dst)
                delays.append(delays[-1] + link.read_delay)
            self._routes.append(tuple(route))
            self._prefix_delay.append(tuple(delays))

        #: Leaves of the in-tree — where client requests enter.
        self.ingress: Tuple[int, ...] = tuple(
            n.node_id
            for n in self.nodes
            if not n.is_origin and not self._children[n.node_id]
        )
        if not self.ingress:
            raise ValueError("topology has no ingress (leaf cache) nodes")

        # All-pairs hop and read-delay distances over the undirected
        # tree (node counts are small by construction; O(V^2) is fine
        # and keeps lookups branch-free in the per-request path).
        V = len(self.nodes)
        depth = [len(r) - 1 for r in self._routes]
        self._hops = [[0] * V for _ in range(V)]
        self._path_delay = [[0.0] * V for _ in range(V)]
        for a in range(V):
            pa = self._prefix_delay[a]
            for b in range(a + 1, V):
                ra, rb = self._routes[a], self._routes[b]
                pb = self._prefix_delay[b]
                anc = {v: i for i, v in enumerate(ra)}
                for j, v in enumerate(rb):
                    if v in anc:
                        d = anc[v] + j
                        w = pa[anc[v]] + pb[j]
                        break
                else:  # pragma: no cover - unreachable in a validated tree
                    d = depth[a] + depth[b]
                    w = pa[-1] + pb[-1]
                self._hops[a][b] = self._hops[b][a] = d
                self._path_delay[a][b] = self._path_delay[b][a] = w

    # ------------------------------------------------------------------
    # Shape accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def cache_nodes(self) -> List[NodeSpec]:
        """All non-origin nodes, id order."""
        return [n for n in self.nodes if not n.is_origin]

    @property
    def total_cache_capacity(self) -> int:
        """:math:`\\sum_v k_v` over cache nodes — the fair single-box
        comparator for price-of-distribution experiments."""
        return sum(n.k for n in self.cache_nodes)

    def node(self, node_id: int) -> NodeSpec:
        return self.nodes[node_id]

    def parent(self, node_id: int) -> Optional[int]:
        link = self._uplink.get(node_id)
        return link.dst if link is not None else None

    def children(self, node_id: int) -> List[int]:
        return list(self._children[node_id])

    def uplink(self, node_id: int) -> Optional[Link]:
        """The link from *node_id* toward the origin (``None`` at the
        origin)."""
        return self._uplink.get(node_id)

    def route(self, node_id: int) -> Tuple[int, ...]:
        """Node ids from *node_id* (inclusive) up to the origin."""
        return self._routes[node_id]

    def prefix_read_delay(self, node_id: int) -> Tuple[float, ...]:
        """``out[i]`` = one-way read delay from *node_id* to
        ``route(node_id)[i]``."""
        return self._prefix_delay[node_id]

    def hops(self, a: int, b: int) -> int:
        """Hop distance between two nodes over the undirected tree."""
        return self._hops[a][b]

    def path_delay(self, a: int, b: int) -> float:
        """Cumulative one-way link ``read_delay`` along the tree path
        between two nodes — the metric nearest-copy routing minimizes."""
        return self._path_delay[a][b]

    def is_path(self) -> bool:
        """True for a linear chain (one ingress, every node <=1 child)."""
        return len(self.ingress) == 1 and all(
            len(kids) <= 1 for kids in self._children.values()
        )

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        doc = {
            "nodes": [
                {
                    "id": n.node_id,
                    "name": n.name,
                    "k": n.k,
                    **({"policy": n.policy} if n.policy else {}),
                    **(
                        {"queue_capacity": n.queue_capacity}
                        if n.queue_capacity is not None
                        else {}
                    ),
                    **(
                        {"drain_rate": n.drain_rate}
                        if n.drain_rate != 1.0
                        else {}
                    ),
                }
                for n in self.nodes
            ],
            "links": [
                {
                    "src": l.src,
                    "dst": l.dst,
                    "read_delay": l.read_delay,
                    "write_delay": l.write_delay,
                }
                for l in self.links
            ],
        }
        return json.dumps(doc, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "Topology":
        """Decode a :meth:`to_json` document.

        Ids and ``k`` must be JSON integers and delays and drain rates
        JSON numbers; a malformed document raises ``ValueError`` naming
        the node or link and the field."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("topology document must be a JSON object")
        nodes = [
            NodeSpec(
                node_id=_field(row, "id", int, where),
                name=_field(row, "name", str, where, f"node{row.get('id')}"),
                k=_field(row, "k", int, where),
                policy=_field(row, "policy", str, where, None),
                queue_capacity=_field(row, "queue_capacity", int, where, None),
                drain_rate=_field(row, "drain_rate", float, where, 1.0),
            )
            for row, where in _rows(doc, "nodes")
        ]
        links = [
            Link(
                src=_field(row, "src", int, where),
                dst=_field(row, "dst", int, where),
                read_delay=_field(row, "read_delay", float, where, 1.0),
                write_delay=_field(row, "write_delay", float, where, 0.0),
            )
            for row, where in _rows(doc, "links")
        ]
        return cls(nodes, links)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "Topology":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def with_queues(
        self, queue_capacity: Optional[int], drain_rate: float = 1.0
    ) -> "Topology":
        """Copy with every cache node given the same ingress-queue model."""
        nodes = [
            n
            if n.is_origin
            else replace(
                n, queue_capacity=queue_capacity, drain_rate=drain_rate
            )
            for n in self.nodes
        ]
        return Topology(nodes, self.links)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Topology({len(self.cache_nodes)} caches + origin, "
            f"k_total={self.total_cache_capacity}, "
            f"ingress={list(self.ingress)})"
        )


_MISSING = object()
_JSON_KINDS = {int: "an integer", float: "a number", str: "a string"}


def _rows(doc: dict, key: str):
    """``(row, where)`` for each object of ``doc[key]``; *where* names
    the row in errors (``node 2``, ``link 0``)."""
    rows = doc.get(key)
    if not isinstance(rows, list):
        raise ValueError(f"topology document needs a {key!r} list")
    for i, row in enumerate(rows):
        where = f"{key[:-1]} {i}"
        if not isinstance(row, dict):
            raise ValueError(f"{where}: must be a JSON object")
        yield row, where


def _field(row: dict, name: str, kind: type, where: str, default=_MISSING):
    """``row[name]`` as a JSON integer, number (returned as float) or
    string; *default* when absent (or null, where the default is
    ``None``).  Bools are not numbers here."""
    value = row.get(name)
    if value is None and (name not in row or default is None):
        if default is _MISSING:
            raise ValueError(f"{where}: missing field {name!r}")
        return default
    numeric = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, numeric):
        raise ValueError(
            f"{where}: {name!r} must be {_JSON_KINDS[kind]}, got {value!r}"
        )
    return float(value) if kind is float else value


# ----------------------------------------------------------------------
# Factories
# ----------------------------------------------------------------------
def _spread(ks: Sequence[int] | int, n: int, what: str) -> List[int]:
    if isinstance(ks, int):
        return [check_positive_int(ks, what)] * n
    ks = [check_positive_int(k, what) for k in ks]
    if len(ks) != n:
        raise ValueError(f"need {n} {what} values, got {len(ks)}")
    return list(ks)


def path_topology(
    depth: int,
    k: Sequence[int] | int,
    *,
    read_delay: float = 1.0,
    write_delay: float = 0.0,
    origin_delay: float = 10.0,
) -> Topology:
    """A linear chain ``edge -> l1 -> ... -> origin`` of *depth* caches.

    Node 0 is the client-facing edge; the link into the origin is the
    expensive one (*origin_delay*), matching the CDN picture where the
    last hop crosses the wide-area network.
    """
    depth = check_positive_int(depth, "depth")
    ks = _spread(k, depth, "k")
    nodes = [
        NodeSpec(i, f"l{i}" if i else "edge", ks[i]) for i in range(depth)
    ]
    nodes.append(NodeSpec(depth, "origin", 0))
    links = [
        Link(i, i + 1, read_delay=read_delay, write_delay=write_delay)
        for i in range(depth - 1)
    ]
    links.append(
        Link(depth - 1, depth, read_delay=origin_delay, write_delay=write_delay)
    )
    return Topology(nodes, links)


def tree_topology(
    branching: int,
    depth: int,
    k: Sequence[int] | int,
    *,
    read_delay: float = 1.0,
    write_delay: float = 0.0,
    origin_delay: float = 10.0,
) -> Topology:
    """A balanced *branching*-ary tree of cache levels under one origin.

    Level 0 holds the ``branching**(depth-1)`` leaf edges; level
    ``depth-1`` is the single root cache, linked to the origin over the
    expensive *origin_delay* link.  ``k`` may be an int (every cache
    the same) or one value per *level* (leaves first).
    """
    branching = check_positive_int(branching, "branching")
    depth = check_positive_int(depth, "depth")
    ks = _spread(k, depth, "k")
    nodes: List[NodeSpec] = []
    links: List[Link] = []
    # Build root-down so parents exist before children, ids assigned
    # level by level from the leaves for readable names.
    level_ids: List[List[int]] = []
    next_id = 0
    for level in range(depth):
        count = branching ** (depth - 1 - level)
        ids = []
        for j in range(count):
            name = f"L{level}.{j}" if count > 1 else f"L{level}"
            nodes.append(NodeSpec(next_id, name, ks[level]))
            ids.append(next_id)
            next_id += 1
        level_ids.append(ids)
    origin_id = next_id
    nodes.append(NodeSpec(origin_id, "origin", 0))
    for level in range(depth - 1):
        for j, child in enumerate(level_ids[level]):
            parent = level_ids[level + 1][j // branching]
            links.append(
                Link(child, parent, read_delay=read_delay, write_delay=write_delay)
            )
    links.append(
        Link(
            level_ids[depth - 1][0],
            origin_id,
            read_delay=origin_delay,
            write_delay=write_delay,
        )
    )
    return Topology(nodes, links)


def edge_origin_topology(
    num_edges: int,
    k: Sequence[int] | int,
    *,
    read_delay: float = 10.0,
    write_delay: float = 0.0,
) -> Topology:
    """A flat star: *num_edges* independent edge caches, each linked
    straight to the origin (no shared mid-tier)."""
    num_edges = check_positive_int(num_edges, "num_edges")
    ks = _spread(k, num_edges, "k")
    nodes = [NodeSpec(i, f"edge{i}", ks[i]) for i in range(num_edges)]
    nodes.append(NodeSpec(num_edges, "origin", 0))
    links = [
        Link(i, num_edges, read_delay=read_delay, write_delay=write_delay)
        for i in range(num_edges)
    ]
    return Topology(nodes, links)


def single_node_topology(
    k: int, *, origin_delay: float = 1.0, write_delay: float = 0.0
) -> Topology:
    """One cache in front of the origin — the degenerate topology whose
    network run is bit-identical to :func:`repro.sim.engine.simulate`
    (test-enforced for every registered policy)."""
    return path_topology(
        1, k, origin_delay=origin_delay, write_delay=write_delay
    )


TOPOLOGY_FACTORIES = {
    "path": path_topology,
    "tree": tree_topology,
    "star": edge_origin_topology,
    "single": single_node_topology,
}


__all__ = [
    "Link",
    "NodeSpec",
    "TOPOLOGY_FACTORIES",
    "Topology",
    "edge_origin_topology",
    "path_topology",
    "single_node_topology",
    "tree_topology",
]
