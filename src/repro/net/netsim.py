"""The cache-network simulation engine.

:class:`NetworkSim` drives any registered eviction policy *per node*
over a :class:`~repro.sim.trace.Trace` or a streaming
:class:`~repro.sim.colstore.TraceReader`, under a pluggable routing +
admission strategy pair (:mod:`repro.net.strategies`) on a
:class:`~repro.net.topology.Topology`.

Per-request mechanics
---------------------
1. The request enters at an **ingress** node (leaf choice is
   pluggable: hash of the page, round-robin, tenant-affine, or a
   callable).
2. It walks its probe route toward the origin.  At each cache: a
   bounded ingress queue may **reject** it (the request bypasses that
   cache — no probe, no admission, and the node's hit/miss ledgers do
   not move); otherwise the cache is probed — a **hit** serves the
   request, a **miss** forwards it upstream.  The origin always
   serves.
3. On the way back, the **admission strategy** picks which missing
   caches store a copy.  Each admission is the engine's own miss step
   (:meth:`repro.sim.engine.CacheState.admit`) against that node's
   policy (space → insert; full → the policy's ``choose_victim`` +
   evict + insert): every node is a kernel cache state, so per-node
   behaviour is attributable to the policy alone.
4. End-to-end **latency** (read delays of every link crossed, both
   directions) lands in an exact :class:`~repro.net.metrics.LatencyDist`;
   admissions charge their node's uplink ``write_delay`` to the
   write-cost ledger (write-behind — not on the request path).

The walk runs at list speed.  When the ingress leaf depends on the page
alone (one leaf, ``hash``, ``tenant``), each page's leaf is resolved
once per run into a table; round-robin and callables stay per request.
Each leaf's route is bound once, as the tuple of its caches' node
states.  Per-tenant ledgers and origin fetches are plain lists, handed
out as int64 arrays.  To-origin latency is counted per (leaf, hop
position), the only latencies a topology has, and folded into the
:class:`~repro.net.metrics.LatencyDist` once per run.  So a request
costs list indexing plus the policy hooks it needs; nearest-copy
routing keeps its per-request route and latency sample.

Degenerate equivalence (test-enforced for every registered policy):
a single-node topology run is **bit-identical** to
:func:`repro.sim.engine.simulate` — same hits, misses, per-tenant miss
vector, and final cache — because the walk + admission mechanics above
collapse to exactly the engine's loop when there is one cache and the
strategy admits on every miss.

Observability: pass ``flight_capacity`` to attach one
:class:`~repro.obs.flight.FlightRecorder` per node.  A node's window
holds its hits and its *admitted* misses — an engine-compatible
decision stream (every recorded miss inserted), so
:func:`repro.obs.flight.verify_flight` replays any node of any
strategy bit-for-bit with ``dense=False`` sparse global clocks.
Registry metrics are per-node labelled (``net_node_hits_total{node=}``
…), so a Prometheus scrape shows the whole hierarchy.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.cost_functions import CostFunction
from repro.net.metrics import LatencyDist, NetResult, NodeStats
from repro.net.strategies import (
    AdmissionStrategy,
    RouteToOrigin,
    RoutingStrategy,
    make_routing,
    make_strategy,
)
from repro.net.topology import Topology
from repro.obs import Observability, default_observability
from repro.obs.flight import FlightRecorder
from repro.sim.engine import CacheState
from repro.sim.policy import EvictionPolicy, SimContext
from repro.sim.trace import DEFAULT_BATCH, Trace
from repro.util.rng import derive_seed
from repro.util.validation import check_positive_int

#: Ingress assignment modes (besides an explicit callable).
INGRESS_MODES = ("auto", "hash", "rr", "tenant")

PolicySpec = Union[str, Callable[..., EvictionPolicy]]

class _NodeState(CacheState):
    """Runtime state of one cache node: the kernel's cache state
    (:class:`~repro.sim.engine.CacheState`: residency, the policy and
    the miss step) plus what only a node has — its ingress queue, its
    per-tenant ledgers and its write cost.

    The walk probes ``res`` and admits through :meth:`admit`.  The
    ledgers are plain per-tenant lists, so a probe costs one list
    increment; :meth:`stats` derives the hit, miss and rejection
    counts from them and hands them out as int64 arrays.  ``on_hit``
    is bound from the policy instance when the state is built."""

    __slots__ = (
        "node_id", "name", "on_hit",
        "tenant_hits", "tenant_misses", "tenant_rejected", "write_cost",
        "uplink_write_delay",
        "queue_capacity", "drain_rate", "queue_len", "queue_last_t",
        "queue_peak",
    )

    def __init__(
        self,
        node_id: int,
        name: str,
        k: int,
        policy: EvictionPolicy,
        num_pages: int,
        num_users: int,
        uplink_write_delay: float,
        queue_capacity: Optional[int],
        drain_rate: float,
        validate: bool,
    ) -> None:
        super().__init__(
            policy, k, num_pages, validate=validate, label=f"{policy.name}@{name}"
        )
        self.node_id = node_id
        self.name = name
        self.on_hit = policy.on_hit
        self.write_cost = 0.0
        self.tenant_hits = [0] * max(num_users, 1)
        self.tenant_misses = [0] * max(num_users, 1)
        self.tenant_rejected = [0] * max(num_users, 1)
        self.uplink_write_delay = uplink_write_delay
        self.queue_capacity = queue_capacity
        self.drain_rate = drain_rate
        self.queue_len = 0.0
        self.queue_last_t = 0
        self.queue_peak = 0.0

    @property
    def admissions(self) -> int:
        """Copies stored: every admission filled a slot or evicted."""
        return self.size + self.evictions

    # -- queue ----------------------------------------------------------
    def queue_admits(self, t: int) -> bool:
        """Deterministic fluid queue: drains ``drain_rate`` per unit of
        global clock; an arrival that finds it full is rejected."""
        q = self.queue_len - (t - self.queue_last_t) * self.drain_rate
        if q < 0.0:
            q = 0.0
        self.queue_last_t = t
        if q >= self.queue_capacity:
            self.queue_len = q
            return False
        q += 1.0
        self.queue_len = q
        if q > self.queue_peak:
            self.queue_peak = q
        return True

    def stats(self, policy_name: str) -> NodeStats:
        return NodeStats(
            node_id=self.node_id,
            name=self.name,
            k=self.k,
            policy=policy_name,
            hits=sum(self.tenant_hits),
            misses=sum(self.tenant_misses),
            rejected=sum(self.tenant_rejected),
            admissions=self.admissions,
            evictions=self.evictions,
            write_cost=self.write_cost,
            tenant_hits=np.array(self.tenant_hits, dtype=np.int64),
            tenant_misses=np.array(self.tenant_misses, dtype=np.int64),
            tenant_rejected=np.array(self.tenant_rejected, dtype=np.int64),
            final_cache=self.resident(),
            queue_peak=self.queue_peak,
        )


class NetworkSim:
    """A configured cache network, ready to drive traces.

    Parameters
    ----------
    topology:
        The cache network (:class:`~repro.net.topology.Topology`).
    policy:
        Default eviction policy per node — a registry name or factory.
        Nodes with a :attr:`~repro.net.topology.NodeSpec.policy`
        override use their own instead.
    costs:
        Per-tenant cost functions; required by ``requires_costs``
        policies and by the cost aggregation helpers on the result.
    strategy:
        Admission strategy — name, factory, or instance (default
        ``"lce"``).
    routing:
        ``"to-origin"`` (default) or ``"nearest-copy"`` — name,
        factory, or instance.
    ingress:
        How requests pick their entry leaf: ``"auto"`` (single leaf →
        that leaf; else ``"hash"``), ``"hash"`` (splitmix64 of the
        page — stable, locality-preserving), ``"rr"`` (round-robin by
        global clock), ``"tenant"`` (owner id modulo leaves), or a
        callable ``(page, t) -> node_id``.
    policy_seed:
        Base seed for stochastic node policies: node *v*'s instance is
        built with ``rng=policy_seed + v`` (the
        :class:`~repro.serve.shard.ShardManager` convention, so node
        windows replay under the same seeds).
    seed:
        Seed for stochastic *admission* strategies (per-node streams).
    validate:
        Check victims are resident (disable only in benchmarks).
    obs:
        Telemetry bundle; defaults to the process default.  Counters
        are per-node labelled; one ``net.run`` span wraps each run.
        When the tracer has a file sink, ``workers="per-node"`` runs
        also propagate distributed span context over the links and
        spill per-node spans next to the parent file (see
        :mod:`repro.obs.distrib`); when ``obs.timeline`` is set, a
        registry snapshot lands on it after every run.
    profile:
        ``True`` (default 5 ms interval) or a float interval in
        seconds: attach a :class:`~repro.obs.prof.SamplingProfiler`
        to each run — per node-process under ``workers="per-node"``,
        around the whole walk serially.  Folded stacks land in
        ``self.profiles`` keyed by node name (plus ``"parent"``).
    flight_capacity:
        When set, attach one FlightRecorder of this capacity per cache
        node (``self.flights[node_id]``); windows replay-verify via
        :func:`repro.obs.flight.verify_flight`.
    http_port / http_host / alerts:
        ``http_port`` (0 = ephemeral) starts the HTTP admin plane on a
        daemon thread at the first :meth:`run` (``/metrics``,
        ``/alerts``, ``/timeline``; see :mod:`repro.obs.httpd`) and
        attaches an :class:`~repro.obs.alerts.AlertEngine` over
        :func:`~repro.obs.alerts.net_rule_pack` (per-node rejection and
        occupancy rules) unless an explicit ``alerts`` engine is given;
        alert evaluation rides the post-run timeline snapshot.
    """

    def __init__(
        self,
        topology: Topology,
        policy: PolicySpec = "lru",
        *,
        costs: Optional[Sequence[CostFunction]] = None,
        strategy: Union[str, AdmissionStrategy] = "lce",
        routing: Union[str, RoutingStrategy] = "to-origin",
        ingress: Union[str, Callable[[int, int], int]] = "auto",
        policy_seed: Optional[int] = None,
        seed: int = 0,
        validate: bool = True,
        obs: Optional[Observability] = None,
        profile: object = None,
        flight_capacity: Optional[int] = None,
        http_port: Optional[int] = None,
        http_host: str = "127.0.0.1",
        alerts: object = None,
    ) -> None:
        self.topology = topology
        self.policy_spec = policy
        self.costs = costs
        self.strategy = make_strategy(strategy)
        self.routing = make_routing(routing)
        if not (callable(ingress) or ingress in INGRESS_MODES):
            raise ValueError(
                f"ingress must be callable or one of {INGRESS_MODES}, "
                f"got {ingress!r}"
            )
        self.ingress_mode = ingress
        self.policy_seed = policy_seed
        self.seed = seed
        self.validate = validate
        self.obs = obs
        from repro.obs.prof import profile_spec

        self._profile = profile_spec(profile)
        #: Per-process folded stacks from the most recent profiled run.
        self.profiles: Dict[str, Dict[str, int]] = {}
        self.flight_capacity = (
            None
            if flight_capacity is None
            else check_positive_int(flight_capacity, "flight_capacity")
        )
        #: Per-node flight recorders from the most recent run.
        self.flights: Dict[int, FlightRecorder] = {}
        # HTTP admin plane + alerting: a daemon-thread HTTP server (the
        # sim itself is synchronous) over the run's registry/timeline,
        # with per-node alert rules from the net rule pack.  Alert
        # evaluation rides the post-run timeline snapshot.
        self._http_port = http_port
        self._http_host = http_host
        self._http_thread = None
        self.http_address: Optional[Tuple[str, int]] = None
        if http_port is not None or alerts is not None:
            if self.obs is None:
                self.obs = default_observability()
            if self.obs.timeline is None:
                from repro.obs.timeline import Timeline

                self.obs.timeline = Timeline()
            if alerts is None:
                from repro.obs.alerts import AlertEngine, net_rule_pack

                alerts = AlertEngine(
                    self.obs.timeline, net_rule_pack(topology)
                )
            elif alerts.timeline is not self.obs.timeline:  # type: ignore[attr-defined]
                raise ValueError(
                    "alerts.timeline must be obs.timeline — the engine "
                    "reads the ring the post-run snapshot feeds"
                )
        self.alerts = alerts

    # ------------------------------------------------------------------
    def _build_policy(self, spec: PolicySpec, node_id: int) -> EvictionPolicy:
        from repro.serve.shard import make_policy_instance

        if isinstance(spec, str):
            from repro.policies import POLICY_REGISTRY

            try:
                factory: Callable[..., EvictionPolicy] = POLICY_REGISTRY[spec]
            except KeyError:
                known = ", ".join(sorted(POLICY_REGISTRY))
                raise KeyError(
                    f"unknown policy {spec!r}; known: {known}"
                ) from None
        else:
            factory = spec
        seed = None if self.policy_seed is None else self.policy_seed + node_id
        return make_policy_instance(factory, seed)

    def _ingress(
        self, num_pages: int, owners: np.ndarray
    ) -> Tuple[Optional[List[int]], Optional[Callable[[int, int], int]]]:
        """Resolve the ingress mode for one run: ``(table, None)`` when
        the leaf depends on the page alone (``table[page]`` is its
        leaf), else ``(None, fn)`` with ``fn(page, t)`` called per
        request (round-robin and callables)."""
        leaves = self.topology.ingress
        mode = self.ingress_mode
        n = len(leaves)
        if callable(mode):
            valid = frozenset(leaves)

            def checked(page: int, t: int, _fn=mode) -> int:
                v = _fn(page, t)
                if v not in valid:
                    raise ValueError(
                        f"ingress callable returned {v!r} at t={t}; must "
                        f"be an ingress leaf of the topology "
                        f"({sorted(valid)})"
                    )
                return v

            return None, checked
        if n == 1:
            return [leaves[0]] * max(num_pages, 1), None
        if mode == "rr":
            return None, lambda page, t: leaves[t % n]
        if mode == "tenant":
            # tenant-affine: every tenant enters at a fixed leaf.
            idx = np.asarray(owners, dtype=np.int64) % n
        else:
            # "hash" (and "auto" over several leaves): the serve layer's
            # splitmix64 placement, so ingress routing is stable across
            # processes and runs.
            from repro.serve.shard import shard_table

            idx = shard_table(num_pages, n)
        return np.asarray(leaves, dtype=np.int64)[idx].tolist(), None

    # ------------------------------------------------------------------
    def run(
        self,
        trace,
        batch: int = DEFAULT_BATCH,
        workers: Optional[str] = None,
    ) -> NetResult:
        """Drive *trace* (a Trace or streaming TraceReader) through the
        network; returns a :class:`~repro.net.metrics.NetResult`.

        ``workers="per-node"`` runs the process-parallel pipeline (one
        OS process per cache node, pipes as links) — path topologies
        with ``local`` admission strategies only; see
        :mod:`repro.net.parallel`.
        """
        if self._http_port is not None and self._http_thread is None:
            self.start_http()
        if workers is not None:
            if workers != "per-node":
                raise ValueError(
                    f"workers must be None or 'per-node', got {workers!r}"
                )
            from repro.net.parallel import run_parallel

            result = run_parallel(self, trace, batch=batch)
            obs = self.obs if self.obs is not None else default_observability()
            self._export_metrics(obs, result)
            self._snap_timeline(obs)
            return result
        obs = self.obs if self.obs is not None else default_observability()
        self.profiles = {}
        prof = None
        if self._profile is not None:
            from repro.obs.prof import DEFAULT_INTERVAL, SamplingProfiler

            prof = SamplingProfiler(
                float(self._profile.get("interval", DEFAULT_INTERVAL))
            ).start()
        try:
            if not (obs.tracer.enabled or obs.registry.enabled):
                result = self._run_serial(trace, batch)
            else:
                with obs.tracer.span(
                    "net.run",
                    strategy=self.strategy.name,
                    routing=self.routing.name,
                    nodes=len(self.topology.cache_nodes),
                    trace=getattr(trace, "name", "trace"),
                ) as span:
                    result = self._run_serial(trace, batch)
                    span.set(
                        hits=result.network_hits,
                        origin=result.origin_total,
                        rejected=result.rejected_total,
                    )
                self._export_metrics(obs, result)
        finally:
            if prof is not None:
                prof.stop()
                self.profiles["parent"] = prof.folded()
        self._snap_timeline(obs)
        return result

    def start_http(self) -> Tuple[str, int]:
        """Start the HTTP admin plane (daemon thread + private loop);
        returns the bound ``(host, port)``.  Called lazily by
        :meth:`run` when ``http_port=`` was given; the endpoint stays
        up across runs until :meth:`stop_http`."""
        if self._http_thread is not None:
            assert self.http_address is not None
            return self.http_address
        from repro.obs.httpd import ObsHttpServer, ObsHttpThread

        obs = self.obs if self.obs is not None else default_observability()
        server = ObsHttpServer(
            metrics=obs.registry.render,
            alerts=self.alerts,
            timeline=obs.timeline,
            name="netsim",
        )
        self._http_thread = ObsHttpThread(
            server, self._http_host, 0 if self._http_port is None else self._http_port
        )
        self.http_address = self._http_thread.start()
        return self.http_address

    def stop_http(self) -> None:
        if self._http_thread is not None:
            self._http_thread.stop()
            self._http_thread = None
            self.http_address = None

    def _snap_timeline(self, obs: Observability) -> None:
        if obs.timeline is not None:
            ts = time.time()
            if obs.timeline.snap(obs.registry, ts) and self.alerts is not None:
                self.alerts.evaluate(ts)  # type: ignore[attr-defined]

    def _export_metrics(self, obs: Observability, result: NetResult) -> None:
        reg = obs.registry
        if not reg.enabled:
            return
        reg.counter("net_runs_total", "Network simulation runs").inc()
        reg.counter("net_requests_total", "Requests routed through the network").inc(
            result.total_requests
        )
        reg.counter("net_origin_fetches_total", "Requests served by the origin").inc(
            result.origin_total
        )
        hits = reg.counter(
            "net_node_hits_total", "Cache hits per network node", labels=("node",)
        )
        misses = reg.counter(
            "net_node_misses_total", "Cache misses per network node", labels=("node",)
        )
        rejected = reg.counter(
            "net_node_rejected_total",
            "Queue rejections per network node",
            labels=("node",),
        )
        occupancy = reg.gauge(
            "net_node_occupancy", "Resident pages per network node", labels=("node",)
        )
        for n in result.nodes:
            hits.labels(node=n.name).inc(n.hits)
            misses.labels(node=n.name).inc(n.misses)
            rejected.labels(node=n.name).inc(n.rejected)
            occupancy.labels(node=n.name).set(n.occupancy)
        reg.gauge("net_latency_mean", "Mean end-to-end latency").set(
            result.latency.mean()
        )
        reg.gauge("net_latency_p99", "p99 end-to-end latency").set(
            result.latency.quantile(0.99)
        )

    # ------------------------------------------------------------------
    def _run_serial(self, trace, batch: int) -> NetResult:
        topo = self.topology
        num_users = trace.num_users
        num_pages = trace.num_pages
        owners = np.asarray(trace.owners)
        owners_l = owners.tolist()
        horizon = trace.length

        cache_nodes = topo.cache_nodes
        multi = len(cache_nodes) > 1
        states: Dict[int, _NodeState] = {}
        instances: Dict[int, EvictionPolicy] = {}
        for spec in cache_nodes:
            inst = self._build_policy(spec.policy or self.policy_spec, spec.node_id)
            if inst.requires_costs and self.costs is None:
                raise ValueError(f"{inst.name} requires cost functions")
            if inst.requires_future:
                if multi:
                    raise ValueError(
                        f"{inst.name} is offline (requires_future); offline "
                        f"policies only run on single-node topologies"
                    )
                if not isinstance(trace, Trace):
                    raise ValueError(
                        f"{inst.name} needs the materialized trace; "
                        f"materialize() the reader first"
                    )
            ctx = SimContext(
                k=spec.k,
                owners=owners,
                num_users=num_users,
                costs=self.costs,
                trace=trace if inst.requires_future else None,
                num_pages=num_pages,
                horizon=horizon,
            )
            inst.reset(ctx)
            instances[spec.node_id] = inst
            up = topo.uplink(spec.node_id)
            states[spec.node_id] = _NodeState(
                spec.node_id,
                spec.name,
                spec.k,
                inst,
                num_pages,
                num_users,
                up.write_delay if up is not None else 0.0,
                spec.queue_capacity,
                spec.drain_rate,
                self.validate,
            )
        if self.costs is not None and len(self.costs) < num_users:
            raise ValueError(
                f"need {num_users} cost functions, got {len(self.costs)}"
            )

        self.flights = {}
        if self.flight_capacity is not None:
            for spec in cache_nodes:
                st = states[spec.node_id]
                fl = FlightRecorder(capacity=self.flight_capacity)
                fl.note_config(
                    policy=instances[spec.node_id].name,
                    k=spec.k,
                    num_shards=1,
                    source=f"net:{spec.name}",
                    trace=getattr(trace, "name", "trace"),
                    dense=False,
                    policy_seed=(
                        None
                        if self.policy_seed is None
                        else self.policy_seed + spec.node_id
                    ),
                )
                st.attach_flight(fl, owners_l)
                self.flights[spec.node_id] = fl

        strategy = self.strategy
        strategy.reset(topo, self.seed)
        admit = strategy.admit
        routing = self.routing
        routing.reset(topo, lambda v, page: states[v].res[page])
        walk_to_origin = isinstance(routing, RouteToOrigin)

        table, ingress_of = self._ingress(num_pages, owners)
        origin = topo.origin
        # Each leaf's lane: the states of the caches on its route, the
        # requests served at each hop position (the last one is the
        # origin), and the prefix read delays that price those hops.
        lanes = {}
        for v in topo.ingress:
            route = topo.route(v)
            lanes[v] = (
                tuple(states[u] for u in route[:-1]),
                [0] * len(route),
                topo.prefix_read_delay(v),
            )
        # (counts, position, one-way delay) of each hop position, in the
        # order of the first request it served: folding in that order
        # fills the latency mass as one add per request would, so
        # ``mean()`` sums it in the same order.
        first: List[Tuple[List[int], int, float]] = []
        # Pair delays over tree edges, both directions (nearest-copy
        # paths cross edges downward too).
        pair_delay: Dict[Tuple[int, int], float] = {}
        for link in topo.links:
            pair_delay[(link.src, link.dst)] = link.read_delay
            pair_delay[(link.dst, link.src)] = link.read_delay

        latency = LatencyDist()
        origin_fetches = [0] * max(num_users, 1)
        total = 0
        miss_path: List[int] = []

        for base, chunk in trace.batches(batch):
            pages = chunk.tolist()
            t = base
            for page in pages:
                tenant = owners_l[page]
                v0 = table[page] if table is not None else ingress_of(page, t)
                hit_node = origin

                if walk_to_origin:
                    route, counts, pre = lanes[v0]
                    # j is the hop position: a rejection advances it too,
                    # since the request still crosses that link.
                    j = 0
                    for st in route:
                        if st.queue_capacity is not None and not st.queue_admits(t):
                            st.tenant_rejected[tenant] += 1
                            j += 1
                            continue
                        if st.res[page]:
                            st.tenant_hits[tenant] += 1
                            st.on_hit(page, t)
                            if st.fl_append is not None:
                                st.fl_append((t, page, 0))
                            hit_node = st.node_id
                            break
                        st.tenant_misses[tenant] += 1
                        miss_path.append(st.node_id)
                        j += 1
                    else:
                        origin_fetches[tenant] += 1
                    c = counts[j]
                    if not c:
                        first.append((counts, j, pre[j]))
                    counts[j] = c + 1
                else:
                    # Strategy-chosen route; if every probed cache
                    # rejects or misses and the route did not end at
                    # the origin (a rejected holder), continue from its
                    # last node along the tree toward the origin.  The
                    # continuation recrosses nodes between the LCA and
                    # the holder: they are traversed again (latency)
                    # but never probed or queue-charged twice.
                    route = list(routing.route(v0, page))
                    if route[-1] != origin:
                        tail = topo.route(route[-1])[1:]
                        route.extend(tail)
                    lat = 0.0
                    prev = None
                    visited = set()
                    for v in route:
                        if prev is not None:
                            lat += pair_delay[(prev, v)]
                        prev = v
                        if v == origin:
                            break
                        if v in visited:
                            continue
                        visited.add(v)
                        st = states[v]
                        if st.queue_capacity is not None and not st.queue_admits(t):
                            st.tenant_rejected[tenant] += 1
                            continue
                        if st.res[page]:
                            st.tenant_hits[tenant] += 1
                            st.on_hit(page, t)
                            if st.fl_append is not None:
                                st.fl_append((t, page, 0))
                            hit_node = v
                            break
                        st.tenant_misses[tenant] += 1
                        miss_path.append(v)
                    if hit_node == origin:
                        origin_fetches[tenant] += 1
                    latency.add(2.0 * lat)

                if miss_path:
                    # A node nominated twice stores one copy.
                    for v in admit(miss_path, hit_node, page, t):
                        st = states[v]
                        if not st.res[page]:
                            st.admit(page, t)
                            st.write_cost += st.uplink_write_delay
                    miss_path = []
                t += 1
            total += len(pages)

        for counts, j, delay in first:
            latency.add(2.0 * delay, counts[j])
        node_stats = [
            states[spec.node_id].stats(instances[spec.node_id].name)
            for spec in cache_nodes
        ]
        return NetResult(
            topology_repr=repr(topo),
            strategy=strategy.name,
            routing=routing.name,
            trace_name=getattr(trace, "name", "trace"),
            total_requests=total,
            nodes=node_stats,
            origin_fetches=np.array(origin_fetches, dtype=np.int64),
            latency=latency,
            write_cost=sum(n.write_cost for n in node_stats),
        )


def simulate_network(
    topology: Topology,
    trace,
    policy: PolicySpec = "lru",
    *,
    costs: Optional[Sequence[CostFunction]] = None,
    strategy: Union[str, AdmissionStrategy] = "lce",
    routing: Union[str, RoutingStrategy] = "to-origin",
    ingress: Union[str, Callable[[int, int], int]] = "auto",
    policy_seed: Optional[int] = None,
    seed: int = 0,
    validate: bool = True,
    batch: int = DEFAULT_BATCH,
    workers: Optional[str] = None,
    obs: Optional[Observability] = None,
    profile: object = None,
    flight_capacity: Optional[int] = None,
) -> NetResult:
    """One-shot convenience wrapper around :class:`NetworkSim`."""
    sim = NetworkSim(
        topology,
        policy,
        costs=costs,
        strategy=strategy,
        routing=routing,
        ingress=ingress,
        policy_seed=policy_seed,
        seed=seed,
        validate=validate,
        obs=obs,
        profile=profile,
        flight_capacity=flight_capacity,
    )
    return sim.run(trace, batch=batch, workers=workers)


# ----------------------------------------------------------------------
# Grid driver
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NetGridRun:
    """One completed cell of a :func:`network_many` grid."""

    topology_index: int
    strategy: str
    trace_index: int
    policy: str
    seed: int
    elapsed: float
    result: NetResult


def _run_net_cell(job: Tuple) -> Tuple[float, NetResult]:
    """Top-level worker so process pools can unpickle the call."""
    (topology, strategy, trace, policy, costs, routing, ingress, seed) = job
    from repro.sim.driver import resolve_trace

    trace = resolve_trace(trace)
    start = time.perf_counter()
    result = simulate_network(
        topology,
        trace,
        policy,
        costs=costs,
        strategy=strategy,
        routing=routing,
        ingress=ingress,
        policy_seed=seed,
        seed=seed,
    )
    return time.perf_counter() - start, result


def network_many(
    topologies: Sequence[Topology],
    strategies: Sequence[str],
    traces: Sequence,
    *,
    policy: PolicySpec = "lru",
    costs=None,
    routing: str = "to-origin",
    ingress: Union[str, Callable[[int, int], int]] = "auto",
    base_seed: int = 0,
    workers: Optional[int] = None,
) -> List[NetGridRun]:
    """Run every (topology, strategy, trace) combination, optionally in
    parallel — the network analogue of
    :func:`repro.sim.driver.simulate_many`.

    Trace entries may be *path strings* (columnar directories stream
    via per-cell :class:`~repro.sim.colstore.TraceReader`\\ s opened
    inside the worker process, CSVs load there too), so parallel grids
    over on-disk traces ship a path per cell instead of pickling
    requests — the multi-core sweep mode ROADMAP item 5 calls for.
    ``costs`` follows :func:`~repro.sim.driver.simulate_many`: one list
    for all traces, or a callable evaluated per trace in the parent
    (path entries are opened header-only first, so the callable sees
    ``num_users``).

    Cells are numbered in ``itertools.product`` order; cell *i* runs
    under ``derive_seed(base_seed, i)`` (both the policy seed and the
    admission-strategy seed), and results come back in product order
    regardless of *workers*.
    """
    if not topologies:
        raise ValueError("topologies must be non-empty")
    if not strategies:
        raise ValueError("strategies must be non-empty")
    if not traces:
        raise ValueError("traces must be non-empty")
    from repro.sim.driver import costs_per_trace

    per_trace = costs_per_trace(costs, traces)

    jobs: List[Tuple] = []
    meta: List[Tuple[int, str, int, int]] = []
    for cell_index, (ti, strategy, xi) in enumerate(
        itertools.product(range(len(topologies)), strategies, range(len(traces)))
    ):
        seed = derive_seed(base_seed, cell_index)
        meta.append((ti, strategy, xi, seed))
        jobs.append(
            (
                topologies[ti],
                strategy,
                traces[xi],
                policy,
                per_trace[xi],
                routing,
                ingress,
                seed,
            )
        )

    if workers is None:
        outputs = [_run_net_cell(job) for job in jobs]
    else:
        workers = check_positive_int(workers, "workers")
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outputs = list(pool.map(_run_net_cell, jobs))

    policy_name = policy if isinstance(policy, str) else getattr(
        policy, "name", getattr(policy, "__name__", repr(policy))
    )
    return [
        NetGridRun(
            topology_index=ti,
            strategy=strategy,
            trace_index=xi,
            policy=policy_name,
            seed=seed,
            elapsed=elapsed,
            result=result,
        )
        for (ti, strategy, xi, seed), (elapsed, result) in zip(meta, outputs)
    ]


__all__ = [
    "DEFAULT_BATCH",
    "INGRESS_MODES",
    "NetGridRun",
    "NetworkSim",
    "network_many",
    "simulate_network",
]
