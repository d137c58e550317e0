"""Process-parallel network simulation: one worker per node, pipes as
links.

The serial engine walks each request through every cache level in one
process.  On a *path* topology the levels form a natural pipeline: the
edge process decides hit/miss/reject for its arrivals and forwards the
requests it could not serve to the next level's process over an OS
pipe — exactly the shape of the physical system, where a miss *is* a
message to the upstream cache.  The origin end drains in the parent,
which also streams the trace in (colstore readers batch straight from
disk, so RSS stays flat at any trace length).

Bit-identical to serial (test-enforced) under the conditions the
pipeline needs:

* **path topology** — each node has exactly one upstream, so the
  forwarded stream preserves global clock order and every node sees
  the same arrival sequence as in the serial walk;
* **to-origin routing** — nearest-copy needs residency of *other*
  nodes, which a per-node process cannot see;
* **local admission** (``strategy.local``) — each node decides from
  its own miss, its own RNG stream, and the one forwarded bit
  ``missed_below``; ``lcd``/``probcache`` need the hit position and
  stay serial-only;
* **online policies** — ``requires_future`` policies need the
  materialized trace and run serially.

Per-node mechanics reuse :class:`repro.net.netsim._NodeState` — the
kernel's residency and miss step
(:class:`repro.sim.engine.CacheState`) plus the node's queue, the same
code the serial engine runs, so equivalence is by construction, not by
parallel reimplementation.
Flight recorders ride along: each worker records its own window and
ships the ring back at EOF.

Observability rides the links too.  When the parent tracer has a file
sink, the ingress node derives a per-batch trace id (``base + 1`` —
the global clock makes it unique) and every forwarded batch carries
``(trace_id, parent_span)`` two extra tuple slots; each node spills
its spans to ``<sink>.w<node_id>`` (span-id namespace ``node_id + 1``,
see :mod:`repro.obs.distrib`) and the parent's origin drain closes
each tree with a ``net.origin`` span.  ``python -m repro.obs trace``
merges the spill files back into edge→…→origin request trees.  When
``NetworkSim(profile=...)`` is set, each node process runs a
:class:`~repro.obs.prof.SamplingProfiler` and ships its folded stacks
back in the result payload (``sim.profiles``, keyed by node name).
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional

import numpy as np

from repro.net.metrics import LatencyDist, NetResult, NodeStats
from repro.net.strategies import RouteToOrigin
from repro.obs.flight import FlightRecorder
from repro.sim.policy import SimContext
from repro.sim.trace import DEFAULT_BATCH

__all__ = ["run_parallel"]


def _node_worker(recv, send, result, cfg) -> None:
    """One cache level: consume arrivals, forward what it cannot serve."""
    from repro.net.netsim import _NodeState, NetworkSim

    try:
        topo = cfg["topology"]
        node_id = cfg["node_id"]
        spec = topo.node(node_id)
        owners = cfg["owners"]
        owners_l = owners.tolist()
        num_pages = cfg["num_pages"]
        num_users = cfg["num_users"]

        sim = NetworkSim.__new__(NetworkSim)
        sim.policy_seed = cfg["policy_seed"]
        policy = NetworkSim._build_policy(
            sim, cfg["policy_spec"], node_id
        )
        ctx = SimContext(
            k=spec.k,
            owners=owners,
            num_users=num_users,
            costs=cfg["costs"],
            trace=None,
            num_pages=num_pages,
            horizon=cfg["horizon"],
        )
        policy.reset(ctx)
        up = topo.uplink(node_id)
        st = _NodeState(
            node_id,
            spec.name,
            spec.k,
            policy,
            num_pages,
            num_users,
            up.write_delay if up is not None else 0.0,
            spec.queue_capacity,
            spec.drain_rate,
            cfg["validate"],
        )
        fl: Optional[FlightRecorder] = None
        if cfg["flight_capacity"]:
            fl = FlightRecorder(capacity=cfg["flight_capacity"])
            fl.note_config(**cfg["flight_meta"])
            st.attach_flight(fl, owners_l)

        strategy = cfg["strategy"]
        strategy.reset(topo, cfg["seed"])
        admit_local = strategy.admit_local

        tracer = None
        span_emit = None
        ids = None
        if cfg.get("trace_jsonl"):
            from repro.obs.distrib import emit_span, span_ids, spill_path
            from repro.obs.tracing import JsonlSink, Tracer

            tracer = Tracer(JsonlSink(spill_path(cfg["trace_jsonl"], node_id + 1)))
            span_emit = emit_span
            ids = span_ids(node_id + 1)
        profiler = None
        if cfg.get("profile"):
            from repro.obs.prof import DEFAULT_INTERVAL, SamplingProfiler

            profiler = SamplingProfiler(
                float(cfg["profile"].get("interval", DEFAULT_INTERVAL))
            ).start()

        res = st.res
        queue_capacity = st.queue_capacity
        tenant_hits = st.tenant_hits
        tenant_misses = st.tenant_misses
        tenant_rejected = st.tenant_rejected
        fl_append = st.fl_append
        on_hit = st.on_hit
        uplink_wd = st.uplink_write_delay

        while True:
            msg = recv.recv()
            kind = msg[0]
            if kind == "eof":
                send.send(("eof",))
                break
            if kind == "b":  # ingress batch: (base, pages), flags False
                base, pages = msg[1], msg[2]
                items = [
                    (base + i, page, False) for i, page in enumerate(pages)
                ]
                # The edge roots each trace: the global clock makes
                # base + 1 unique, and 0 still means "untraced".
                trace_id = base + 1 if tracer is not None else 0
                parent_span = None
            else:  # forwarded batch: (ts, pages, flags[, trace, span])
                items = list(zip(msg[1], msg[2], msg[3]))
                trace_id = msg[4] if len(msg) > 4 else 0
                parent_span = msg[5] if len(msg) > 5 else None
            t_ns = time.perf_counter_ns() if trace_id else 0
            out_t: List[int] = []
            out_p: List[int] = []
            out_f: List[bool] = []
            for t, page, missed_below in items:
                if queue_capacity is not None and not st.queue_admits(t):
                    tenant_rejected[owners_l[page]] += 1
                    out_t.append(t)
                    out_p.append(page)
                    out_f.append(missed_below)
                    continue
                if res[page]:
                    tenant_hits[owners_l[page]] += 1
                    on_hit(page, t)
                    if fl_append is not None:
                        fl_append((t, page, 0))
                    continue
                tenant_misses[owners_l[page]] += 1
                if admit_local(node_id, missed_below, page, t):
                    st.admit(page, t)
                    st.write_cost += uplink_wd
                out_t.append(t)
                out_p.append(page)
                out_f.append(True)
            my_span = None
            if trace_id and tracer is not None:
                my_span = next(ids)
                span_emit(
                    tracer,
                    "net.node",
                    (time.perf_counter_ns() - t_ns) * 1e-9,
                    trace_id=trace_id,
                    span_id=my_span,
                    parent_id=parent_span,
                    node=spec.name,
                    n=len(items),
                    fwd=len(out_t),
                )
            if out_t:
                if trace_id and my_span is not None:
                    send.send(("f", out_t, out_p, out_f, trace_id, my_span))
                else:
                    send.send(("f", out_t, out_p, out_f))

        if profiler is not None:
            profiler.stop()
        if tracer is not None:
            tracer.close()
        stats = st.stats(policy.name)
        result.send(
            (
                "ok",
                {
                    "stats": stats,
                    "flight_ring": list(fl.ring) if fl is not None else None,
                    "flight_meta": dict(fl.meta) if fl is not None else None,
                    "profile": (
                        profiler.folded() if profiler is not None else None
                    ),
                },
            )
        )
    except Exception as exc:  # pragma: no cover - error path
        try:
            send.send(("eof",))
        except Exception:
            pass
        result.send(("error", f"{type(exc).__name__}: {exc}"))


def run_parallel(sim, trace, batch: Optional[int] = None) -> NetResult:
    """Run *sim* over *trace* with one OS process per cache node.

    Called via ``NetworkSim.run(trace, workers="per-node")``; see the
    module docstring for the (validated) preconditions.
    """
    import multiprocessing as mp

    if batch is None:
        batch = DEFAULT_BATCH
    topo = sim.topology
    if not topo.is_path():
        raise ValueError(
            "workers='per-node' needs a path topology (one ingress, "
            "linear chain); run tree/star topologies serially"
        )
    if not isinstance(sim.routing, RouteToOrigin):
        raise ValueError(
            f"workers='per-node' supports to-origin routing only, "
            f"got {sim.routing.name!r}"
        )
    if not sim.strategy.local:
        raise ValueError(
            f"admission strategy {sim.strategy.name!r} is not local "
            f"(needs the hit position); run it serially"
        )

    owners = np.ascontiguousarray(np.asarray(trace.owners, dtype=np.int64))
    owners_l = owners.tolist()
    num_users = trace.num_users
    num_pages = trace.num_pages
    horizon = trace.length

    cache_nodes = topo.cache_nodes
    # Parent-side dry build: surface bad specs / offline policies before
    # forking, and learn each node's policy name for the ledgers.
    names: Dict[int, str] = {}
    for spec in cache_nodes:
        inst = sim._build_policy(spec.policy or sim.policy_spec, spec.node_id)
        if inst.requires_future:
            raise ValueError(
                f"{inst.name} is offline (requires_future); offline "
                f"policies do not run under workers='per-node'"
            )
        if inst.requires_costs and sim.costs is None:
            raise ValueError(f"{inst.name} requires cost functions")
        names[spec.node_id] = inst.name
    if sim.costs is not None and len(sim.costs) < num_users:
        raise ValueError(
            f"need {num_users} cost functions, got {len(sim.costs)}"
        )

    ingress = topo.ingress[0]
    route = topo.route(ingress)
    prefix = topo.prefix_read_delay(ingress)
    pos = {v: j for j, v in enumerate(route)}
    # Worker order along the chain, ingress first.
    chain = [v for v in route if v != topo.origin]

    from repro.obs import default_observability

    obs = sim.obs if sim.obs is not None else default_observability()
    trace_base = (
        getattr(obs.tracer.sink, "path", None) if obs.tracer.enabled else None
    )
    profile = getattr(sim, "_profile", None)

    start_method = (
        "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    )
    ctx = mp.get_context(start_method)
    links = [ctx.Pipe(duplex=False) for _ in range(len(chain) + 1)]
    results = {v: ctx.Pipe(duplex=False) for v in chain}
    procs = []
    for i, v in enumerate(chain):
        spec = topo.node(v)
        cfg = {
            "topology": topo,
            "node_id": v,
            "policy_spec": spec.policy or sim.policy_spec,
            "policy_seed": sim.policy_seed,
            "costs": sim.costs,
            "strategy": sim.strategy,
            "seed": sim.seed,
            "owners": owners,
            "num_pages": num_pages,
            "num_users": num_users,
            "horizon": horizon,
            "validate": sim.validate,
            "trace_jsonl": trace_base,
            "profile": profile,
            "flight_capacity": sim.flight_capacity,
            "flight_meta": {
                "policy": names[v],
                "k": spec.k,
                "num_shards": 1,
                "source": f"net:{spec.name}",
                "trace": getattr(trace, "name", "trace"),
                "dense": False,
                **(
                    {"policy_seed": sim.policy_seed + v}
                    if sim.policy_seed is not None
                    else {}
                ),
            },
        }
        p = ctx.Process(
            target=_node_worker,
            args=(links[i][0], links[i + 1][1], results[v][1], cfg),
            daemon=True,
            name=f"net-node-{spec.name}",
        )
        p.start()
        procs.append(p)

    feed_err: List[BaseException] = []

    def _feed() -> None:
        send = links[0][1]
        try:
            for base, chunk in trace.batches(batch):
                send.send(("b", base, chunk.tolist()))
            send.send(("eof",))
        except BaseException as exc:  # pragma: no cover - error path
            feed_err.append(exc)
            try:
                send.send(("eof",))
            except Exception:
                pass

    feeder = threading.Thread(target=_feed, name="net-feeder", daemon=True)
    feeder.start()

    sim.profiles = {}
    parent_prof = None
    if profile:
        from repro.obs.prof import DEFAULT_INTERVAL, SamplingProfiler

        parent_prof = SamplingProfiler(
            float(profile.get("interval", DEFAULT_INTERVAL))
        ).start()
    span_emit = None
    if trace_base:
        from repro.obs.distrib import emit_span

        span_emit = emit_span

    # Drain the top of the chain: whatever no cache served hits the
    # origin here, in global clock order.
    top = links[-1][0]
    origin_fetches = np.zeros(max(num_users, 1), dtype=np.int64)
    origin_count = 0
    while True:
        msg = top.recv()
        if msg[0] == "eof":
            break
        t_ns = time.perf_counter_ns() if span_emit is not None else 0
        for page in msg[2]:
            origin_fetches[owners_l[page]] += 1
        origin_count += len(msg[2])
        if span_emit is not None and len(msg) > 4 and msg[4]:
            span_emit(
                obs.tracer,
                "net.origin",
                (time.perf_counter_ns() - t_ns) * 1e-9,
                trace_id=msg[4],
                span_id=next(obs.tracer._ids),
                parent_id=msg[5],
                n=len(msg[2]),
            )
    feeder.join()
    if parent_prof is not None:
        parent_prof.stop()
        sim.profiles["parent"] = parent_prof.folded()
    if feed_err:  # pragma: no cover - error path
        raise feed_err[0]

    payloads: Dict[int, dict] = {}
    errors: List[str] = []
    for v in chain:
        status, payload = results[v][0].recv()
        if status == "ok":
            payloads[v] = payload
        else:  # pragma: no cover - error path
            errors.append(f"{topo.node(v).name}: {payload}")
    for p in procs:
        p.join()
    for conns in links:
        conns[0].close()
        conns[1].close()
    for conns in results.values():
        conns[0].close()
        conns[1].close()
    if errors:  # pragma: no cover - error path
        raise RuntimeError("network worker failed: " + "; ".join(errors))

    sim.flights = {}
    nodes: List[NodeStats] = []
    latency = LatencyDist()
    for spec in cache_nodes:
        payload = payloads[spec.node_id]
        stats: NodeStats = payload["stats"]
        nodes.append(stats)
        latency.add(2.0 * prefix[pos[spec.node_id]], stats.hits)
        if payload["flight_ring"] is not None:
            fl = FlightRecorder(capacity=sim.flight_capacity)
            fl.bind(owners_l)
            fl.note_config(**payload["flight_meta"])
            fl.extend(payload["flight_ring"])
            sim.flights[spec.node_id] = fl
        if payload.get("profile") is not None:
            sim.profiles[spec.name] = payload["profile"]
    latency.add(2.0 * prefix[-1], origin_count)

    total = sum(n.hits for n in nodes) + origin_count
    return NetResult(
        topology_repr=repr(topo),
        strategy=sim.strategy.name,
        routing=sim.routing.name,
        trace_name=getattr(trace, "name", "trace"),
        total_requests=total,
        nodes=nodes,
        origin_fetches=origin_fetches,
        latency=latency,
        write_cost=sum(n.write_cost for n in nodes),
    )
