"""Distributed tracing: span-context propagation over the worker and
network transports, worker-local spills, and the parent-side merge.

The acceptance contract of the observability PR: a request served by a
W=2 ShardWorkerPool and a request walking a 3-node network chain each
reassemble into a *single* parent-linked trace tree from the spilled
JSONL files, and turning tracing on never changes results (per-tenant
counters stay bit-identical to the untraced run / to ``simulate()``).
"""

from __future__ import annotations

import asyncio
import glob
import json
import time

import numpy as np
import pytest

from repro.core.cost_functions import MonomialCost
from repro.net import NetworkSim, path_topology
from repro.obs import JsonlSink, ListSink, Observability, Timeline, Tracer
from repro.obs.distrib import (
    NULL_CONTEXT,
    SpanContext,
    emit_span,
    format_trace_tree,
    install_namespace,
    merge_spans,
    merge_traces,
    span_ids,
    spill_path,
    trace_report,
)
from repro.serve import CacheServer, ShardWorkerPool
from repro.sim import simulate
from repro.workloads.builders import random_multi_tenant_trace, zipf_trace

SEED = 7


def span(trace, sid, parent=None, name="s", ts=0.0, **attrs):
    return {
        "type": "span",
        "name": name,
        "span_id": sid,
        "parent_id": parent,
        "trace": trace,
        "ts": ts,
        "dur": 0.001,
        "attrs": attrs,
    }


class TestSpanContext:
    def test_null_context_is_unsampled(self):
        assert NULL_CONTEXT == (0, 0)
        assert not SpanContext(*NULL_CONTEXT).sampled

    def test_context_destructures_like_a_tuple(self):
        ctx = SpanContext(9, 4)
        trace_id, parent = ctx
        assert (trace_id, parent) == (9, 4)
        assert ctx.sampled
        assert ctx.child(11) == (9, 11)
        assert ctx.child(11).trace_id == 9

    def test_namespaces_are_disjoint(self):
        ids0, ids1, ids2 = span_ids(0), span_ids(1), span_ids(2)
        a = [next(ids0) for _ in range(3)]
        b = [next(ids1) for _ in range(3)]
        c = [next(ids2) for _ in range(3)]
        assert len(set(a) | set(b) | set(c)) == 9
        # The in-process tracer counts from 1 == namespace 0.
        assert next(span_ids(0)) == 1
        assert next(span_ids(1)) == (1 << 48) + 1

    def test_namespace_range_checked(self):
        with pytest.raises(ValueError, match="out of range"):
            span_ids(1 << 15)
        with pytest.raises(ValueError, match="out of range"):
            span_ids(-1)

    def test_install_namespace_reseeds_tracer_ids(self):
        from repro.obs import ListSink

        sink = ListSink()
        t = Tracer(sink)
        install_namespace(t, 3)
        with t.span("x"):
            pass
        assert sink.events[0]["span_id"] == (3 << 48) + 1

    def test_spill_path_naming(self):
        assert spill_path("/tmp/t.jsonl", 1) == "/tmp/t.jsonl.w0"
        assert spill_path("/tmp/t.jsonl", 5) == "/tmp/t.jsonl.w4"


class TestMergeSpans:
    def test_single_complete_tree(self):
        events = [
            span(1, 10, None, "root", ts=0.0),
            span(1, 20, 10, "child-b", ts=2.0),
            span(1, 21, 10, "child-a", ts=1.0),
            span(1, 30, 20, "grandchild", ts=3.0),
        ]
        (tree,) = merge_spans(events)
        assert tree.complete
        assert tree.size() == 4
        (root,) = tree.roots
        # Children sorted by start time, not arrival order.
        assert [c.name for c in root.children] == ["child-a", "child-b"]
        assert root.children[1].children[0].name == "grandchild"
        text = format_trace_tree(tree)
        assert "root" in text and "grandchild" in text

    def test_orphan_and_multi_root_reported(self):
        events = [
            span(1, 1, None, "root"),
            span(1, 2, 999, "lost"),  # parent never arrived
            span(2, 3, None, "r1"),
            span(2, 4, None, "r2"),
        ]
        trees = merge_spans(events)
        report = trace_report(trees)
        assert report["traces"] == 2
        assert report["spans"] == 4
        assert report["orphan_spans"] == 1
        assert report["multi_root"] == 1
        assert report["complete"] == 0
        assert "orphan" in format_trace_tree(trees[0])

    def test_untraced_and_non_span_events_ignored(self):
        events = [
            {"type": "span", "name": "local", "span_id": 1, "dur": 0.0},
            {"type": "event", "name": "marker", "trace": 5},
            span(5, 2, None, "real"),
        ]
        (tree,) = merge_spans(events)
        assert tree.trace_id == 5
        assert tree.size() == 1

    def test_emit_span_schema(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        t = Tracer(JsonlSink(path))
        emit_span(
            t, "net.node", 0.25, trace_id=7, span_id=3, parent_id=1, n=4
        )
        t.close()
        from repro.obs import read_jsonl

        (event,) = read_jsonl(path)
        assert event["trace"] == 7
        assert event["span_id"] == 3
        assert event["parent_id"] == 1
        assert event["dur"] == 0.25
        assert event["attrs"] == {"n": 4}
        # ts is backdated to the span start.
        assert abs(event["ts"] - (time.time() - 0.25)) < 60


class TestWorkerPoolTracing:
    def test_w2_pool_builds_parent_linked_trees(self, tmp_path):
        """W=2 pool, span context on the wire: every traced batch merges
        into one complete tree (router root -> worker.apply children),
        and the hit flags stay bit-identical to the untraced pool."""
        trace = random_multi_tenant_trace(4, 50, 2000, seed=11)
        costs = [MonomialCost(2)] * trace.num_users
        base = str(tmp_path / "pool.jsonl")
        tracer = Tracer(JsonlSink(base))
        ids = span_ids(0)

        def make(trace_jsonl=None):
            return ShardWorkerPool(
                "lru", 2, 4, 64, trace.owners, costs,
                policy_seed=SEED, trace_jsonl=trace_jsonl,
            )

        traced, plain = make(base), make()
        try:
            batch = 128
            flags_traced = []
            flags_plain = []
            for t0 in range(0, trace.length, batch):
                chunk = trace.requests[t0 : t0 + batch]
                root = next(ids)
                start = time.perf_counter()
                flags_traced.append(traced.apply(chunk, t0, t0 + 1, root))
                emit_span(
                    tracer,
                    "serve.route",
                    time.perf_counter() - start,
                    trace_id=t0 + 1,
                    span_id=root,
                    parent_id=None,
                    t0=t0,
                )
                flags_plain.append(plain.apply(chunk, t0))
        finally:
            traced.close()
            plain.close()
            tracer.close()

        for a, b in zip(flags_traced, flags_plain):
            assert np.array_equal(a, b)

        files = sorted(glob.glob(base + "*"))
        assert set(files) == {base, base + ".w0", base + ".w1"}
        trees = merge_traces(files)
        report = trace_report(trees)
        assert report["traces"] == -(-trace.length // 128)
        assert report["complete"] == report["traces"]
        assert report["orphan_spans"] == 0
        workers_seen = set()
        for tree in trees:
            (root,) = tree.roots
            assert root.name == "serve.route"
            assert root.children, "router span has no worker children"
            for child in root.children:
                assert child.name == "worker.apply"
                workers_seen.add(child.event["attrs"]["w"])
        assert workers_seen == {0, 1}

    def test_untraced_pool_spills_nothing(self, tmp_path):
        trace = zipf_trace(100, 500, skew=1.0, seed=3)
        pool = ShardWorkerPool(
            "lru", 2, 4, 32, trace.owners, policy_seed=SEED
        )
        try:
            pool.apply(trace.requests[:256], 0)
        finally:
            pool.close()
        assert glob.glob(str(tmp_path / "*")) == []


class TestServerTracing:
    def test_w2_server_trees_and_tenant_counters(self, tmp_path):
        """End to end through CacheServer: route spans link worker
        spans, per-tenant counters match the untraced server, and the
        timeline ticks without touching the request path."""
        trace = random_multi_tenant_trace(4, 60, 3000, seed=13)
        costs = [MonomialCost(2)] * trace.num_users
        base = str(tmp_path / "serve.jsonl")

        async def run(obs):
            server = CacheServer(
                "lru", 64, trace.owners, costs, num_shards=2,
                policy_seed=SEED, workers=2, obs=obs,
            )
            await server.start()
            try:
                for t0 in range(0, trace.length, 256):
                    await server.request_many(
                        trace.requests[t0 : t0 + 256].tolist()
                    )
                await asyncio.sleep(0.06)
            finally:
                await server.stop()
            return server.stats()

        obs = Observability.enabled(
            sink=JsonlSink(base), timeline=Timeline(interval=0.02)
        )
        traced_stats = asyncio.run(run(obs))
        obs.tracer.close()
        plain_stats = asyncio.run(run(Observability()))

        def tenant_counts(stats):
            return [
                (int(r["hits"]), int(r["misses"]))
                for r in stats["tenants"]
            ]

        assert tenant_counts(traced_stats) == tenant_counts(plain_stats)

        trees = merge_traces(sorted(glob.glob(base + "*")))
        report = trace_report(trees)
        assert report["traces"] > 0
        assert report["complete"] == report["traces"]
        assert report["orphan_spans"] == 0
        for tree in trees:
            (root,) = tree.roots
            assert root.name == "serve.route"
            assert {c.name for c in root.children} == {"worker.apply"}

        # The timeline ticked on the event loop and derives series.
        assert len(obs.timeline) >= 1
        pts = obs.timeline.series("serve_requests_total")
        assert pts == sorted(pts)

    def test_traced_single_shard_matches_simulate(self, tmp_path):
        """Tracing on must not perturb serving: per-tenant misses stay
        bit-identical to the reference engine."""
        trace = random_multi_tenant_trace(4, 60, 2000, seed=13)
        costs = [MonomialCost(2)] * trace.num_users
        from repro.policies import POLICY_REGISTRY

        sim = simulate(trace, POLICY_REGISTRY["lru"](), 64, costs=costs)
        base = str(tmp_path / "one.jsonl")
        obs = Observability.enabled(sink=JsonlSink(base))

        async def run():
            server = CacheServer(
                "lru", 64, trace.owners, costs, num_shards=1,
                policy_seed=SEED, obs=obs,
            )
            await server.start()
            try:
                await server.request_many(trace.requests.tolist())
            finally:
                await server.stop()
            return server.stats()

        stats = asyncio.run(run())
        obs.tracer.close()
        assert int(stats["hits"]) == sim.hits
        assert int(stats["misses"]) == sim.misses
        assert [int(r["misses"]) for r in stats["tenants"]] == [
            int(m) for m in sim.user_misses
        ]

    def test_trace_sample_keeps_every_nth_tree_complete(self, tmp_path):
        """Head sampling: ``trace_sample=4`` keeps exactly every 4th
        submission's tree — still complete and parent-linked — while
        unsampled submissions spill nothing anywhere and results stay
        bit-identical to the unsampled run."""
        trace = random_multi_tenant_trace(4, 60, 2048, seed=13)
        costs = [MonomialCost(2)] * trace.num_users

        async def run(obs, trace_sample):
            server = CacheServer(
                "lru", 64, trace.owners, costs, num_shards=2,
                policy_seed=SEED, workers=2, obs=obs,
                trace_sample=trace_sample,
            )
            await server.start()
            try:
                for t0 in range(0, trace.length, 256):
                    await server.request_many(
                        trace.requests[t0 : t0 + 256].tolist()
                    )
            finally:
                await server.stop()
            return server.stats()

        base = str(tmp_path / "sampled.jsonl")
        obs = Observability.enabled(sink=JsonlSink(base))
        stats = asyncio.run(run(obs, trace_sample=4))
        obs.tracer.close()
        plain = asyncio.run(run(Observability(), trace_sample=1))
        assert int(stats["hits"]) == int(plain["hits"])

        trees = merge_traces(sorted(glob.glob(base + "*")))
        report = trace_report(trees)
        # 8 submissions of 256, every 4th traced -> exactly 2 trees.
        assert report["traces"] == 2
        assert report["complete"] == report["traces"]
        assert report["orphan_spans"] == 0
        for tree in trees:
            (root,) = tree.roots
            assert root.name == "serve.route"
            assert {c.name for c in root.children} == {"worker.apply"}
        # Trace ids are t0+1 of the sampled submissions (4th and 8th).
        assert sorted(t.trace_id for t in trees) == [3 * 256 + 1, 7 * 256 + 1]

    def test_reply_spans_link_to_their_own_route(self):
        """Every ``serve.reply`` of a pipelined TCP connection has its
        own submission's ``serve.route`` as parent, however many sampled
        in-process submissions are served around it (W=2, every
        submission sampled).  Each round writes one batch line and, once
        the server has queued it, queues 64 in-process submissions right
        behind it: the consumer serves all of them before the line's
        reply is written, 1,280 in all."""
        trace = random_multi_tenant_trace(4, 60, 3000, seed=13)
        costs = [MonomialCost(2)] * trace.num_users
        sink = ListSink()
        rounds, behind = 20, 64

        async def run():
            server = CacheServer(
                "lru", 64, trace.owners, costs, num_shards=2,
                policy_seed=SEED, workers=2,
                obs=Observability.enabled(sink=sink),
            )
            await server.start()
            host, port = await server.start_tcp()
            reader, writer = await asyncio.open_connection(host, port)
            pages = trace.requests.tolist()
            futs = []
            try:
                for r in range(rounds):
                    await server.drain()
                    line = {"op": "batch", "pages": pages[r * 128 : (r + 1) * 128]}
                    writer.write(json.dumps(line).encode() + b"\n")
                    await writer.drain()
                    while not server.queue_depth:  # not read yet
                        await asyncio.sleep(0)
                    for i in range(behind):
                        futs.append(
                            await server.submit_many(pages[i : i + 8])
                        )
                replies = [
                    json.loads(await reader.readline()) for _ in range(rounds)
                ]
                await asyncio.gather(*futs)
            finally:
                writer.close()
                await writer.wait_closed()
                await server.stop()
            return replies

        replies = asyncio.run(run())
        assert [r["t0"] for r in replies] == [
            r * (128 + 8 * behind) for r in range(rounds)
        ]
        routes = {
            e["trace"]: e["span_id"]
            for e in sink.events
            if e["name"] == "serve.route"
        }
        assert len(routes) == rounds * (1 + behind)
        linked = {
            e.get("trace"): e["parent_id"]
            for e in sink.events
            if e["name"] == "serve.reply"
        }
        for reply in replies:
            trace_id = reply["t0"] + 1
            assert linked.get(trace_id) == routes[trace_id], reply["t0"]


class TestNetworkTracing:
    def test_three_node_chain_single_tree_per_batch(self, tmp_path):
        """3-node path, workers='per-node': every batch reassembles as
        edge -> l1 -> l2 -> net.origin, one complete tree per trace id,
        and results stay identical to the untraced serial run."""
        trace = zipf_trace(128, 4000, skew=0.8, seed=5)
        base = str(tmp_path / "net.jsonl")
        obs = Observability.enabled(sink=JsonlSink(base))
        sim = NetworkSim(
            path_topology(3, 16), policy="lru", strategy="lce",
            seed=3, policy_seed=3, obs=obs,
        )
        res = sim.run(trace, batch=512, workers="per-node")
        obs.tracer.close()

        serial = NetworkSim(
            path_topology(3, 16), policy="lru", strategy="lce",
            seed=3, policy_seed=3,
        ).run(trace, batch=512)
        assert list(res.origin_fetches) == list(serial.origin_fetches)
        assert [(n.hits, n.misses) for n in res.nodes] == [
            (n.hits, n.misses) for n in serial.nodes
        ]

        files = sorted(glob.glob(base + "*"))
        assert len(files) == 4  # parent + three node spills
        trees = merge_traces(files)
        report = trace_report(trees)
        assert report["traces"] == -(-trace.length // 512)
        assert report["complete"] == report["traces"]
        assert report["orphan_spans"] == 0
        for tree in trees:
            (root,) = tree.roots
            chain = []
            node = root
            while True:
                chain.append(node)
                if not node.children:
                    break
                (node,) = node.children
            names = [n.name for n in chain]
            assert names[:-1] == ["net.node"] * (len(names) - 1)
            assert names[-1] in ("net.node", "net.origin")
            node_labels = [
                n.event["attrs"]["node"]
                for n in chain
                if n.name == "net.node"
            ]
            assert node_labels == ["edge", "l1", "l2"][: len(node_labels)]
