"""Parallel serving end to end: TCP replays at every worker count.

A ``workers=2`` server over one shard clamps to the in-process path and
matches ``simulate()``; at S=4, ``W`` in {2, 3, 4} serves the same
per-tenant counters, total cost and merged flight window as ``W=1``;
the ``request`` op (a batch of one) answers the same at ``W=2``, where
worker 0 runs in the server process.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core.cost_functions import MonomialCost
from repro.obs import FlightRecorder, Observability
from repro.policies import POLICY_REGISTRY
from repro.serve import CacheServer, replay_tcp
from repro.sim import simulate
from repro.workloads.builders import random_multi_tenant_trace

TRACE = random_multi_tenant_trace(4, 60, 5_000, seed=0)
COSTS = [MonomialCost(2)] * TRACE.num_users


async def _tcp_replay(workers, num_shards=1, obs=None):
    server = CacheServer(
        "alg-discrete", 64, TRACE.owners, COSTS, num_shards=num_shards,
        workers=workers, obs=obs,
    )
    await server.start()
    try:
        host, port = await server.start_tcp()
        totals = await replay_tcp(host, port, TRACE, batch=200)
    finally:
        await server.stop()
    stats = server.stats()
    assert totals["time"] == TRACE.length
    assert (totals["hits"], totals["misses"]) == (stats["hits"], stats["misses"])
    return server, stats


def test_single_shard_clamps_to_in_process_and_matches_simulate():
    server, stats = asyncio.run(_tcp_replay(2))
    # workers=2 over the default single shard clamps to workers=1 (a
    # shard is never split), i.e. the in-process path.
    assert server.workers == 1
    assert stats["workers"] == 1
    sim = simulate(TRACE, POLICY_REGISTRY["alg-discrete"](), 64, costs=COSTS)
    assert stats["hits"] == sim.hits
    assert stats["misses"] == sim.misses
    assert stats["queue_depth"] == 0
    assert [row["misses"] for row in stats["tenants"]] == sim.user_misses.tolist()
    cost = sum(f.value(int(m)) for f, m in zip(COSTS, sim.user_misses))
    assert stats["total_cost"] == cost


def _flight_obs():
    obs = Observability()
    obs.flight = FlightRecorder(capacity=2 * TRACE.length)
    return obs


@pytest.fixture(scope="module")
def sharded_base():
    obs = _flight_obs()
    _server, stats = asyncio.run(_tcp_replay(1, 4, obs))
    return stats, list(obs.flight.ring)


@pytest.mark.parametrize("workers", [2, 3, 4])
def test_sharded_counters_and_flight_identical_at_any_worker_count(
    sharded_base, workers
):
    """The global clock is assigned before routing, so per-tenant
    counters, total cost and the merged flight window are W=1's."""
    base, base_events = sharded_base
    obs = _flight_obs()
    server, stats = asyncio.run(_tcp_replay(workers, 4, obs))
    assert server.workers == stats["workers"] == workers
    assert stats["tenants"] == base["tenants"]
    assert stats["total_cost"] == base["total_cost"]
    assert len(base_events) == TRACE.length
    assert list(obs.flight.ring) == base_events
    assert obs.flight.meta["dense"] is True


def test_request_op_through_worker_zero_matches_in_process():
    """The TCP ``request`` op is a batch of one, read ahead like a
    ``batch`` line; at W=2 the shards of worker 0 are served in the
    server process."""
    pages = TRACE.requests[:600].tolist()

    async def run(workers):
        server = CacheServer(
            "lru", 32, TRACE.owners, COSTS, num_shards=4, workers=workers,
        )
        await server.start()
        try:
            host, port = await server.start_tcp()
            reader, writer = await asyncio.open_connection(host, port)
            replies = []
            for page in pages:
                writer.write(
                    json.dumps({"op": "request", "page": page}).encode() + b"\n"
                )
                await writer.drain()
                replies.append(json.loads(await reader.readline()))
            writer.close()
            await writer.wait_closed()
        finally:
            await server.stop()
        return replies, server.stats()

    plain, plain_stats = asyncio.run(run(1))
    pooled, pooled_stats = asyncio.run(run(2))
    assert pooled == plain
    assert all(r["ok"] for r in pooled)
    shards = {r["shard"] for r in pooled}
    assert shards & {0, 2} and shards & {1, 3}  # both workers served
    assert sum(not r["hit"] for r in pooled) > 0
    assert pooled_stats["workers"] == 2
    assert pooled_stats["tenants"] == plain_stats["tenants"]

