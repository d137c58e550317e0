"""Server mechanics: sharding, flow control, drain/shutdown, TCP.

The drain guarantee under test is the subsystem's core contract: an
accepted request is always answered — through a graceful ``stop()``,
and under fault injection that cancels the consumer task mid-stream.
"""

from __future__ import annotations

import asyncio
import gc
import json

import numpy as np
import pytest

from repro.core.cost_functions import MonomialCost
from repro.policies import POLICY_REGISTRY
from repro.policies.lru import LRUPolicy
from repro.serve import (
    CacheServer,
    ServerClosed,
    ShardManager,
    TenantGate,
    page_hash,
    replay_tcp,
)
from repro.serve.server import _read_line
from repro.serve.shard import shard_slots, shard_table
from repro.sim import Trace, simulate
from repro.workloads.builders import random_multi_tenant_trace, zipf_trace


def run(coro):
    return asyncio.run(coro)


def mt_owners(num_users=3, pages_per_user=10):
    return np.repeat(np.arange(num_users, dtype=np.int64), pages_per_user)


class TestShardManager:
    def test_slot_split_sums_to_k(self):
        mgr = ShardManager("lru", 3, 10, mt_owners())
        assert mgr.capacities() == [4, 3, 3]
        assert sum(mgr.capacities()) == 10

    def test_k_smaller_than_shards_rejected(self):
        with pytest.raises(ValueError, match="shards"):
            ShardManager("lru", 4, 3, mt_owners())

    def test_unknown_policy_rejected(self):
        with pytest.raises(KeyError, match="unknown policy"):
            ShardManager("nope", 1, 4, mt_owners())

    def test_page_hash_is_stable_and_partition_total(self):
        assert page_hash(0) == page_hash(0)
        mgr = ShardManager("lru", 4, 8, mt_owners(4, 100))
        sids = [mgr.shard_of(p) for p in range(400)]
        assert set(sids) <= {0, 1, 2, 3}
        # splitmix spreads contiguous tenant ranges across all shards
        assert len(set(sids[:100])) == 4

    def test_shard_subset_builds_only_its_shards(self):
        owners = mt_owners(4, 100)
        full = ShardManager("random", 4, 10, owners, policy_seed=5)
        part = ShardManager(
            "random", 4, 10, owners, policy_seed=5, shard_ids=(3, 1)
        )
        assert [s.shard_id for s in part.shards] == [3, 1]
        assert part.capacities() == [2, 3]
        # Placement is global, and shard i draws from policy_seed + i
        # whichever subset builds it.
        assert [part.shard_of(p) for p in range(400)] == [
            full.shard_of(p) for p in range(400)
        ]
        assert (
            part.shards[1].policy._rng.integers(1 << 30)
            == full.shards[1].policy._rng.integers(1 << 30)
        )
        for bad in ((), (1, 1), (4,), (-1,)):
            with pytest.raises(ValueError, match="shard_ids"):
                ShardManager("lru", 4, 10, owners, shard_ids=bad)

    def test_instance_policy_requires_single_shard(self):
        ShardManager(LRUPolicy(), 1, 4, mt_owners())
        with pytest.raises(ValueError, match="pre-built"):
            ShardManager(LRUPolicy(), 2, 4, mt_owners())

    def test_offline_policy_requires_trace_and_single_shard(self):
        trace = zipf_trace(30, 100, seed=0)
        with pytest.raises(ValueError, match="full trace"):
            ShardManager("belady", 1, 4, trace.owners)
        with pytest.raises(ValueError, match="num_shards=1"):
            ShardManager("belady", 2, 4, trace.owners, trace=trace)
        ShardManager("belady", 1, 4, trace.owners, trace=trace)

    def test_cost_policy_requires_costs(self):
        with pytest.raises(ValueError, match="requires cost"):
            ShardManager("alg-discrete", 1, 4, mt_owners())

    def test_per_shard_seeding_offsets(self):
        mgr = ShardManager("random", 2, 4, mt_owners(), policy_seed=5)
        solo = POLICY_REGISTRY["random"](rng=5)
        # Shard 0's stream must equal a factory(rng=seed) instance's.
        assert (
            mgr.shards[0].policy._rng.integers(1 << 30)
            == solo._rng.integers(1 << 30)
        )

    def test_shard_serve_validates_victims(self):
        class Liar(LRUPolicy):
            def choose_victim(self, page, t):
                return 29  # never resident: illegal

        mgr = ShardManager(Liar(), 1, 2, mt_owners())
        mgr.serve(0, 0)
        mgr.serve(1, 1)
        with pytest.raises(RuntimeError, match="non-resident"):
            mgr.serve(2, 2)


class TestTenantGate:
    def test_acquire_release_and_oversized_batch_cap(self):
        async def scenario():
            gate = TenantGate(4)
            taken = await gate.acquire(10)  # capped at capacity
            assert taken == 4 and gate.queued == 4
            waiter = asyncio.ensure_future(gate.acquire(2))
            await asyncio.sleep(0)
            assert not waiter.done()  # gate full: waits
            gate.release(4)
            assert await waiter == 2
            gate.release(2)
            assert gate.queued == 0

        run(scenario())

    def test_fifo_wakeups(self):
        async def scenario():
            gate = TenantGate(1)
            await gate.acquire(1)
            order = []

            async def waiter(tag):
                await gate.acquire(1)
                order.append(tag)
                gate.release(1)

            tasks = [asyncio.ensure_future(waiter(i)) for i in range(3)]
            await asyncio.sleep(0)
            gate.release(1)
            await asyncio.gather(*tasks)
            assert order == [0, 1, 2]

        run(scenario())


class TestServerLifecycle:
    def test_request_before_start_or_after_stop_raises(self):
        async def scenario():
            server = CacheServer("lru", 4, mt_owners())
            with pytest.raises(ServerClosed):
                await server.request(0)
            await server.start()
            out = await server.request(0)
            assert not out.hit and out.t == 0 and out.tenant == 0
            assert out.shard == server.shards.shard_of(0)
            await server.stop()
            with pytest.raises(ServerClosed):
                await server.request(0)

        run(scenario())

    def test_stop_drains_pending_requests(self):
        async def scenario():
            server = CacheServer("lru", 4, mt_owners(), queue_limit=64)
            await server.start()
            futs = [await server.submit_many([p % 30]) for p in range(50)]
            await server.stop()
            outcomes = [await f for f in futs]
            assert sum(o.hits + o.misses for o in outcomes) == 50
            assert server.time == 50

        run(scenario())

    def test_cancel_mid_stream_answers_every_accepted_request(self):
        """Fault injection: cancel the consumer task outright while the
        queue is full; every accepted future must still resolve."""

        async def scenario():
            server = CacheServer("lru", 8, mt_owners(), queue_limit=128)
            await server.start()
            futs = [await server.submit_many([p % 30, (p + 1) % 30]) for p in range(60)]
            # Let the consumer make partial progress, then kill it.
            await asyncio.sleep(0)
            server._consumer.cancel()
            with pytest.raises(asyncio.CancelledError):
                await server._consumer
            outcomes = await asyncio.gather(*futs)
            assert sum(o.hits + o.misses for o in outcomes) == 120
            assert server.time == 120
            assert server.stats()["queue_depth"] == 0
            with pytest.raises(ServerClosed):
                await server.request(0)

        run(scenario())

    def test_bounded_queue_backpressure(self):
        async def scenario():
            server = CacheServer("lru", 4, mt_owners(), queue_limit=2)
            # No consumer started manually: fill the queue directly.
            server._queue = asyncio.Queue(maxsize=2)
            server._closed = False
            await server.submit_many([0])
            await server.submit_many([1])
            blocked = asyncio.ensure_future(server.submit_many([2]))
            await asyncio.sleep(0)
            assert not blocked.done()  # producer is backpressured
            server._queue.get_nowait()
            server._queue.task_done()
            await blocked

        run(scenario())

    def test_tenant_gate_blocks_flooding_tenant_only(self):
        async def scenario():
            server = CacheServer(
                "lru", 8, mt_owners(3, 10), queue_limit=1024, tenant_inflight=2
            )
            await server.start()
            # Stall the consumer so credits are not returned.
            server._consumer.cancel()
            try:
                await server._consumer
            except asyncio.CancelledError:
                pass
            server._closed = False
            await server.submit_many([0, 1])  # tenant 0: gate now full
            flood = asyncio.ensure_future(server.submit_many([2]))
            await asyncio.sleep(0)
            assert not flood.done()  # tenant 0 is throttled...
            other = await asyncio.wait_for(
                server.submit_many([10]), timeout=1.0
            )  # ...tenant 1 is not
            assert not other.done()
            flood.cancel()
            with pytest.raises(asyncio.CancelledError):
                await flood

        run(scenario())

    def test_page_out_of_range_rejected(self):
        async def scenario():
            server = CacheServer("lru", 4, mt_owners())
            await server.start()
            try:
                with pytest.raises(ValueError, match="universe"):
                    await server.request(999)
            finally:
                await server.stop()

        run(scenario())


class TestStats:
    def test_snapshot_schema_and_json(self):
        async def scenario():
            costs = [MonomialCost(2)] * 3
            server = CacheServer(
                "alg-discrete", 6, mt_owners(), costs,
                num_shards=2, window=8, tenant_inflight=4,
            )
            await server.start()
            for p in range(20):
                await server.request(p % 25)
            stats = server.stats()
            await server.stop()
            return stats

        stats = run(scenario())
        json.dumps(stats)  # must be serialisable as-is
        for key in (
            "server", "policy", "k", "num_shards", "time", "queue_depth",
            "hits", "misses", "requests", "tenants", "shards",
            "total_cost", "window", "windowed_misses", "tenant_queued",
        ):
            assert key in stats, key
        assert stats["requests"] == 20
        assert stats["hits"] + stats["misses"] == 20
        assert len(stats["shards"]) == 2
        for row in stats["tenants"]:
            assert {"tenant", "hits", "misses", "cost", "marginal_quote"} <= set(row)


class TestTcpFrontEnd:
    def test_replay_and_ops_roundtrip(self):
        trace = random_multi_tenant_trace(3, 40, 2000, seed=2)
        costs = [MonomialCost(2)] * trace.num_users

        async def scenario():
            server = CacheServer("lru", 48, trace.owners, costs)
            await server.start()
            host, port = await server.start_tcp()
            totals = await replay_tcp(host, port, trace, batch=100)
            stats = server.stats()

            reader, writer = await asyncio.open_connection(host, port)

            async def ask(msg):
                writer.write(json.dumps(msg).encode() + b"\n")
                await writer.drain()
                return json.loads(await reader.readline())

            single = await ask({"op": "request", "page": 0})
            ping = await ask({"op": "ping"})
            # Reads are served over HTTP only: the old read ops are
            # unknown on TCP.
            reads = [
                await ask({"op": op})
                for op in ("stats", "metrics", "audit", "quote", "alerts")
            ]
            bad_op = await ask({"op": "warp"})
            bad_page = await ask({"op": "request", "page": 10**9})
            batch_detail = await ask(
                {"op": "batch", "pages": [0, 1, 0], "detail": True}
            )
            # JSON that is not an object, and fields that are not
            # integers in range, get an error reply; nothing is coerced,
            # the connection stays open and the clock does not move.
            time_before = server.time
            not_objects = []
            for line in (
                b"[]", b"7", b"null", b'"x"',
                b'{"op": "batch", "pages": [1e400]}',
                b'{"op": "batch"}',
                b'{"op": "request"}',
                b'{"op": "batch", "pages": {"1": 2}}',
                b'{"op": "batch", "pages": [true, 2.7]}',
                b'{"op": "batch", "pages": ["7"]}',
                b'{"op": "request", "page": 39.9}',
                b'{"op": "request", "page": "5"}',
            ):
                writer.write(line + b"\n")
                await writer.drain()
                not_objects.append(json.loads(await reader.readline()))
                assert (await ask({"op": "ping"}))["ok"], line
            assert server.time == time_before
            writer.close()
            await writer.wait_closed()
            await server.stop()
            return (
                totals, stats, single, ping, reads, bad_op, bad_page,
                batch_detail, not_objects,
            )

        (
            totals, stats, single, ping, reads, bad_op, bad_page,
            batch_detail, not_objects,
        ) = run(scenario())
        sim = simulate(trace, POLICY_REGISTRY["lru"](), 48, costs=costs)
        assert stats["hits"] == sim.hits and stats["misses"] == sim.misses
        assert totals == {
            "requests": trace.length, "hits": sim.hits, "misses": sim.misses,
            "time": trace.length,
        }
        assert single["ok"] and single["tenant"] == 0
        assert single["t"] == trace.length
        assert ping["ok"] and ping["time"] > trace.length
        for op, reply in zip(("stats", "metrics", "audit", "quote", "alerts"), reads):
            assert reply == {"ok": False, "error": f"unknown op {op!r}"}
        assert not bad_op["ok"] and "unknown op" in bad_op["error"]
        assert not bad_page["ok"]
        assert batch_detail["ok"] and len(batch_detail["hit_flags"]) == 3
        for reply in not_objects:
            assert not reply["ok"] and reply["error"], reply


    def test_serving_smoke_stats_equal_simulate(self):
        """A 5,000-request TCP replay in batches of 200 into an
        ALG-DISCRETE server: its stats equal ``simulate()`` — hits,
        misses, the client's own hit count, per-tenant misses — and the
        ingress queue is empty after the replay."""
        trace = random_multi_tenant_trace(4, 60, 5_000, seed=0)
        costs = [MonomialCost(2)] * trace.num_users

        async def smoke():
            server = CacheServer("alg-discrete", 64, trace.owners, costs)
            await server.start()
            host, port = await server.start_tcp()
            totals = await replay_tcp(host, port, trace, batch=200)
            stats = server.stats()
            await server.stop()
            return totals, stats

        totals, stats = run(smoke())
        sim = simulate(trace, POLICY_REGISTRY["alg-discrete"](), 64, costs=costs)
        assert stats["hits"] == sim.hits, (stats["hits"], sim.hits)
        assert stats["misses"] == sim.misses
        assert totals["hits"] == sim.hits and totals["misses"] == sim.misses
        assert stats["queue_depth"] == 0
        assert [row["misses"] for row in stats["tenants"]] == (
            sim.user_misses.tolist()
        )


def sharded_hits(trace, policy, k, num_shards):
    """Per-request hit flags of an S-shard server, from ``simulate()``
    run on each shard's subsequence of *trace*."""
    shard_of = shard_table(trace.num_pages, num_shards)[trace.requests]
    flags = np.zeros(trace.length, dtype=bool)
    for sid, slots in enumerate(shard_slots(k, num_shards)):
        idx = np.nonzero(shard_of == sid)[0]
        run = simulate(
            Trace(trace.requests[idx], trace.owners), POLICY_REGISTRY[policy](),
            slots, record_curve=True,
        )
        flags[idx] = np.diff(run.miss_curve.sum(axis=1)) == 0
    return flags


def batch_line(pages) -> bytes:
    return json.dumps({"op": "batch", "pages": pages.tolist()}).encode() + b"\n"


class TestReadAhead:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_replies_in_line_order_after_half_close(self, workers):
        """N batch lines with request lines among them, a malformed line
        and a ping, written before any reply is read and followed by a
        half-close: every line is answered in line order — batches and
        requests with contiguous clocks and the hits of ``simulate()``
        per shard, each request with its page's tenant and shard, the
        error in place, and the ping's clock counting every request
        ahead of it.  A second connection of N batch lines alone, then a
        half-close, gets its N replies too: EOF does not drop replies
        still owed."""
        n, size = 16, 128
        trace = random_multi_tenant_trace(3, 40, 2 * n * size, seed=4)
        # Batch index -> the page of a request line sent right after it
        # (page 7 twice: the second is a hit).
        requests_after = {1: 0, 4: 7, 5: 7, 10: 119, 15: 64}
        first_lines, expect, served = [], [], []
        for i in range(n):
            pages = trace.requests[i * size : (i + 1) * size]
            first_lines.append(batch_line(pages))
            expect.append(None)
            served.extend(pages.tolist())
            if i in requests_after:
                page = requests_after[i]
                first_lines.append(
                    json.dumps({"op": "request", "page": page}).encode() + b"\n"
                )
                expect.append(page)
                served.append(page)
        served.extend(trace.requests[n * size :].tolist())
        want = sharded_hits(Trace(np.array(served), trace.owners), "lru", 48, 2)
        shard_of = shard_table(trace.num_pages, 2)
        second_lines = [
            batch_line(trace.requests[i * size : (i + 1) * size])
            for i in range(n, 2 * n)
        ]

        async def half_close(host, port, payload):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(payload)
            await writer.drain()
            writer.write_eof()
            replies = [json.loads(x) for x in (await reader.read()).splitlines()]
            writer.close()
            await writer.wait_closed()
            return replies

        async def scenario():
            server = CacheServer(
                "lru", 48, trace.owners, num_shards=2, workers=workers
            )
            await server.start()
            host, port = await server.start_tcp()
            first = await half_close(host, port, b"".join(first_lines + [
                b"{not json\n", b'{"op": "ping"}\n',
            ]))
            second = await half_close(host, port, b"".join(second_lines))
            await server.stop()
            return server, first, second

        server, first, second = run(scenario())
        assert server.workers == workers
        assert len(first) == len(expect) + 2
        assert len(second) == n
        t = 0
        for page, reply in zip(expect + [None] * n, first[: len(expect)] + second):
            if page is None:
                assert reply["ok"] and reply["t0"] == t
                assert reply["hits"] == int(want[t : t + size].sum())
                t += size
            else:
                assert reply == {
                    "ok": True, "hit": bool(want[t]),
                    "tenant": int(trace.owners[page]), "t": t,
                    "shard": int(shard_of[page]),
                }
                t += 1
        assert t == len(served)
        malformed, ping = first[len(expect) :]
        assert not malformed["ok"] and "JSONDecodeError" in malformed["error"]
        assert ping == {"ok": True, "time": n * size + len(requests_after)}
        stats = server.stats()
        assert stats["time"] == stats["requests"] == len(served)
        assert stats["hits"] == int(want.sum())

    @pytest.mark.parametrize("workers", [1, 2])
    def test_line_past_the_limit_gets_an_error_reply(self, workers):
        """Four lines pipelined without reading: a batch, a 20,000-page
        batch line past the reader's 64 KiB limit, another batch and a
        ping.  The replies come back in line order — ok, an error naming
        the limit, ok, the ping — and the clock counts only the two
        served batches."""
        trace = random_multi_tenant_trace(4, 5_000, 20_000, seed=3)
        too_long = batch_line(trace.requests)
        assert len(too_long) > 2**16
        lines = [
            batch_line(trace.requests[:100]),
            too_long,
            batch_line(trace.requests[100:300]),
            b'{"op": "ping"}\n',
        ]

        async def scenario():
            server = CacheServer(
                "lru", 64, trace.owners, num_shards=2, workers=workers
            )
            await server.start()
            host, port = await server.start_tcp()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"".join(lines))
            await writer.drain()
            replies = [json.loads(await reader.readline()) for _ in lines]
            writer.close()
            await writer.wait_closed()
            await server.stop()
            return server, replies

        server, (first, error, second, ping) = run(scenario())
        assert server.workers == workers
        assert first["ok"] and first["t0"] == 0
        assert error == {"ok": False, "error": "line longer than 65536 bytes"}
        assert second["ok"] and second["t0"] == 100
        assert ping == {"ok": True, "time": 300}
        assert server.stats()["requests"] == 300

    def test_line_reader_discards_only_the_over_long_line(self):
        """Both ways a line overruns the limit: with its newline already
        buffered, and arriving in pieces past it.  Each reads as
        ``None`` and the next line is the one after it."""

        async def scenario():
            whole = asyncio.StreamReader(limit=16)
            whole.feed_data(b"a" * 40 + b"\nnext\n" + b"tail")
            whole.feed_eof()
            pieces = asyncio.StreamReader(limit=16)

            async def feed():
                for _ in range(5):
                    pieces.feed_data(b"b" * 10)
                    await asyncio.sleep(0)
                pieces.feed_data(b"b\nnext\n")
                pieces.feed_data(b"c" * 30)
                pieces.feed_eof()

            feeder = asyncio.ensure_future(feed())
            got = [await _read_line(whole) for _ in range(4)]
            got += [await _read_line(pieces) for _ in range(4)]
            await feeder
            return got

        assert run(scenario()) == [
            None, b"next\n", b"tail", b"",
            None, b"next\n", None, b"",
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_client_vanishing_with_batches_in_flight(self, workers):
        """A client writes 4 batch lines and closes without reading.
        Nothing reaches the loop's exception handler, every line the
        server read is served exactly once, and a second connection
        replaying the rest ends with the counters of ``simulate()`` over
        the whole trace."""
        size = 256
        trace = random_multi_tenant_trace(4, 60, 12 * size, seed=6)
        costs = [MonomialCost(2)] * trace.num_users

        def misses_of(requests):
            sub = Trace(requests, trace.owners)
            flags = sharded_hits(sub, "lru", 64, 2)
            return np.bincount(
                trace.owners[requests[~flags]], minlength=trace.num_users
            ).tolist()

        async def scenario():
            errors = []
            asyncio.get_running_loop().set_exception_handler(
                lambda _loop, context: errors.append(context)
            )
            server = CacheServer(
                "lru", 64, trace.owners, costs, num_shards=2, workers=workers
            )
            await server.start()
            host, port = await server.start_tcp()
            _reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"".join(
                batch_line(trace.requests[i * size : (i + 1) * size])
                for i in range(4)
            ))
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            # Settled: the clock has stopped and nothing is queued.
            seen, still = -1, 0
            while still < 5:
                await asyncio.sleep(0.02)
                still = still + 1 if server.time == seen else 0
                seen = server.time
            await server.drain()
            served = server.time
            first = [row["misses"] for row in server.stats()["tenants"]]
            await replay_tcp(
                host, port, Trace(trace.requests[served:], trace.owners)
            )
            final = server.stats()
            await server.stop()
            gc.collect()
            return errors, served, first, final

        errors, served, first, final = run(scenario())
        assert errors == []
        assert served % size == 0 and served <= 4 * size
        assert first == misses_of(trace.requests[:served])
        assert final["time"] == trace.length
        assert [row["misses"] for row in final["tenants"]] == misses_of(
            trace.requests
        )
