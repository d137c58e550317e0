"""ShardWorkerPool mechanics: routing, the framed pipe exchange,
scrape-time merges, per-worker flight windows, crash semantics, clean
shutdown, and the replay report's timing split.

The equivalence of *results* under parallelism (every registry policy,
workers x shards) lives in ``tests/test_serve_equivalence.py``; this
file tests the pool machinery itself plus the failure paths that the
equivalence suite never exercises — a worker dying mid-replay must fail
awaiting clients with :class:`~repro.serve.ServerClosed`, auto-dump the
surviving flight windows, and never hang.
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import textwrap
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from functools import partial

import numpy as np
import pytest

import repro
from repro.core.cost_functions import MonomialCost
from repro.obs import FlightRecorder, Observability, replay_verify
from repro.obs.alerts import FIRING, AlertEngine, serve_rule_pack
from repro.obs.flight import load_flight
from repro.obs.timeline import Timeline
from repro.policies import POLICY_REGISTRY
from repro.serve import (
    ApplyFailed,
    CacheServer,
    ServerClosed,
    ShardWorkerPool,
    WorkerCrashed,
    serve_trace,
)
from repro.serve.shard import page_hash, page_hash_array, shard_slots, shard_table
from repro.sim import Trace, simulate
from repro.sim.driver import simulate_many
from repro.workloads.builders import random_multi_tenant_trace, zipf_trace

SEED = 7


def make_pool(trace, costs, *, workers, shards=4, k=64, **kw):
    return ShardWorkerPool(
        "lru", workers, shards, k, trace.owners, costs,
        policy_seed=SEED, **kw,
    )


def drive(pool, trace, batch=128):
    """Feed the trace through the pool in batches; return merged flags."""
    out = np.empty(trace.length, dtype=np.uint8)
    for t0 in range(0, trace.length, batch):
        chunk = trace.requests[t0 : t0 + batch]
        out[t0 : t0 + len(chunk)] = pool.apply(chunk, t0)
    return out


def test_page_hash_array_matches_scalar():
    pages = np.arange(0, 5000, 7, dtype=np.int64)
    vec = page_hash_array(pages)
    assert vec.dtype == np.uint64
    assert [int(v) for v in vec] == [page_hash(int(p)) for p in pages]


def test_pool_flags_invariant_across_workers_and_wire():
    """The merged hit flags are bit-identical for any worker count, at
    W in {1, 2, 4}, and match the in-process serving path."""
    trace = random_multi_tenant_trace(4, 50, 2000, seed=11)
    costs = [MonomialCost(2)] * trace.num_users
    base = None
    for workers in (1, 2, 4):
        pool = make_pool(trace, costs, workers=workers)
        try:
            flags = drive(pool, trace)
        finally:
            pool.close()
        if base is None:
            base = flags
        else:
            assert np.array_equal(flags, base), f"workers={workers} diverged"
    # Tie the pool to the (simulate-verified) serving path, in-process
    # and over the wire end to end.
    report = serve_trace(
        trace, "lru", 64, costs, num_shards=4, policy_seed=SEED
    )
    assert int(base.sum()) == report.hits
    pooled = serve_trace(
        trace, "lru", 64, costs, num_shards=4, policy_seed=SEED, workers=2,
    )
    assert pooled.hits == report.hits
    assert pooled.user_misses.tolist() == report.user_misses.tolist()


def test_large_exchanges_ride_the_pipe():
    """Single submissions far above the socket buffer (200,000 requests,
    ~1.2 MB per worker frame) give the flags of a 64-request drive.
    The drive runs under a timeout, so a pipe deadlock fails the test
    instead of hanging it."""
    batch = 200_000
    trace = random_multi_tenant_trace(3, 80, 2 * batch, seed=17)
    costs = [MonomialCost(2)] * trace.num_users
    small = make_pool(trace, costs, workers=2)
    big = make_pool(trace, costs, workers=2)
    try:
        with ThreadPoolExecutor(max_workers=1) as ex:
            fut = ex.submit(drive, big, trace, batch)
            try:
                flags_big = fut.result(timeout=120)
            except FutureTimeout:
                big.close(graceful=False)  # unblocks the stuck exchange
                pytest.fail(f"{batch}-request exchange did not finish")
        assert max(len(w.staging) for w in big._workers[1:]) > 1_000_000
        flags_small = drive(small, trace, batch=64)
        assert np.array_equal(flags_big, flags_small)
    finally:
        small.close()
        big.close()


def test_clock_past_int32_reaches_the_child():
    """A data frame carries int32 positions beside an int64 ``t0``: a
    global clock past 2**31 serves as it does from 0 (LRU-K reads the
    times; only their order decides), in the child and in worker 0,
    for small frames (served from lists) and large ones (arrays)."""
    trace = random_multi_tenant_trace(3, 40, 2000, seed=9)
    costs = [MonomialCost(2)] * trace.num_users
    cuts = [0, 100, 1100, 1200, trace.length]
    flags = []
    for base in (0, 2**31 + 7):
        pool = ShardWorkerPool("lru-k", 2, 4, 48, trace.owners, costs)
        try:
            flags.append(np.concatenate([
                pool.apply(trace.requests[lo:hi], base + lo)
                for lo, hi in zip(cuts, cuts[1:])
            ]))
        finally:
            pool.close()
    assert np.array_equal(flags[0], flags[1])
    assert 0 < int(flags[0].sum()) < trace.length


def test_pool_server_lifecycle_leaves_no_tracker_warnings():
    """A W=2 server started, fed 5,000 requests, and stopped in a fresh
    interpreter leaves nothing for the multiprocessing resource tracker
    to report at exit."""
    script = textwrap.dedent(
        """
        import asyncio

        from repro.serve import CacheServer
        from repro.workloads.builders import random_multi_tenant_trace

        trace = random_multi_tenant_trace(4, 60, 5_000, seed=0)

        async def main():
            server = CacheServer(
                "lru", 64, trace.owners, num_shards=4, workers=2
            )
            await server.start()
            for i in range(0, trace.length, 250):
                await server.request_many(
                    trace.requests[i : i + 250].tolist()
                )
            await server.stop()
            assert server.workers == 2 and server.time == trace.length

        asyncio.run(main())
        """
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "resource_tracker" not in proc.stderr, proc.stderr


def test_pool_snapshot_merges_to_single_ledger():
    """The pool snapshot's ledger — every worker's slice merged with
    ``CostLedger.merge`` — is exactly the ledger a single-process
    server keeps."""
    trace = random_multi_tenant_trace(4, 50, 2500, seed=9)
    costs = [MonomialCost(2)] * trace.num_users
    window = 256
    pool = make_pool(trace, costs, workers=3, shards=5, window=window)
    try:
        flags = drive(pool, trace)
        snap = pool.snapshot()
    finally:
        pool.close()
    assert snap["workers"] == 3
    merged = snap["ledger"]
    assert merged.total_requests == trace.length
    assert merged.hits == int(flags.sum())
    assert [row["shard"] for row in snap["shards"]] == list(range(5))
    single = serve_trace(
        trace, "lru", 64, costs, num_shards=5, policy_seed=SEED,
        window=window,
    )
    assert merged.hits == single.hits
    assert merged.misses == single.misses
    assert [r["misses"] for r in merged.snapshot()["tenants"]] == [
        r["misses"] for r in single.stats["tenants"]
    ]
    assert merged.windowed_miss_counts().tolist() == (
        single.stats["windowed_misses"]
    )
    assert merged.total_cost() == single.stats["total_cost"]


def sharded_simulate(trace, policy, k, num_shards, costs):
    """Per-tenant ``(hits, misses)`` of an S-shard server, from
    ``simulate()`` run on each shard's subsequence of *trace*."""
    shard_of = shard_table(trace.num_pages, num_shards)[trace.requests]
    hits = np.zeros(trace.num_users, dtype=np.int64)
    misses = np.zeros(trace.num_users, dtype=np.int64)
    for sid, slots in enumerate(shard_slots(k, num_shards)):
        sub = trace.requests[shard_of == sid]
        run = simulate(
            Trace(sub, trace.owners), POLICY_REGISTRY[policy](), slots,
            costs=costs,
        )
        misses += run.user_misses
        hits += np.bincount(
            trace.owners[sub], minlength=trace.num_users
        ) - run.user_misses
    return hits.tolist(), misses.tolist()


@pytest.mark.parametrize("workers", [1, 2])
def test_server_ledger_is_exact_at_any_worker_count(workers):
    """``server.ledger`` is the in-process live ledger at W=1 and the
    workers' merged slices at W>1; both match ``simulate()`` per
    tenant, while serving and after ``stop()``."""
    trace = random_multi_tenant_trace(4, 60, 5000, seed=0)
    costs = [MonomialCost(2)] * trace.num_users
    want = sharded_simulate(trace, "lru", 64, 4, costs)

    async def run():
        server = CacheServer(
            "lru", 64, trace.owners, costs, num_shards=4, workers=workers,
        )
        await server.start()
        try:
            for i in range(0, trace.length, 250):
                await server.request_many(trace.requests[i : i + 250].tolist())
            live = server.ledger
            serving = (live.hits_by_user().tolist(), live.misses_by_user().tolist())
        finally:
            await server.stop()
        final = server.ledger
        return server, serving, (
            final.hits_by_user().tolist(), final.misses_by_user().tolist()
        ), final.total_requests

    server, serving, stopped, requests = asyncio.run(run())
    assert server.workers == workers
    assert serving == stopped == want
    assert requests == trace.length


def test_worker_crash_in_first_tick_fires_alert():
    """A worker lost before the timeline's first interval has passed
    still fires ``serve-worker-crashed``: the first snapshot is taken at
    start, so the crash counter has a zero baseline to rise from."""
    trace = random_multi_tenant_trace(4, 60, 1000, seed=0)
    costs = [MonomialCost(2)] * trace.num_users

    async def run():
        obs = Observability.enabled(timeline=Timeline(capacity=64, interval=0.2))
        engine = AlertEngine(obs.timeline, serve_rule_pack(), enabled=True)
        server = CacheServer(
            "lru", 64, trace.owners, costs, num_shards=4, workers=2,
            obs=obs, alerts=engine,
        )
        await server.start()
        try:
            victim = server._pool._procs[0]
            victim.kill()
            victim.join(timeout=10)
            assert not victim.is_alive()
            with pytest.raises(ServerClosed):
                await asyncio.wait_for(
                    server.request_many(trace.requests[:256].tolist()),
                    timeout=30,
                )
            for _ in range(100):  # 5 s: the alert lands on the next tick
                snap = engine.snapshot()
                fired = [a for a in snap["active"] if a["state"] == FIRING]
                if any(
                    a["rule"] == "serve-worker-crashed"
                    for a in fired + snap["resolved"]
                ):
                    return True
                await asyncio.sleep(0.05)
            return False
        finally:
            await asyncio.wait_for(server.stop(), timeout=30)

    assert asyncio.run(run()), "serve-worker-crashed never fired"


def test_pool_flight_windows_replay_exactly():
    """Each worker's sparse window replays bit-for-bit with
    ``dense=False``; the k-way merge of all windows is the dense global
    stream and replays with the default check."""
    trace = random_multi_tenant_trace(3, 40, 1500, seed=21)
    costs = [MonomialCost(2)] * trace.num_users
    meta = {"policy": "lru", "k": 48, "num_shards": 4, "policy_seed": SEED}
    pool = ShardWorkerPool(
        "lru", 2, 4, 48, trace.owners, costs, policy_seed=SEED,
        flight_capacity=trace.length, flight_meta=meta,
    )
    try:
        drive(pool, trace)
        windows = pool.flight_windows()
        merged = pool.merged_flight_events()
    finally:
        pool.close()
    assert len(windows) == 2
    assert sum(len(events) for _m, events in windows) == trace.length
    for w_meta, events in windows:
        assert w_meta["dense"] is False
        check = replay_verify(
            events, "lru", 48, trace.owners, costs=costs,
            num_shards=4, policy_seed=SEED, dense=False,
        )
        assert check.ok, check.mismatches
    assert [ev[0] for ev in merged] == list(range(trace.length))
    check = replay_verify(
        merged, "lru", 48, trace.owners, costs=costs,
        num_shards=4, policy_seed=SEED,
    )
    assert check.ok, check.mismatches


def test_pool_construction_errors_surface():
    """Worker build failures come back over the handshake as a
    ``WorkerCrashed`` naming the cause, not a silent child death."""
    trace = zipf_trace(50, 10, skew=1.0, seed=1)
    with pytest.raises(WorkerCrashed, match="unknown policy"):
        ShardWorkerPool("no-such-policy", 2, 4, 16, trace.owners)
    # Future-dependent policies are single-shard only, same as the
    # in-process ShardManager rule.
    with pytest.raises(WorkerCrashed, match="num_shards=1"):
        ShardWorkerPool(
            "belady", 2, 4, 16, trace.owners, trace=trace, horizon=10
        )


def test_worker_crash_fails_futures_and_dumps_flight(tmp_path):
    """Kill a worker mid-replay: awaiting clients get a ServerClosed
    subclass (no hang), the server refuses new work, the surviving
    flight windows are auto-dumped, and stop() still completes."""
    trace = random_multi_tenant_trace(4, 60, 4000, seed=2)
    costs = [MonomialCost(2)] * trace.num_users
    dump = str(tmp_path / "crash-flight.jsonl")
    obs = Observability()
    obs.flight = FlightRecorder(capacity=8192, dump_path=dump)

    async def run():
        server = CacheServer(
            "lru", 64, trace.owners, costs, num_shards=4,
            policy_seed=SEED, workers=2, obs=obs,
        )
        await server.start()
        try:
            await server.request_many(trace.requests[:1000].tolist())
            victim_proc = server._pool._procs[0]
            victim_proc.kill()
            victim_proc.join(timeout=10)
            with pytest.raises(ServerClosed):
                await asyncio.wait_for(
                    server.request_many(trace.requests[1000:2000].tolist()),
                    timeout=30,
                )
            # Ingress is closed: later submissions fail fast, not hang.
            with pytest.raises(ServerClosed):
                await asyncio.wait_for(server.request(5), timeout=30)
        finally:
            await asyncio.wait_for(server.stop(), timeout=30)
        return server

    server = asyncio.run(run())
    assert obs.flight.last_dump_reason == "worker-crash"
    events = load_flight(dump)
    assert len(events.events) > 0
    # At W=2 the killed process was the only child; worker 0 runs in the
    # server process and survives, so the dump is its window alone.
    assert {ev.shard for ev in events.events} <= {0, 2}
    # Post-crash scrapes still answer from the cached best-effort view.
    # Post-crash scrapes still answer from the surviving workers' view.
    stats = server.stats()
    assert stats["workers"] == 2
    assert stats["requests"] > 0


def test_replay_report_times_only_the_replay_window():
    """Worker spawn and drain are reported separately and excluded from
    the throughput window, so requests_per_sec measures serving alone
    for both the in-process and the parallel path."""
    trace = zipf_trace(200, 3000, skew=1.1, seed=8)
    costs = [MonomialCost(2)] * trace.num_users
    plain = serve_trace(trace, "lru", 64, costs, num_shards=2, workers=1)
    parallel = serve_trace(trace, "lru", 64, costs, num_shards=2, workers=2)
    for report in (plain, parallel):
        assert report.elapsed > 0
        assert report.startup_seconds >= 0
        assert report.drain_seconds >= 0
        assert report.requests_per_sec == pytest.approx(
            trace.length / report.elapsed
        )
    assert plain.workers == 1
    assert parallel.workers == 2
    # Fork+handshake dwarfs one request; it must not leak into elapsed:
    # both paths' per-request time stays within an order of magnitude
    # (startup alone is ~30ms, >> the whole single-process replay).
    assert parallel.startup_seconds > 0
    ratio = parallel.elapsed / plain.elapsed
    assert 0.02 < ratio < 50, (
        f"replay-window timing diverged: {plain.elapsed:.4f}s vs "
        f"{parallel.elapsed:.4f}s (is startup being counted?)"
    )


def test_simulate_many_chunksize_is_result_invariant():
    traces = [zipf_trace(80, 400, skew=1.0, seed=s) for s in (1, 2)]
    serial = simulate_many(["lru", "fifo"], [16, 32], traces, base_seed=3)
    for chunksize in (1, 3):
        parallel = simulate_many(
            ["lru", "fifo"], [16, 32], traces, base_seed=3,
            workers=2, chunksize=chunksize,
        )
        assert [
            (r.policy, r.k, r.trace_index, r.seed, r.result.misses)
            for r in parallel
        ] == [
            (r.policy, r.k, r.trace_index, r.seed, r.result.misses)
            for r in serial
        ]
    with pytest.raises(ValueError):
        simulate_many(["lru"], [16], traces, workers=2, chunksize=0)


def test_repro_obs_off_parallel_serving(monkeypatch):
    """REPRO_OBS=off must not break the parallel path (workers skip
    timing/monitor/flight work entirely) nor change its results."""
    monkeypatch.setenv("REPRO_OBS", "off")
    trace = zipf_trace(100, 800, skew=1.0, seed=4)
    costs = [MonomialCost(2)] * trace.num_users
    report = serve_trace(
        trace, "lru", 32, costs, num_shards=2, policy_seed=SEED, workers=2
    )
    single = serve_trace(
        trace, "lru", 32, costs, num_shards=2, policy_seed=SEED, workers=1
    )
    assert report.hits + report.misses == trace.length
    assert report.stats["workers"] == 2
    assert report.user_misses.tolist() == single.user_misses.tolist()


class _FailingLRU(POLICY_REGISTRY["lru"]):
    """LRU whose ``choose_victim`` raises for the pages in *bad*."""

    def __init__(self, bad):
        super().__init__()
        self._bad = bad

    def choose_victim(self, page, t):
        if page in self._bad:
            raise ValueError(f"refusing to evict for page {page}")
        return super().choose_victim(page, t)


@pytest.mark.parametrize(
    "workers, shards, bad_shard",
    [(1, 1, 0), (2, 2, 0), (2, 2, 1)],
    ids=["w1-s1", "w2-bad-first", "w2-bad-last"],
)
def test_apply_error_answers_every_request(tmp_path, workers, shards, bad_shard):
    """A policy that raises while applying closes the server instead of
    killing the consumer: the pending batch and later submissions fail
    with a ServerClosed naming the cause, the flight window is dumped,
    and stop() and stats() still answer.  At W=2 the bad shard is on
    worker 0 (in the server process) or on the worker process, and the
    other worker's reply of the failed exchange is read, not left in
    its pipe for the next gather.  Only the worker process's error is a
    crash: in the server process it is an ApplyFailed at any W."""
    trace = random_multi_tenant_trace(4, 60, 4000, seed=3)
    shard_of = shard_table(trace.num_pages, shards)
    bad = frozenset(np.nonzero(shard_of == bad_shard)[0].tolist())
    dump = str(tmp_path / "error-flight.jsonl")
    obs = Observability()
    obs.flight = FlightRecorder(capacity=8192, dump_path=dump)

    in_child = bad_shard % workers != 0
    expected = WorkerCrashed if in_child else ApplyFailed

    async def run():
        server = CacheServer(
            partial(_FailingLRU, bad), 16, trace.owners,
            num_shards=shards, workers=workers, obs=obs,
        )
        await server.start()
        try:
            with pytest.raises(expected, match="ValueError: refusing"):
                await asyncio.wait_for(
                    server.request_many(trace.requests[:2000].tolist()),
                    timeout=30,
                )
            with pytest.raises(ServerClosed):
                await asyncio.wait_for(server.request(5), timeout=5)
        finally:
            await asyncio.wait_for(server.stop(), timeout=30)
        return server

    server = asyncio.run(run())
    assert obs.flight.last_dump_reason == (
        "worker-crash" if in_child else "apply-error"
    )
    assert server._crashes == int(in_child)
    assert len(load_flight(dump).events) > 0
    stats = server.stats()
    assert stats["workers"] == workers
    assert stats["requests"] >= 0
