"""The HTTP admin plane: routes, drain-aware readiness, the daemon
thread wrapper, and the full :class:`CacheServer` integration — the
acceptance properties that ``/metrics`` is strict-parseable, that its
per-tenant counters stay bit-identical to an offline ``simulate()``
with the alert engine and HTTP plane enabled (and, at ``W=2``, to the
in-process run of the same shard set), that a lost worker fires (then
resolves) ``serve-worker-crashed`` within a timeline tick, visible at
``/alerts`` and in the alert sink, and that injected invariant drift
fires ``serve-invariant-drift``.
"""

from __future__ import annotations

import asyncio
import json
import socket
import urllib.error
import urllib.request

import numpy as np
import pytest

import repro
from repro.core.cost_functions import MonomialCost
from repro.obs import (
    Observability,
    parse_prometheus,
    sample_value,
)
from repro.obs.alerts import AlertEngine, FIRING, RESOLVED, serve_rule_pack
from repro.obs.export import PROMETHEUS_CONTENT_TYPE
from repro.obs.httpd import ObsHttpServer, ObsHttpThread, http_get
from repro.obs.monitor import InvariantMonitor
from repro.obs.timeline import Timeline
from repro.obs.tracing import JsonlSink
from repro.serve import CacheServer, ServerClosed, serve_trace
from repro.sim import simulate
from repro.workloads.builders import random_multi_tenant_trace

NUM_USERS = 4
K = 64


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(scope="module")
def trace():
    return random_multi_tenant_trace(NUM_USERS, 100, 6000, skew=0.9, seed=7)


@pytest.fixture(scope="module")
def costs():
    return [MonomialCost(2) for _ in range(NUM_USERS)]


def _get(addr, path, data=None):
    """Blocking HTTP GET/POST — only against an ObsHttpThread (its
    private loop lives in another thread, so blocking here is safe)."""
    url = f"http://{addr[0]}:{addr[1]}{path}"
    try:
        with urllib.request.urlopen(url, data=data, timeout=5) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


class TestRoutes:
    """Every route against a fully-wired server on a daemon thread."""

    @pytest.fixture()
    def plane(self):
        timeline = Timeline(capacity=8)
        timeline.ingest(1.0, {("jobs_total", ()): 3.0})
        timeline.ingest(2.0, {("jobs_total", ()): 5.0})
        engine = AlertEngine(timeline, enabled=True)
        state = {"ready": True}
        server = ObsHttpServer(
            metrics=lambda: "# HELP up up\n# TYPE up gauge\nup 1.0\n",
            alerts=engine,
            timeline=timeline,
            stats=lambda: {"policy": "lru", "requests": 7},
            audit=lambda: {"mode": "belady", "window": 16},
            ready=lambda: state["ready"],
            name="test-plane",
        )
        thread = ObsHttpThread(server)
        addr = thread.start()
        yield addr, state
        thread.stop()

    def test_index_lists_wired_routes(self, plane):
        addr, _ = plane
        status, headers, body = _get(addr, "/")
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        doc = json.loads(body)
        assert doc["name"] == "test-plane"
        assert doc["routes"] == [
            "/alerts", "/audit", "/health", "/metrics", "/ready", "/stats",
            "/timeline",
        ]

    def test_metrics_prometheus_content_type(self, plane):
        addr, _ = plane
        status, headers, body = _get(addr, "/metrics")
        assert status == 200
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        assert parse_prometheus(body.decode()) == {("up", ()): 1.0}

    def test_health_always_200(self, plane):
        addr, state = plane
        state["ready"] = False
        status, _, body = _get(addr, "/health")
        assert status == 200 and json.loads(body)["status"] == "ok"

    def test_ready_drain_aware(self, plane):
        addr, state = plane
        assert _get(addr, "/ready")[0] == 200
        state["ready"] = False  # draining
        status, _, body = _get(addr, "/ready")
        assert status == 503
        assert json.loads(body) == {"ready": False, "name": "test-plane"}

    def test_alerts_snapshot(self, plane):
        addr, _ = plane
        status, _, body = _get(addr, "/alerts")
        doc = json.loads(body)
        assert status == 200
        assert doc["enabled"] is True and doc["active"] == []

    def test_audit_snapshot(self, plane):
        addr, _ = plane
        status, headers, body = _get(addr, "/audit")
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        assert json.loads(body) == {"mode": "belady", "window": 16}

    def test_timeline_overview_and_series(self, plane):
        addr, _ = plane
        doc = json.loads(_get(addr, "/timeline")[2])
        assert doc["len"] == 2 and doc["capacity"] == 8
        assert doc["names"] == ["jobs_total"]
        doc = json.loads(_get(addr, "/timeline?name=jobs_total")[2])
        assert doc["rate"] is False
        assert doc["series"] == [
            {"labels": {}, "points": [[1.0, 3.0], [2.0, 5.0]]}
        ]
        doc = json.loads(_get(addr, "/timeline?name=jobs_total&rate=1")[2])
        assert doc["rate"] is True
        assert doc["series"][0]["points"] == [[2.0, 2.0]]

    def test_stats(self, plane):
        addr, _ = plane
        assert json.loads(_get(addr, "/stats")[2]) == {
            "policy": "lru", "requests": 7,
        }

    def test_unknown_route_404(self, plane):
        addr, _ = plane
        status, _, body = _get(addr, "/nope")
        assert status == 404 and "no route" in json.loads(body)["error"]

    def test_trailing_slash_normalised(self, plane):
        addr, _ = plane
        assert _get(addr, "/health/")[0] == 200

    def test_post_405(self, plane):
        addr, _ = plane
        status, _, body = _get(addr, "/metrics", data=b"x=1")
        assert status == 405 and "GET only" in json.loads(body)["error"]


class TestUnwiredAndErrors:
    def test_unwired_routes_404(self):
        thread = ObsHttpThread(ObsHttpServer(name="bare"))
        addr = thread.start()
        try:
            doc = json.loads(_get(addr, "/")[2])
            assert doc["routes"] == ["/health", "/ready"]
            for path in ("/metrics", "/alerts", "/audit", "/timeline", "/stats"):
                assert _get(addr, path)[0] == 404
            # Without a ready provider /ready mirrors /health.
            assert _get(addr, "/ready")[0] == 200
        finally:
            thread.stop()

    def test_provider_exception_is_500_not_crash(self):
        def boom():
            raise RuntimeError("scrape failed")

        thread = ObsHttpThread(ObsHttpServer(metrics=boom))
        addr = thread.start()
        try:
            status, _, body = _get(addr, "/metrics")
            assert status == 500
            assert "RuntimeError: scrape failed" in json.loads(body)["error"]
            # Server survives the provider error.
            assert _get(addr, "/health")[0] == 200
        finally:
            thread.stop()

    def test_bind_error_reraised_in_caller(self):
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            thread = ObsHttpThread(ObsHttpServer(), port=port)
            with pytest.raises(OSError):
                thread.start()
            # A failed start leaves the thread reusable-from-scratch.
            thread2 = ObsHttpThread(ObsHttpServer())
            addr = thread2.start()
            assert _get(addr, "/health")[0] == 200
            thread2.stop()
        finally:
            blocker.close()

    def test_double_start_rejected(self):
        thread = ObsHttpThread(ObsHttpServer())
        thread.start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                thread.start()
        finally:
            thread.stop()

    def test_stop_idempotent(self):
        thread = ObsHttpThread(ObsHttpServer())
        thread.start()
        thread.stop()
        thread.stop()  # no-op


def _raw(addr, payload, half_close=False, timeout=5.0):
    """Send *payload* on a plain socket and read until the server
    closes; a server that neither answers nor closes times out."""
    with socket.create_connection(addr, timeout=timeout) as sock:
        sock.sendall(payload)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


class TestMalformedRequests:
    """A request the plane cannot parse is answered with 400 and the
    connection closed, on every path."""

    @pytest.mark.parametrize(
        "payload, half_close",
        [
            (b"BOGUS\r\n\r\n", False),
            (b"\r\n", False),
            (b"GET /stats HTTP/1.1\r\n", True),
        ],
        ids=["no-target", "empty-line", "eof-before-blank-line"],
    )
    def test_answered_400_and_closed(self, payload, half_close):
        server = ObsHttpServer(stats=lambda: {"ok": True})
        thread = ObsHttpThread(server)
        addr = thread.start()
        try:
            raw = _raw(addr, payload, half_close)
            head, _, body = raw.partition(b"\r\n\r\n")
            assert head.split(b"\r\n")[0] == b"HTTP/1.1 400 Bad Request"
            assert b"Connection: close" in head
            assert "malformed" in json.loads(body)["error"]
            assert server.requests == 0
            # The plane keeps serving well-formed requests.
            assert _get(addr, "/stats")[0] == 200
        finally:
            thread.stop()


class TestReadDeadline:
    """A request line or headers that never complete are answered with
    408 once the read deadline passes, and the connection is closed, so
    a stalled client neither holds its handler nor delays ``stop()``."""

    def test_stalled_clients_get_408_and_stop_is_prompt(self, monkeypatch):
        import time

        from repro.obs import httpd

        deadline = 0.5
        monkeypatch.setattr(httpd, "_READ_TIMEOUT", deadline, raising=False)

        async def read_reply(reader, writer):
            try:
                return await asyncio.wait_for(reader.read(), deadline + 2.0)
            finally:
                writer.close()
                await writer.wait_closed()

        async def scenario():
            server = ObsHttpServer(metrics=lambda: "up 1\n")
            h, p = await server.start()
            start = time.perf_counter()
            partial = await asyncio.open_connection(h, p)
            partial[1].write(b"GET /metr")
            await partial[1].drain()
            silent = await asyncio.open_connection(h, p)
            # The plane keeps answering while both clients stall.
            status, _, body = await http_get(h, p, "/metrics")
            assert (status, body) == (200, b"up 1\n")
            replies = await asyncio.gather(
                read_reply(*partial), read_reply(*silent)
            )
            elapsed = time.perf_counter() - start
            for raw in replies:
                head, _, body = raw.partition(b"\r\n\r\n")
                assert head.split(b"\r\n")[0] == b"HTTP/1.1 408 Request Timeout"
                assert b"Connection: close" in head
                assert "error" in json.loads(body)
            assert deadline <= elapsed < deadline + 1.5, elapsed
            assert server.requests == 1
            # A client still stalled when the plane stops: stop() returns
            # within the deadline, and the client gets its 408.
            late = await asyncio.open_connection(h, p)
            late[1].write(b"GET / HTTP/1.1\r\nHost: x")
            await late[1].drain()
            start = time.perf_counter()
            await asyncio.wait_for(server.stop(), deadline + 1.5)
            assert time.perf_counter() - start < deadline + 1.5
            assert (await read_reply(*late)).startswith(b"HTTP/1.1 408 ")

        run(scenario())


async def _serve_all(server, pages, batch=512):
    """Serve *pages* over TCP, one batch line at a time; returns the
    open connection's writer."""
    host, port = await server.start_tcp()
    reader, writer = await asyncio.open_connection(host, port)
    for i in range(0, len(pages), batch):
        line = {"op": "batch", "pages": pages[i : i + batch]}
        writer.write(json.dumps(line).encode() + b"\n")
        await writer.drain()
        assert json.loads(await reader.readline())["ok"]
    return writer


async def _poll_alerts(host, port, rule, state, timeout=15.0):
    """The first alert of *rule* in *state* at ``/alerts``, polled."""
    for _ in range(int(timeout / 0.05)):
        status, _, body = await http_get(host, port, "/alerts")
        assert status == 200
        doc = json.loads(body)
        for alert in doc["active"] + doc["resolved"]:
            if alert["rule"] == rule and alert["state"] == state:
                return alert
        await asyncio.sleep(0.05)
    raise AssertionError(f"{rule} never reached {state}")


class TestCacheServerIntegration:
    """The acceptance properties, end to end on a live server."""

    def test_http_metrics_match_simulate(self, trace, costs):
        async def scenario():
            server = CacheServer(
                "alg-discrete", K, trace.owners, costs,
                obs=Observability.enabled(), http_port=0,
            )
            await server.start()
            assert server.http_address is not None
            h, p = server.http_address
            writer = await _serve_all(server, trace.requests.tolist())
            status, headers, body = await http_get(h, p, "/metrics")
            assert status == 200
            assert headers["content-type"] == PROMETHEUS_CONTENT_TYPE
            http_samples = parse_prometheus(body.decode())  # strict
            writer.close()
            await writer.wait_closed()
            await server.stop()
            return http_samples

        samples = run(scenario())
        # Per-tenant counters bit-identical to the offline reference
        # with the alert engine AND the HTTP plane enabled.
        ref = simulate(trace, repro.make_policy("alg-discrete"), K, costs=costs)
        tenant_requests = np.bincount(
            trace.owners[trace.requests], minlength=NUM_USERS
        )
        for i in range(NUM_USERS):
            assert sample_value(
                samples, "serve_tenant_misses_total", tenant=str(i)
            ) == float(ref.user_misses[i])
            assert sample_value(
                samples, "serve_tenant_hits_total", tenant=str(i)
            ) == float(tenant_requests[i] - ref.user_misses[i])
        assert sample_value(samples, "serve_worker_crashes_total") == 0.0

    def test_auto_engine_and_ready_lifecycle(self, trace, costs, monkeypatch):
        # The auto-built engine is env-gated; pin the env so this test
        # is stable under an outer REPRO_OBS=off run.
        monkeypatch.delenv("REPRO_OBS", raising=False)

        async def scenario():
            server = CacheServer(
                "alg-discrete", K, trace.owners, costs,
                obs=Observability.enabled(), http_port=0,
            )
            # http_port= with no explicit engine auto-attaches the
            # serve rule pack on the server's own timeline.
            assert server.alerts is not None
            assert server.alerts.timeline is server.obs.timeline
            rule_names = [r.name for r in server.alerts.rules]
            assert "serve-worker-crashed" in rule_names
            assert "serve-invariant-drift" in rule_names
            await server.start()
            h, p = server.http_address
            writer = await _serve_all(server, trace.requests.tolist()[:512])
            status, _, body = await http_get(h, p, "/ready")
            assert status == 200 and json.loads(body)["ready"] is True
            status, _, body = await http_get(h, p, "/alerts")
            assert status == 200
            doc = json.loads(body)
            assert doc["enabled"] is True and doc["active"] == []
            # A crashed (draining) server reports not-ready while the
            # plane itself stays up.
            server._closed = True
            status, _, body = await http_get(h, p, "/ready")
            assert status == 503 and json.loads(body)["ready"] is False
            assert (await http_get(h, p, "/health"))[0] == 200
            writer.close()
            await writer.wait_closed()
            await server.stop()
            # stop() closes the HTTP listener last.
            with pytest.raises(OSError):
                await http_get(h, p, "/ready")

        run(scenario())

    def test_worker_crash_alert_fires_then_resolves(self, trace, costs):
        async def poll_alerts(h, p, pred, timeout=8.0):
            for _ in range(int(timeout / 0.05)):
                doc = json.loads((await http_get(h, p, "/alerts"))[2])
                found = pred(doc)
                if found is not None:
                    return found
                await asyncio.sleep(0.05)
            raise AssertionError("alert transition not observed in time")

        def state_of(doc, state):
            pool = doc["active"] + doc["resolved"]
            for alert in pool:
                if alert["rule"] == "serve-worker-crashed" and (
                    alert["state"] == state
                ):
                    return alert
            return None

        async def scenario():
            obs = Observability.enabled(
                timeline=Timeline(capacity=64, interval=0.05)
            )
            engine = AlertEngine(
                obs.timeline, serve_rule_pack(), enabled=True
            )
            server = CacheServer(
                "alg-discrete", K, trace.owners, costs,
                obs=obs, alerts=engine, http_port=0,
            )
            await server.start()
            h, p = server.http_address
            writer = await _serve_all(server, trace.requests.tolist()[:512])
            # Let the ticker establish a crashes=0 baseline, then lose
            # a worker: the rate rule must fire within one tick...
            await asyncio.sleep(0.15)
            server._crashes += 1
            fired = await poll_alerts(h, p, lambda d: state_of(d, FIRING))
            assert fired["severity"] == "critical"
            # ... and resolve on the next flat tick.
            resolved = await poll_alerts(h, p, lambda d: state_of(d, RESOLVED))
            assert resolved["rule"] == "serve-worker-crashed"
            assert engine.notifications >= 2
            writer.close()
            await writer.wait_closed()
            await server.stop()

        run(scenario())

    def test_killed_worker_fires_crash_alert_at_two_workers(
        self, trace, costs, tmp_path
    ):
        """W=2 with the HTTP plane: ready while serving, ``/metrics``
        per-tenant misses equal the in-process run of the same shard set
        and no crash is counted; then a SIGKILL'd worker fires
        ``serve-worker-crashed`` (critical), resolves on the next flat
        tick, reports not-ready, and the alert sink records both
        transitions."""
        sink_path = str(tmp_path / "alerts.jsonl")

        async def scenario():
            obs = Observability.enabled(
                timeline=Timeline(capacity=128, interval=0.05)
            )
            engine = AlertEngine(
                obs.timeline, serve_rule_pack(),
                sinks=[JsonlSink(sink_path)], enabled=True,
            )
            server = CacheServer(
                "alg-discrete", K, trace.owners, costs, num_shards=4,
                workers=2, obs=obs, alerts=engine, http_port=0,
            )
            await server.start()
            h, p = server.http_address
            pages = trace.requests.tolist()
            writer = await _serve_all(server, pages, batch=250)
            assert (await http_get(h, p, "/ready"))[0] == 200
            status, _, body = await http_get(h, p, "/metrics")
            assert status == 200
            samples = parse_prometheus(body.decode())
            writer.close()
            await writer.wait_closed()
            victim = server._pool._procs[0]
            victim.kill()
            victim.join(timeout=10)
            with pytest.raises(ServerClosed):
                await server.request_many(pages[:256])
            fired = await _poll_alerts(
                h, p, "serve-worker-crashed", FIRING
            )
            assert fired["severity"] == "critical"
            await _poll_alerts(h, p, "serve-worker-crashed", RESOLVED)
            assert (await http_get(h, p, "/ready"))[0] == 503
            await server.stop()
            engine.close()
            return samples

        samples = run(scenario())
        ref = serve_trace(trace, "alg-discrete", K, costs, num_shards=4)
        for i in range(NUM_USERS):
            assert sample_value(
                samples, "serve_tenant_misses_total", tenant=str(i)
            ) == float(ref.user_misses[i])
        assert sample_value(samples, "serve_worker_crashes_total") == 0.0
        with open(sink_path, encoding="utf-8") as fh:
            transitions = [
                (e["rule"], e["state"]) for e in map(json.loads, fh)
            ]
        assert ("serve-worker-crashed", FIRING) in transitions
        assert ("serve-worker-crashed", RESOLVED) in transitions

    def test_injected_drift_fires_invariant_alert(self, trace, costs, tmp_path):
        """An in-process server whose monitor records drift fires
        ``serve-invariant-drift`` (critical) within a tick, at
        ``/alerts`` and in the alert sink."""
        sink_path = str(tmp_path / "drift.jsonl")

        class BrokenPolicy:
            evictions_by_user = [7, 0, 0, 0]

        async def scenario():
            obs = Observability.enabled(
                timeline=Timeline(capacity=64, interval=0.05),
                monitor=InvariantMonitor(costs),
            )
            engine = AlertEngine(
                obs.timeline, serve_rule_pack(),
                sinks=[JsonlSink(sink_path)], enabled=True,
            )
            server = CacheServer(
                "alg-discrete", K, trace.owners, costs, num_shards=4,
                obs=obs, alerts=engine, http_port=0,
            )
            await server.start()
            h, p = server.http_address
            await server.request_many(trace.requests[:1000].tolist())
            await asyncio.sleep(0.15)  # clean baseline ticks
            obs.monitor.sample(1001, [3, 0, 0, 0], policies=(BrokenPolicy(),))
            assert not obs.monitor.ok
            fired = await _poll_alerts(h, p, "serve-invariant-drift", FIRING)
            assert fired["severity"] == "critical"
            await server.stop()
            engine.close()

        run(scenario())
        with open(sink_path, encoding="utf-8") as fh:
            events = [json.loads(line) for line in fh]
        assert ("serve-invariant-drift", FIRING) in [
            (e["rule"], e["state"]) for e in events
        ]

    def test_env_off_engine_disabled_over_http(self, trace, costs, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "off")

        async def scenario():
            server = CacheServer(
                "alg-discrete", K, trace.owners, costs,
                obs=Observability.disabled(), http_port=0,
            )
            await server.start()
            h, p = server.http_address
            writer = await _serve_all(server, trace.requests.tolist()[:512])
            doc = json.loads((await http_get(h, p, "/alerts"))[2])
            assert doc["enabled"] is False
            assert doc["evaluations"] == 0 and doc["active"] == []
            # Ground-truth scrape still works with obs off.
            status, _, body = await http_get(h, p, "/metrics")
            assert status == 200
            samples = parse_prometheus(body.decode())
            assert sample_value(samples, "serve_requests_total") == 512.0
            writer.close()
            await writer.wait_closed()
            await server.stop()

        run(scenario())

    def test_timeline_endpoint_serves_ticked_series(self, trace, costs):
        async def scenario():
            obs = Observability.enabled(
                timeline=Timeline(capacity=64, interval=0.05)
            )
            server = CacheServer(
                "alg-discrete", K, trace.owners, costs,
                obs=obs, http_port=0,
            )
            await server.start()
            h, p = server.http_address
            writer = await _serve_all(server, trace.requests.tolist()[:512])
            await asyncio.sleep(0.2)  # a few ticks
            doc = json.loads((await http_get(h, p, "/timeline"))[2])
            assert doc["len"] >= 2
            assert "serve_requests_total" in doc["names"]
            doc = json.loads(
                (
                    await http_get(
                        h, p, "/timeline?name=serve_requests_total"
                    )
                )[2]
            )
            points = doc["series"][0]["points"]
            assert points and points[-1][1] == 512.0
            writer.close()
            await writer.wait_closed()
            await server.stop()

        run(scenario())
