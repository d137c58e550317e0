"""Telemetry wired through the serve and sim paths.

The load-bearing acceptance property: after a TCP replay, the HTTP
plane's ``/metrics`` is Prometheus-parseable text whose per-tenant miss
counters exactly match an offline ``simulate()`` of the same request
sequence — with instrumentation fully on *and* fully off
(``REPRO_OBS=off``), because the exposition reads ground-truth ledger
state through scrape-time collectors, never hot-path instrumentation.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

import repro
from repro.core.cost_functions import MonomialCost
from repro.obs import (
    InvariantMonitor,
    JsonlSink,
    ListSink,
    Observability,
    parse_prometheus,
    read_jsonl,
    sample_value,
    summarize_spans,
)
from repro.obs.httpd import http_get
from repro.serve import CacheServer
from repro.sim import simulate
from repro.sim.driver import simulate_many
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


async def _roundtrip(reader, writer, msg):
    writer.write(json.dumps(msg).encode() + b"\n")
    await writer.drain()
    return json.loads(await reader.readline())


async def _drive(trace, costs, obs, policy="alg-discrete", **kw):
    """Serve the whole trace over TCP and read the server over its HTTP
    plane: returns (server, ``/metrics`` text, ``/stats`` after the
    trace and again after 256 more requests)."""
    server = CacheServer(policy, K, trace.owners, costs, obs=obs, **kw)
    await server.start()
    host, port = await server.start_tcp()
    http_host, http_port = await server.start_http()
    reader, writer = await asyncio.open_connection(host, port)

    async def get(path):
        status, _headers, body = await http_get(http_host, http_port, path)
        assert status == 200, (path, status, body)
        return body.decode()

    pages = trace.requests.tolist()
    for i in range(0, len(pages), 512):
        resp = await _roundtrip(
            reader, writer, {"op": "batch", "pages": pages[i : i + 512]}
        )
        assert resp["ok"]
    stats = [json.loads(await get("/stats"))]
    text = await get("/metrics")
    await _roundtrip(reader, writer, {"op": "batch", "pages": pages[:256]})
    stats.append(json.loads(await get("/stats")))
    writer.close()
    await writer.wait_closed()
    await server.stop()
    return server, text, stats


class TestMetricsOp:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_parses_and_matches_simulate(self, trace, costs, enabled):
        ref = simulate(trace, repro.make_policy("alg-discrete"), K, costs=costs)
        obs = Observability.enabled() if enabled else Observability.disabled()
        server, text, _stats = run(_drive(trace, costs, obs))
        samples = parse_prometheus(text)  # raises if not valid exposition
        tenant_requests = np.bincount(
            trace.owners[trace.requests], minlength=NUM_USERS
        )
        for i in range(NUM_USERS):
            assert sample_value(
                samples, "serve_tenant_misses_total", tenant=str(i)
            ) == float(ref.user_misses[i])
            # hits_i = requests_i - misses_i (the ledger counts both).
            assert sample_value(
                samples, "serve_tenant_hits_total", tenant=str(i)
            ) == float(tenant_requests[i] - ref.user_misses[i])
        assert sample_value(samples, "serve_requests_total") == float(
            trace.length
        )
        assert sample_value(samples, "serve_misses_total") == float(ref.misses)
        assert sample_value(samples, "serve_hits_total") == float(ref.hits)

    def test_cost_and_quote_gauges(self, trace, costs):
        ref = simulate(trace, repro.make_policy("alg-discrete"), K, costs=costs)
        server, text, _ = run(_drive(trace, costs, Observability.disabled()))
        samples = parse_prometheus(text)
        for i in range(NUM_USERS):
            m = int(ref.user_misses[i])
            assert sample_value(
                samples, "serve_tenant_cost", tenant=str(i)
            ) == pytest.approx(costs[i].value(m))
            assert sample_value(
                samples, "serve_tenant_marginal_quote", tenant=str(i)
            ) == pytest.approx(costs[i].derivative(m + 1))

    def test_shard_series_present(self, trace, costs):
        server, text, _ = run(
            _drive(trace, costs, Observability.enabled(), num_shards=4)
        )
        samples = parse_prometheus(text)
        occ = sum(
            sample_value(samples, "serve_shard_occupancy", shard=str(s))
            for s in range(4)
        )
        slots = sum(
            sample_value(samples, "serve_shard_slots", shard=str(s))
            for s in range(4)
        )
        assert slots == K and occ <= K
        ev = sum(
            sample_value(samples, "serve_shard_evictions_total", shard=str(s))
            for s in range(4)
        )
        misses = sample_value(samples, "serve_misses_total")
        assert 0 < ev <= misses  # cold misses fill free slots first

    def test_latency_histograms_when_enabled(self, trace, costs):
        server, text, _ = run(_drive(trace, costs, Observability.enabled()))
        samples = parse_prometheus(text)
        assert sample_value(samples, "serve_apply_seconds_count") > 0
        assert sample_value(samples, "serve_queue_wait_seconds_count") > 0
        assert sample_value(samples, "serve_apply_seconds_sum") > 0

    def test_histograms_absent_when_disabled(self, trace, costs):
        server, text, _ = run(_drive(trace, costs, Observability.disabled()))
        samples = parse_prometheus(text)
        assert ("serve_apply_seconds_count", ()) not in samples
        # ...but ground-truth collectors still render.
        assert ("serve_requests_total", ()) in samples

    def test_repro_obs_env_off(self, trace, costs, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "off")
        ref = simulate(trace, repro.make_policy("lru"), K, costs=costs)
        server, text, _ = run(
            _drive(trace, costs, Observability(), policy="lru")
        )
        assert not server.obs.metrics_on
        samples = parse_prometheus(text)
        assert sample_value(samples, "serve_misses_total") == float(ref.misses)


class TestStatsRates:
    def test_rates_key_added_and_backward_compatible(self, trace, costs):
        server, _text, stats = run(_drive(trace, costs, Observability.disabled()))
        first, second = stats
        # Pre-existing keys untouched.
        for key in ("requests", "hits", "misses", "tenants", "total_cost",
                    "queue_depth", "shards", "policy", "time"):
            assert key in first, key
        # Rates warm up on the second snapshot; the first reports
        # explicit zeros (never raises, never goes missing).
        assert first["rates"]["window_seconds"] == 0.0
        for key in ("requests_per_sec", "hits_per_sec", "misses_per_sec",
                    "cost_per_sec"):
            assert first["rates"][key] == 0.0
        rates = second["rates"]
        assert rates["window_seconds"] > 0
        for key in ("requests_per_sec", "hits_per_sec", "misses_per_sec",
                    "cost_per_sec"):
            assert key in rates and rates[key] >= 0

    def test_cost_rate_omitted_without_costs(self, trace):
        async def go():
            server = CacheServer(
                "lru", K, trace.owners, obs=Observability.disabled()
            )
            await server.start()
            await server.request_many(trace.requests[:600].tolist())
            s1 = server.stats()
            await server.request_many(trace.requests[600:1200].tolist())
            s2 = server.stats()
            await server.stop()
            return s1, s2

        s1, s2 = run(go())
        assert s1["rates"]["window_seconds"] == 0.0
        assert s1["rates"]["requests_per_sec"] == 0.0
        assert "cost_per_sec" not in s1["rates"]
        assert "requests_per_sec" in s2["rates"]
        assert "cost_per_sec" not in s2["rates"]


class TestServeTracing:
    def test_pipeline_spans_emitted(self, trace, costs, tmp_path):
        """The serve pipeline's spans, written to a JSONL trace file,
        read back and aggregate."""
        path = str(tmp_path / "trace.jsonl")
        obs = Observability.enabled(sink=JsonlSink(path))
        server, _text, _ = run(_drive(trace, costs, obs))
        obs.tracer.close()
        events = read_jsonl(path)
        names = {e["name"] for e in events}
        assert {"serve.ingress", "serve.queue_wait", "serve.apply",
                "serve.reply"} <= names
        applies = [e for e in events if e["name"] == "serve.apply"]
        assert sum(e["attrs"]["n"] for e in applies) == trace.length + 256
        assert all(e["dur"] >= 0 for e in events if e["type"] == "span")
        rows = summarize_spans(events)
        assert {"serve.ingress", "serve.apply", "serve.reply"} <= {
            row["name"] for row in rows
        }

    def test_no_spans_without_sink(self, trace, costs):
        obs = Observability.enabled()  # metrics on, tracing off
        server, _text, _ = run(_drive(trace, costs, obs))
        assert obs.tracer.emitted == 0


class TestServeMonitor:
    def test_live_monitor_clean_and_exported(self, trace, costs):
        obs = Observability.enabled(monitor=InvariantMonitor(costs))
        server, text, _ = run(
            _drive(trace, costs, obs, monitor_every=500)
        )
        assert obs.monitor.ok, obs.monitor.summary()
        assert len(obs.monitor.samples) >= trace.length // 500
        samples = parse_prometheus(text)
        assert sample_value(samples, "serve_invariant_drift_flags_total") == 0.0
        assert sample_value(samples, "serve_invariant_samples_total") > 0

    def test_monitor_every_zero_disables_sampling(self, trace, costs):
        obs = Observability.enabled(monitor=InvariantMonitor(costs))
        server, _text, _ = run(_drive(trace, costs, obs, monitor_every=0))
        assert obs.monitor.samples == []

    def test_negative_monitor_every_rejected(self, trace, costs):
        with pytest.raises(ValueError, match="monitor_every"):
            CacheServer("lru", K, trace.owners, costs, monitor_every=-1)


class TestServeEquivalenceWithObs:
    def test_instrumentation_never_changes_results(self, trace, costs):
        """Full telemetry on vs. off: identical hits/misses per tenant."""
        ref = simulate(trace, repro.make_policy("alg-discrete"), K, costs=costs)
        obs = Observability.enabled(
            sink=ListSink(), monitor=InvariantMonitor(costs)
        )

        async def go():
            server = CacheServer(
                "alg-discrete", K, trace.owners, costs, obs=obs,
                monitor_every=256,
            )
            await server.start()
            out = await server.request_many(trace.requests.tolist())
            await server.stop()
            return server, out

        server, out = run(go())
        assert out.hits == ref.hits and out.misses == ref.misses
        np.testing.assert_array_equal(
            server.ledger.misses_by_user(), ref.user_misses
        )


class TestSimTelemetry:
    def test_engine_spans_and_counters(self, trace, costs):
        obs = Observability.enabled(sink=ListSink())
        result = simulate(trace, repro.make_policy("lru"), K, obs=obs)
        names = [e["name"] for e in obs.tracer.sink.events]
        assert names == ["sim.setup", "sim.run"]
        run_span = obs.tracer.sink.events[1]
        assert run_span["attrs"]["hits"] == result.hits
        assert run_span["attrs"]["misses"] == result.misses
        reg = obs.registry
        assert reg.get_sample_value("sim_runs_total") == 1.0
        assert reg.get_sample_value("sim_requests_total") == float(trace.length)
        assert reg.get_sample_value("sim_misses_total") == float(result.misses)

    def test_engine_results_identical_with_and_without_obs(self, trace):
        plain = simulate(trace, repro.make_policy("lru"), K)
        traced = simulate(
            trace,
            repro.make_policy("lru"),
            K,
            obs=Observability.enabled(sink=ListSink()),
        )
        assert plain.misses == traced.misses
        np.testing.assert_array_equal(plain.user_misses, traced.user_misses)
        assert plain.final_cache == traced.final_cache

    def test_grid_span_and_cell_events(self, trace):
        obs = Observability.enabled(sink=ListSink())
        runs = simulate_many(["lru", "fifo"], [32, 64], [trace], obs=obs)
        assert len(runs) == 4
        names = [e["name"] for e in obs.tracer.sink.events]
        assert names.count("sim.cell") == 4
        assert "sim.grid" in names
        assert obs.registry.get_sample_value("sim_grid_cells_total") == 4.0
