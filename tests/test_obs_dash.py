"""Dashboard rendering and reading.

:func:`render_dashboard` and its helpers are fed synthetic
:class:`DashFrame` snapshots so the layout logic is pinned without a
running server; :func:`fetch_frame` is read against live HTTP planes —
a server with every panel, one without an auditor or alert engine, and
a :class:`~repro.net.netsim.NetworkSim`.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.cost_functions import MonomialCost
from repro.net import NetworkSim, path_topology
from repro.obs import CompetitiveAuditor, Observability
from repro.obs.dash import (
    DashFrame,
    SPARK_CHARS,
    _latency_counts,
    fetch_frame,
    ratio_bar,
    render_dashboard,
    sparkline,
)
from repro.serve import CacheServer
from repro.workloads.builders import random_multi_tenant_trace


def make_stats(t=1000, requests=1000, hits=600, queue_depth=3,
               tenants=2, miss_base=100):
    return {
        "server": "serve",
        "policy": "alg-discrete",
        "k": 64,
        "num_shards": 2,
        "time": t,
        "requests": requests,
        "hits": hits,
        "misses": requests - hits,
        "queue_depth": queue_depth,
        "rates": {
            "window_seconds": 5.0,
            "requests_per_sec": 200.0,
            "misses_per_sec": 80.0,
        },
        "tenants": [
            {
                "tenant": i,
                "hits": 300,
                "misses": miss_base + 10 * i,
                "cost": 123.4 + i,
                "marginal_quote": 7.5,
            }
            for i in range(tenants)
        ],
    }


def make_audit(ratio=1.4, online=400.0, offline=290.0, bound=4000.0,
               holds=True):
    return {
        "mode": "belady",
        "window": 128,
        "processed": 900,
        "pending": 100,
        "audit_ratio": ratio,
        "audit_online_cost": online,
        "audit_offline_cost": offline,
        "audit_theorem11_bound": bound,
        "bound_holds": holds,
    }


def make_metrics():
    name = "serve_apply_seconds_bucket"
    return {
        (name, (("le", "0.001"),)): 10.0,
        (name, (("le", "0.01"),)): 25.0,
        (name, (("le", "+Inf"),)): 30.0,
    }


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_flat_series_uses_floor_char(self):
        assert sparkline([5, 5, 5]) == SPARK_CHARS[0] * 3

    def test_monotone_ramp_hits_extremes(self):
        s = sparkline(list(range(8)))
        assert s[0] == SPARK_CHARS[0] and s[-1] == SPARK_CHARS[-1]
        assert len(s) == 8

    def test_width_truncates_to_tail(self):
        s = sparkline(list(range(100)), width=10)
        assert len(s) == 10


class TestRatioBar:
    def test_within_bound(self):
        bar = ratio_bar(1.0, 4.0, width=8)
        assert bar == "[##------] "

    def test_violation_overflows(self):
        bar = ratio_bar(5.0, 4.0, width=8)
        assert bar.endswith("]!")
        assert bar.count("#") == 8

    def test_degenerate_bound(self):
        assert "#" not in ratio_bar(1.0, 0.0)
        assert "#" not in ratio_bar(float("nan"), 4.0)


class TestLatencyCounts:
    def test_decumulates_in_le_order(self):
        counts = _latency_counts(make_metrics())
        assert counts == [("0.001", 10.0), ("0.01", 15.0), ("+Inf", 5.0)]

    def test_ignores_other_metrics(self):
        assert _latency_counts({("other_bucket", (("le", "1"),)): 3.0}) == []


class TestRenderDashboard:
    def test_empty(self):
        assert render_dashboard([]) == "(no data yet)"

    def test_full_frame_sections(self):
        frames = [
            DashFrame(stats=make_stats(t=500, miss_base=80),
                      metrics=make_metrics(), audit=make_audit(ratio=1.2)),
            DashFrame(stats=make_stats(), metrics=make_metrics(),
                      audit=make_audit()),
        ]
        text = render_dashboard(frames)
        assert "policy=alg-discrete" in text
        assert "hit-rate 60.00%" in text
        assert "requests/s 200" in text
        assert "queue depth" in text
        assert "apply latency histogram (30 obs)" in text
        assert "tenant" in text and "quote" in text
        assert "Theorem 1.1 audit (belady" in text
        assert "OK" in text and "VIOLATED" not in text
        assert "ratio    1.400" in text

    def test_violation_flagged(self):
        frame = DashFrame(
            stats=make_stats(),
            metrics={},
            audit=make_audit(ratio=20.0, online=6000.0, bound=4000.0,
                             holds=False),
        )
        text = render_dashboard([frame])
        assert "VIOLATED" in text
        assert "]!" in text  # the bar overflows its bound axis

    def test_no_audit_section_when_absent(self):
        frame = DashFrame(stats=make_stats(), metrics={}, audit=None)
        text = render_dashboard([frame])
        assert "Theorem 1.1" not in text

    def test_zero_baseline_audit(self):
        frame = DashFrame(
            stats=make_stats(),
            metrics={},
            audit=make_audit(ratio=0.0, online=0.0, offline=0.0, bound=0.0),
        )
        text = render_dashboard([frame])
        assert "baseline still zero" in text

    def test_missing_tenant_history_is_tolerated(self):
        # Frame histories can change tenant count (e.g. dash attached
        # mid-run); rendering must not index out of range.
        small = make_stats(tenants=1)
        big = make_stats(tenants=3)
        text = render_dashboard([
            DashFrame(stats=small, metrics={}),
            DashFrame(stats=big, metrics={}),
        ])
        assert text.count("\n") > 5


def make_alerts(active=(), resolved=(), enabled=True, rules=3, evals=42):
    return {
        "enabled": enabled,
        "rules": [{"name": f"r{i}"} for i in range(rules)],
        "evaluations": evals,
        "notifications": 2 * len(resolved),
        "active": list(active),
        "resolved": list(resolved),
    }


def make_alert(rule="serve-worker-crashed", state="firing",
               severity="critical", since=90.0, value=1.0, labels=None):
    return {
        "rule": rule,
        "state": state,
        "severity": severity,
        "since": since,
        "value": value,
        "threshold": 0.0,
        "labels": labels or {},
    }


class TestAlertsPanel:
    def test_omitted_when_engine_absent(self):
        frame = DashFrame(stats=make_stats(), metrics={}, alerts=None)
        assert "ALERTS" not in render_dashboard([frame])

    def test_disabled_engine_banner(self):
        frame = DashFrame(
            stats=make_stats(), metrics={},
            alerts=make_alerts(enabled=False),
        )
        assert "ALERTS: engine disabled (REPRO_OBS=off)" in \
            render_dashboard([frame])

    def test_quiet_engine_counts(self):
        frame = DashFrame(
            stats=make_stats(), metrics={}, alerts=make_alerts()
        )
        text = render_dashboard([frame])
        assert "ALERTS: 0 firing  0 pending  0 resolved  " \
            "(rules 3, evals 42)" in text

    def test_active_rows_with_age_and_labels(self):
        frame = DashFrame(
            ts=100.0,
            stats=make_stats(),
            metrics={},
            alerts=make_alerts(
                active=[
                    make_alert(since=90.0, labels={"node": "L1"}),
                    make_alert(rule="serve-miss-slo", state="pending",
                               severity="warning", since=99.0, value=14.4),
                ],
                resolved=[make_alert(state="resolved")],
            ),
        )
        text = render_dashboard([frame])
        assert "ALERTS: 1 firing  1 pending  1 resolved" in text
        assert "firing" in text and "critical" in text
        assert "serve-worker-crashed" in text
        assert "age    10.0s" in text and "[node=L1]" in text
        assert "serve-miss-slo" in text and "value 14.4" in text

    def test_row_cap_with_more_marker(self):
        frame = DashFrame(
            ts=100.0,
            stats=make_stats(),
            metrics={},
            alerts=make_alerts(
                active=[make_alert(rule=f"rule-{i}") for i in range(11)]
            ),
        )
        text = render_dashboard([frame])
        assert "... and 3 more" in text
        assert "rule-7" in text and "rule-8" not in text

    def test_malformed_alert_doc_tolerated(self):
        # A half-written /alerts response (e.g. engine mid-shutdown)
        # must degrade, not crash the dashboard.
        frame = DashFrame(
            stats=make_stats(), metrics={},
            alerts={"active": [{}], "resolved": None},
        )
        text = render_dashboard([frame])
        assert "ALERTS: 0 firing  1 pending  0 resolved" in text


class TestFetchFrame:
    """:func:`fetch_frame` against live HTTP planes."""

    trace = random_multi_tenant_trace(3, 40, 2_000, seed=5)
    costs = [MonomialCost(2)] * 3

    def _frame(self, server):
        # Reads are bounded: a reader that does not speak HTTP waits
        # forever on a plane.
        async def go():
            await server.start()
            if server.http_address is None:
                await server.start_http()
            await server.request_many(self.trace.requests.tolist())
            frame = await asyncio.wait_for(
                fetch_frame(*server.http_address), timeout=10
            )
            await server.stop()
            return frame

        return asyncio.run(go())

    def test_every_panel_from_a_server_with_auditor_and_alerts(self):
        server = CacheServer(
            "alg-discrete", 32, self.trace.owners, self.costs,
            obs=Observability(auditor=CompetitiveAuditor(self.costs, 32)),
            http_port=0,  # attaches the default alert engine
        )
        frame = self._frame(server)
        assert frame.stats["requests"] == self.trace.length
        assert frame.metrics[("serve_requests_total", ())] == self.trace.length
        assert frame.audit["requests"] == self.trace.length
        assert frame.audit["mode"] == "belady"
        assert frame.alerts is not None and "active" in frame.alerts
        text = render_dashboard([frame])
        assert "Theorem 1.1 audit (belady" in text
        assert "ALERTS" in text and "tenant" in text

    def test_audit_and_alerts_absent_without_auditor_or_engine(self):
        server = CacheServer("lru", 32, self.trace.owners, self.costs)
        frame = self._frame(server)
        assert frame.stats["requests"] == self.trace.length
        assert frame.audit is None and frame.alerts is None
        text = render_dashboard([frame])
        assert "audit" not in text and "ALERTS" not in text

    def test_network_plane_renders_per_node_rows(self):
        net = NetworkSim(
            path_topology(2, 16), "lru", obs=Observability.enabled(),
            http_port=0,
        )
        result = net.run(self.trace)
        try:
            frame = asyncio.run(
                asyncio.wait_for(fetch_frame(*net.http_address), timeout=10)
            )
        finally:
            net.stop_http()
        assert frame.stats == {} and frame.audit is None
        text = render_dashboard([frame])
        for node in result.nodes:
            row = next(line for line in text.splitlines()
                       if line.split()[:1] == [node.name])
            assert f"{node.hits:,}" in row and f"{node.misses:,}" in row
