"""Streaming Theorem-1.1 auditor.

Pins three properties: (a) with full lookahead and unit-linear costs
the baseline *is* Belady's MIN, exactly; (b) the gauges are
prefix-aligned (the online side is never charged for requests the
baseline has not priced); (c) on monomial workloads the audited online
cost never exceeds the live Theorem 1.1 bound gauge, for every
registered policy — the acceptance bar for the live auditor.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core.cost_functions import LinearCost, MonomialCost, combined_alpha
from repro.core.offline import belady_misses
from repro.obs import CompetitiveAuditor, Observability
from repro.obs.audit import AUDIT_MODES
from repro.obs.httpd import http_get
from repro.obs.monitor import watch_simulation
from repro.policies import POLICY_REGISTRY
from repro.serve.server import CacheServer
from repro.sim import simulate
from repro.workloads.builders import random_multi_tenant_trace, zipf_trace

SEED = 7


def make_policy(name):
    import inspect

    factory = POLICY_REGISTRY[name]
    try:
        params = inspect.signature(factory).parameters
    except (TypeError, ValueError):
        params = {}
    return factory(rng=SEED) if "rng" in params else factory()


class TestConstruction:
    def test_defaults(self):
        a = CompetitiveAuditor([MonomialCost(2.0)] * 3, 8)
        assert a.window == 16  # 2 * k
        assert a.alpha == pytest.approx(2.0)  # beta for monomials
        assert a.mode == "belady" and AUDIT_MODES[0] == "belady"

    def test_validation(self):
        with pytest.raises(ValueError, match="cost"):
            CompetitiveAuditor([], 8)
        with pytest.raises(ValueError, match="mode"):
            CompetitiveAuditor([LinearCost()], 8, mode="oracle")
        with pytest.raises(ValueError):
            CompetitiveAuditor([LinearCost()], 0)

    def test_alpha_override(self):
        a = CompetitiveAuditor([MonomialCost(3.0)], 8, alpha=1.5)
        assert a.alpha == 1.5

    def test_empty_snapshot_is_neutral_and_jsonable(self):
        a = CompetitiveAuditor([MonomialCost(2.0)] * 2, 8)
        snap = a.snapshot()
        assert snap["audit_ratio"] == 0.0
        assert snap["bound_holds"] is True
        assert snap["processed"] == 0 and snap["pending"] == 0
        json.dumps(snap)  # TCP `audit` op document must serialize


class TestBeladyBaseline:
    def test_full_lookahead_unit_linear_is_exactly_belady(self):
        # Dead pages first, then farthest next use: with one tenant and
        # f(m)=m this is Belady's MIN verbatim, so the baseline fetch
        # count must equal the exact classical OPT.
        trace = zipf_trace(120, 3000, skew=0.9, seed=23)
        k = 32
        online = simulate(trace, make_policy("lru"), k, record_curve=True)
        auditor = CompetitiveAuditor(
            [LinearCost()], k, window=trace.length
        )
        # Feed the stream (hit flags only drive the *online* counters;
        # the baseline simulates its own cache, so any consistent flags
        # work here).
        seen = set()
        for page in trace.requests.tolist():
            auditor.observe(int(page), 0, page in seen)
            seen.add(page)
        auditor.finalize()
        assert int(auditor.offline[0]) == belady_misses(trace, k)
        assert auditor.processed == trace.length
        assert auditor.pending == 0
        # Belady is optimal: no online policy beats it.
        assert int(auditor.offline[0]) <= online.misses

    def test_block_flushes_keep_warm_cache(self):
        # Windowed pricing must not re-charge resident pages at block
        # boundaries: a repeating scan that fits in cache costs exactly
        # its cold misses no matter how many blocks it spans.
        k, distinct, reps = 8, 6, 50
        auditor = CompetitiveAuditor([LinearCost()], k, window=10)
        for _ in range(reps):
            for p in range(distinct):
                auditor.observe(p, 0, False)
        auditor.finalize()
        assert int(auditor.offline[0]) == distinct
        assert auditor.blocks > 1


class TestPrefixAlignment:
    def test_online_counted_only_when_priced(self):
        a = CompetitiveAuditor([MonomialCost(2.0)], 4, window=10)
        for i in range(15):
            a.observe(i, 0, False)  # all misses, all distinct
        # Buffer below 2*window: nothing flushed yet.
        assert a.processed == 0 and a.pending == 15
        assert int(a.online_total[0]) == 15  # live counter is exact
        assert int(a.online[0]) == 0  # audited prefix not priced yet
        assert a.online_cost() == 0.0 and a.offline_cost() == 0.0
        for i in range(15, 20):
            a.observe(i, 0, False)
        # 2*window reached: exactly one window flushed.
        assert a.processed == 10 and a.pending == 10
        assert int(a.online[0]) == 10
        a.finalize()
        assert a.processed == 20 and int(a.online[0]) == 20

    def test_hits_never_charge_online(self):
        a = CompetitiveAuditor([LinearCost()], 4, window=2)
        for _ in range(20):
            a.observe(0, 0, True)
        a.finalize()
        assert int(a.online[0]) == 0
        assert int(a.offline[0]) == 1  # the baseline still fetched it once
        assert a.ratio() == 0.0

    def test_single_miss_ratio_is_one(self):
        a = CompetitiveAuditor([MonomialCost(2.0)], 4)
        a.observe(3, 0, False)
        a.finalize()
        assert a.ratio() == pytest.approx(1.0)
        assert a.bound_holds()


class TestBoundHolds:
    """Acceptance: audited online cost <= Theorem 1.1 gauge, live."""

    @pytest.mark.parametrize("policy_name", sorted(POLICY_REGISTRY))
    def test_all_policies_monomial_multi_tenant(self, policy_name):
        trace = random_multi_tenant_trace(4, 50, 2500, seed=19)
        costs = [MonomialCost(2.0)] * trace.num_users
        k = 24
        auditor = CompetitiveAuditor(costs, k, window=48)
        watched = watch_simulation(
            trace, make_policy(policy_name), k, costs, auditor=auditor
        )
        assert watched.auditor is auditor
        snap = auditor.snapshot()
        assert auditor.processed == trace.length  # finalized
        assert snap["bound_holds"], (
            f"{policy_name}: online {snap['audit_online_cost']} > "
            f"bound {snap['audit_theorem11_bound']}"
        )
        assert snap["audit_online_cost"] <= snap["audit_theorem11_bound"]
        # The gauge is the monomial RHS: alpha = beta = 2.
        assert snap["alpha"] == pytest.approx(combined_alpha(costs))

    def test_online_misses_match_simulation(self):
        trace = random_multi_tenant_trace(3, 40, 2000, seed=29)
        costs = [MonomialCost(2.0)] * trace.num_users
        auditor = CompetitiveAuditor(costs, 16)
        watched = watch_simulation(
            trace, make_policy("alg-discrete"), 16, costs, auditor=auditor
        )
        direct = simulate(trace, make_policy("alg-discrete"), 16, costs=costs)
        assert [int(m) for m in auditor.online_total] == [
            int(m) for m in direct.user_misses
        ]
        assert [int(m) for m in auditor.online] == [
            int(m) for m in watched.user_misses
        ]


class TestCpMode:
    def test_cp_block_pricing(self):
        pytest.importorskip("scipy")
        trace = zipf_trace(40, 400, skew=1.0, seed=13)
        costs = [MonomialCost(2.0)]
        auditor = CompetitiveAuditor(costs, 8, window=100, mode="cp")
        watch_simulation(trace, make_policy("lru"), 8, costs,
                         auditor=auditor)
        snap = auditor.snapshot()
        assert snap["mode"] == "cp"
        assert auditor.blocks >= 1
        assert snap["audit_offline_cost"] > 0.0
        assert snap["bound_holds"]

    def test_tiny_block_fits_in_cache(self):
        pytest.importorskip("scipy")
        a = CompetitiveAuditor([LinearCost()], 8, window=4, mode="cp")
        for p in range(4):
            a.observe(p, 0, False)
        a.finalize()
        # Distinct pages <= k: the relaxation has no forced fetch mass.
        assert a.offline_cost() == 0.0
        assert a.ratio() == float("inf")  # online missed, OPT-LB is zero


class TestServeIntegration:
    def _trace(self):
        return random_multi_tenant_trace(4, 60, 2000, seed=41)

    def test_http_audit_route_and_gauges(self):
        trace = self._trace()
        costs = [MonomialCost(2.0)] * trace.num_users

        async def go():
            auditor = CompetitiveAuditor(costs, 32, window=64)
            server = CacheServer(
                "alg-discrete", 32, trace.owners, costs,
                num_shards=2, policy_seed=SEED,
                obs=Observability(auditor=auditor),
            )
            await server.start()
            host, port = await server.start_http()
            await server.request_many(trace.requests.tolist())
            index = await http_get(host, port, "/")
            audit_resp = await http_get(host, port, "/audit")
            metrics_resp = await http_get(host, port, "/metrics")
            await server.stop()
            final = server.audit()
            return index, audit_resp, metrics_resp, final

        index, audit_resp, metrics_resp, final = asyncio.run(go())
        assert "/audit" in json.loads(index[2])["routes"]
        assert audit_resp[0] == 200
        snap = json.loads(audit_resp[2])
        assert snap["bound_holds"]
        assert snap["audit_ratio"] <= snap["audit_theorem11_bound"]
        assert snap["requests"] == trace.length
        assert snap["mode"] == "belady" and snap["window"] == 64
        metrics = metrics_resp[2].decode()
        assert "audit_ratio" in metrics
        assert "audit_theorem11_bound" in metrics
        # stop() finalizes: the whole stream is priced.
        assert final["processed"] == trace.length
        assert final["pending"] == 0
        assert final["bound_holds"]

    def test_audit_route_404_without_auditor(self):
        trace = self._trace()

        async def go():
            server = CacheServer("lru", 16, trace.owners, None)
            await server.start()
            host, port = await server.start_http()
            index = await http_get(host, port, "/")
            resp = await http_get(host, port, "/audit")
            with pytest.raises(RuntimeError, match="auditor"):
                server.audit()
            await server.stop()
            return index, resp

        index, (status, _headers, body) = asyncio.run(go())
        assert "/audit" not in json.loads(index[2])["routes"]
        assert status == 404
        assert "audit" in json.loads(body)["error"]
