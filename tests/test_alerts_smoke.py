"""Alerts smoke with telemetry forced off: a W=2, S=4 ALG-DISCRETE
server with a disabled observability bundle reports its alert engine
disabled at ``/alerts`` while ``/metrics`` keeps the ground-truth
request count.

Marked ``smoke``: the tier-1 run deselects it, and CI's
``alerts-smoke`` job runs it with ``pytest -m smoke`` under
``REPRO_OBS=off``.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core.cost_functions import MonomialCost
from repro.obs import Observability, parse_prometheus, sample_value
from repro.obs.httpd import http_get
from repro.serve import CacheServer
from repro.workloads.builders import random_multi_tenant_trace

pytestmark = pytest.mark.smoke


def test_alerts_disabled_and_metrics_ground_truth_with_obs_off(monkeypatch):
    # The job sets REPRO_OBS=off; set here too, so a run without it
    # checks the same configuration.
    monkeypatch.setenv("REPRO_OBS", "off")
    trace = random_multi_tenant_trace(4, 60, 5_000, seed=0)
    costs = [MonomialCost(2)] * trace.num_users

    async def smoke():
        server = CacheServer(
            "alg-discrete", 64, trace.owners, costs, num_shards=4,
            workers=2, obs=Observability.disabled(), http_port=0,
        )
        await server.start()
        h, p = server.http_address
        await server.request_many(trace.requests.tolist())
        status, _, body = await http_get(h, p, "/alerts")
        assert status == 200
        doc = json.loads(body)
        assert doc["enabled"] is False, doc
        assert doc["evaluations"] == 0 and doc["active"] == []
        # Ground-truth counters still scrape with telemetry off.
        status, _, body = await http_get(h, p, "/metrics")
        assert status == 200
        samples = parse_prometheus(body.decode())
        assert sample_value(samples, "serve_requests_total") == float(
            trace.length
        )
        await server.stop()

    asyncio.run(smoke())
    print("REPRO_OBS=off alerts smoke ok: engine reports disabled, "
          "metrics still ground truth")
