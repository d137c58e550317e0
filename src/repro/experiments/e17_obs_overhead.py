"""E17 — the telemetry layer: exactness, drift detection, and the
price of observation.

Not a paper claim — a systems validation of :mod:`repro.obs`.  An
instrumented reproduction is only trustworthy if the instruments are
(a) free enough to leave on and (b) incapable of perturbing the thing
they measure.  This experiment checks both, plus the layer's two
observability products:

1. **Heisenberg check** — ``simulate()`` and the serve path produce
   bit-identical hits/misses/per-tenant miss vectors with telemetry
   fully on (metrics + tracing + invariant monitor) and fully off.
   Instrumentation *reads*, never mutates.
2. **Exact exposition** — the Prometheus scrape of a live server
   reports per-tenant miss counters that exactly equal the offline
   ``simulate()`` ground truth, because the exposition reads the cost
   ledger through scrape-time collectors rather than shadow counters.
3. **Drift monitoring** — an :class:`~repro.obs.InvariantMonitor`
   sampling a real ALG-DISCRETE run raises no flags, while an injected
   budget violation (a uniform subtraction: the live dual offset y
   raised by 1e9) is caught on the next sample.
4. **Price of observation** — fast-engine throughput with an enabled
   bundle stays within a generous factor of the disabled run (the
   precise <3%/<5% bars are enforced by ``benchmarks`` and snapshotted
   to ``BENCH_PR3.json``; the check here is deliberately loose so the
   experiment is timing-robust on any machine).  The factor is the
   median of per-pair time ratios over alternating off/on pairs, so a
   machine whose speed drifts moves both runs of a pair alike.

Expected shape: all equivalences exact; monitor clean then flagged;
overhead factor well under the loose bound.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from typing import Dict, List

import numpy as np

from repro.analysis.report import ascii_table
from repro.core.cost_functions import MonomialCost
from repro.experiments.base import ExperimentOutput
from repro.obs import (
    InvariantMonitor,
    ListSink,
    Observability,
    parse_prometheus,
    sample_value,
    watch_simulation,
)
from repro.policies import make_policy
from repro.serve import CacheServer
from repro.sim import simulate
from repro.workloads.builders import random_multi_tenant_trace

EXPERIMENT_ID = "e17"
TITLE = "Telemetry layer: exactness, drift detection, price of observation"

NUM_USERS = 4

#: Loose, machine-robust bound on enabled-vs-disabled throughput: the
#: real acceptance bars (<3%/<5%) live in the benchmark suite.
OVERHEAD_FACTOR_BOUND = 1.5


def _scrape_serve(trace, costs, k, obs):
    """Serve the whole trace in-process and return (outcome, scrape)."""

    async def go():
        server = CacheServer(
            "alg-discrete", k, trace.owners, costs, obs=obs,
            monitor_every=512,
        )
        await server.start()
        out = await server.request_many(trace.requests.tolist())
        text = server.prometheus_metrics()
        misses_by_user = server.ledger.misses_by_user()
        await server.stop()
        return out, text, misses_by_user

    return asyncio.run(go())


def _sim_seconds(trace, k, costs, obs):
    policy = make_policy("lru")
    t0 = time.perf_counter()
    simulate(
        trace, policy, k, costs=costs, validate=False, engine="fast", obs=obs,
    )
    return time.perf_counter() - t0


def _overhead(trace, k, costs, pairs):
    """Time telemetry off and on in *pairs* back-to-back pairs, the
    order flipping every pair; ``(off_rps, on_rps, factor)`` where
    *factor* is the median of the per-pair on/off time ratios."""
    modes = (Observability.disabled(), Observability.enabled(sink=ListSink()))
    off: List[float] = []
    on: List[float] = []
    for i in range(pairs):
        for mode in (1, 0) if i % 2 else (0, 1):
            (off, on)[mode].append(_sim_seconds(trace, k, costs, modes[mode]))
    factor = statistics.median(b / a for a, b in zip(off, on))
    return (
        trace.length / statistics.median(off),
        trace.length / statistics.median(on),
        factor,
    )


def run(quick: bool = True, seed: int = 0) -> ExperimentOutput:
    length = 6_000 if quick else 60_000
    k = 64
    pairs = 7 if quick else 15
    trace = random_multi_tenant_trace(
        NUM_USERS, 100, length, skew=0.9, seed=seed, name="obs-mix"
    )
    costs = [MonomialCost(2) for _ in range(NUM_USERS)]

    rows: List[Dict[str, object]] = []

    # 1. Heisenberg check: full telemetry on vs. off, same results.
    ref = simulate(trace, make_policy("alg-discrete"), k, costs=costs)
    obs_on = Observability.enabled(
        sink=ListSink(), monitor=InvariantMonitor(costs)
    )
    traced = simulate(
        trace, make_policy("alg-discrete"), k, costs=costs, obs=obs_on
    )
    sim_identical = (
        traced.misses == ref.misses
        and np.array_equal(traced.user_misses, ref.user_misses)
    )
    out, scrape, served_misses = _scrape_serve(
        trace, costs, k,
        Observability.enabled(sink=ListSink(), monitor=InvariantMonitor(costs)),
    )
    serve_identical = out.misses == ref.misses and np.array_equal(
        served_misses, ref.user_misses
    )

    # 2. Exact exposition: the scrape matches simulate() per tenant.
    samples = parse_prometheus(scrape)
    scrape_exact = all(
        sample_value(samples, "serve_tenant_misses_total", tenant=str(i))
        == float(ref.user_misses[i])
        for i in range(NUM_USERS)
    ) and sample_value(samples, "serve_requests_total") == float(trace.length)
    for i in range(NUM_USERS):
        rows.append(
            {
                "section": "exposition",
                "tenant": i,
                "scraped_misses": int(
                    sample_value(
                        samples, "serve_tenant_misses_total", tenant=str(i)
                    )
                ),
                "simulated_misses": int(ref.user_misses[i]),
            }
        )

    # 3. Drift monitoring: clean live run, then an injected violation.
    policy = make_policy("alg-discrete")
    watched = watch_simulation(trace, policy, k, costs, every=500)
    monitor = watched.monitor
    clean = monitor.ok and len(monitor.samples) > 0
    policy._y += 1e9  # inject: lost budget uplift
    monitor.sample(length + 1, watched.user_misses, policies=(policy,))
    caught = (not monitor.ok) and any(
        f.kind == "budget-nonneg" for f in monitor.flags
    )
    rows.append(
        {
            "section": "monitor",
            "samples": len(monitor.samples),
            "flags_clean_run": 0 if clean else len(monitor.flags),
            "flags_after_injection": len(monitor.flags),
            "caught_kind": monitor.flags[0].kind if monitor.flags else "-",
        }
    )

    # 4. Price of observation (loose in-experiment bound).
    off_rps, on_rps, factor = _overhead(trace, k, costs, pairs)
    rows.append(
        {
            "section": "overhead",
            "disabled_rps": round(off_rps),
            "enabled_rps": round(on_rps),
            "slowdown_factor": round(factor, 3),
        }
    )

    checks = {
        "telemetry never changes simulate() results": sim_identical,
        "telemetry never changes served results": serve_identical,
        "Prometheus scrape matches simulate() per tenant exactly": scrape_exact,
        "invariant monitor clean on a real ALG-DISCRETE run": clean,
        "injected budget violation caught as budget-nonneg": caught,
        f"enabled telemetry slowdown under {OVERHEAD_FACTOR_BOUND}x (loose)": (
            factor < OVERHEAD_FACTOR_BOUND
        ),
    }

    columns: List[str] = []
    for row in rows:  # union, first-seen order (sections differ in keys)
        columns.extend(c for c in row if c not in columns)
    text = ascii_table(
        rows,
        columns=columns,
        title=(
            f"Telemetry validation on {trace.name} "
            f"(T={length}, k={k}, {NUM_USERS} tenants, monomial costs)"
        ),
    )
    return ExperimentOutput(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        text=text,
        shape_checks=checks,
    )


__all__ = ["run", "EXPERIMENT_ID", "TITLE", "OVERHEAD_FACTOR_BOUND"]
