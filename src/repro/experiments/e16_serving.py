"""E16 — the serving subsystem: served vs. simulated cost, and the
price of sharding.

Not a paper claim — a systems validation of :mod:`repro.serve`.  The
paper's ALG-DISCRETE is an *online* algorithm; this experiment runs it
(plus LRU and the static-partition baseline) behind the async server
against a multi-tenant SLA-flavoured mix and checks:

1. **Fidelity** — a single-shard server replaying the trace produces
   *exactly* the simulated miss vector (the serve↔simulate equivalence
   that ``tests/test_serve_equivalence.py`` enforces per policy), so
   every offline conclusion transfers to the serving path unchanged.
2. **The price of sharding** — with ``S`` hash-partitioned shards of
   ``k/S`` slots each, victim choices lose global scope; the convex
   objective :math:`\\sum_i f_i(a_i)` degrades smoothly, not
   catastrophically, while throughput headroom grows.
3. **Cost ordering survives serving** — ALG-DISCRETE's advantage over
   cost-blind LRU on convex costs, the intro's motivation, persists
   end-to-end through the server (single shard, where the algorithm's
   guarantee actually applies).

Expected shape: served(S=1) ≡ simulate for all three policies;
sharded cost within a small factor of unsharded; ALG-DISCRETE's served
cost ≤ LRU's served cost on the skewed-SLA mix.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.report import ascii_table
from repro.core.cost_functions import MonomialCost, ScaledCost
from repro.experiments.base import ExperimentOutput
from repro.policies import make_policy
from repro.serve import serve_trace
from repro.sim import simulate, total_cost
from repro.workloads.builders import TenantSpec, multi_tenant_trace
from repro.workloads.streams import ZipfStream

EXPERIMENT_ID = "e16"
TITLE = "Serving subsystem: served vs simulated cost, price of sharding"

#: Policies run behind the server (online; offline policies can't shard).
SERVED = ("alg-discrete", "lru", "static-lru")

#: Shard counts compared (1 = the fidelity case).
SHARD_COUNTS = (1, 4)


def _instance(seed: int, length: int):
    """Four Zipf tenants with a 27:8:1:1 spread of monomial SLA scales —
    heavy cost asymmetry, the regime where cost-awareness matters."""
    tenants = [
        TenantSpec(ZipfStream(120, skew=0.9, perm_seed=seed + i), weight=w, name=f"t{i}")
        for i, w in enumerate((2.0, 1.0, 1.0, 0.5))
    ]
    trace = multi_tenant_trace(tenants, length, seed=seed, name="serving-mix")
    costs = [
        ScaledCost(MonomialCost(2), scale)
        for scale in (27.0, 8.0, 1.0, 1.0)
    ]
    return trace, costs


def run(quick: bool = True, seed: int = 0) -> ExperimentOutput:
    length = 6_000 if quick else 60_000
    k = 96
    trace, costs = _instance(seed, length)

    rows: List[Dict[str, object]] = []
    fidelity_ok: Dict[str, bool] = {}
    served_cost: Dict[int, Dict[str, float]] = {s: {} for s in SHARD_COUNTS}
    sim_cost: Dict[str, float] = {}

    for name in SERVED:
        sim = simulate(trace, make_policy(name), k, costs=costs)
        sim_cost[name] = total_cost(sim, costs)
        for shards in SHARD_COUNTS:
            report = serve_trace(
                trace, name, k, costs, num_shards=shards, policy_seed=seed
            )
            served_cost[shards][name] = report.cost(costs)
            if shards == 1:
                fidelity_ok[name] = (
                    report.hits == sim.hits
                    and report.misses == sim.misses
                    and report.user_misses.tolist() == sim.user_misses.tolist()
                )
            rows.append(
                {
                    "policy": name,
                    "shards": shards,
                    "served_misses": report.misses,
                    "sim_misses": sim.misses,
                    "served_cost": round(report.cost(costs), 1),
                    "sim_cost": round(sim_cost[name], 1),
                    "cost_vs_sim": round(
                        report.cost(costs) / sim_cost[name], 3
                    )
                    if sim_cost[name]
                    else 1.0,
                    "requests_per_sec": round(report.requests_per_sec),
                }
            )

    max_shard = max(SHARD_COUNTS)
    checks = {
        "single-shard serving reproduces simulate() exactly": all(
            fidelity_ok.values()
        ),
        # Hash-sharding k/S slots loses global victim scope; the convex
        # objective must degrade gracefully (small constant), not
        # collapse (margin generous: partition losses are instance-
        # dependent).
        f"{max_shard}-shard cost within 5x of unsharded (all policies)": all(
            served_cost[max_shard][p] <= 5.0 * served_cost[1][p] + 1e-9
            for p in SERVED
        ),
        "cost-aware beats cost-blind LRU through the server (S=1)": (
            served_cost[1]["alg-discrete"] <= served_cost[1]["lru"] + 1e-9
        ),
    }

    text = ascii_table(
        rows,
        title=(
            f"Served vs simulated on {trace.name} "
            f"(T={length}, k={k}, 4 tenants, 27:8:1:1 SLA spread)"
        ),
    )
    return ExperimentOutput(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        text=text,
        shape_checks=checks,
    )


__all__ = ["run", "EXPERIMENT_ID", "TITLE", "SERVED", "SHARD_COUNTS"]
