"""E14 — scaling ablation: ALG-DISCRETE's lazy budget index vs naive Fig. 3.

DESIGN.md claims the lazy budget index makes a full-cache miss cost
``O(log k + log n)`` instead of the naive O(k).  This experiment
measures per-request time for both implementations across a sweep of
cache sizes on a churn-heavy workload (uniform over 4k pages, so most
requests miss and every miss pays the update cost), and verifies they
remain *behaviourally identical* while scaling apart.

Expected shapes: identical miss counts at every k; the naive
implementation's per-request time grows ~linearly in k while the
optimised one stays near-flat; the speedup at the largest k is large.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from repro.analysis.report import ascii_series, ascii_table
from repro.core.alg_discrete import AlgDiscrete
from repro.core.alg_discrete_naive import NaiveAlgDiscrete
from repro.core.cost_functions import MonomialCost
from repro.experiments.base import ExperimentOutput
from repro.sim.engine import simulate
from repro.workloads.builders import random_multi_tenant_trace

EXPERIMENT_ID = "e14"
TITLE = "Scaling ablation: lazy budget index vs naive O(k) bookkeeping"


def run(quick: bool = True, seed: int = 0) -> ExperimentOutput:
    ks = [32, 128, 512] if quick else [32, 128, 512, 2048]
    length = 30_000 if quick else 120_000
    num_users = 8
    pages_per_user = 512
    trace = random_multi_tenant_trace(
        num_users, pages_per_user, length, skew=0.0, seed=seed
    )
    costs = [MonomialCost(2) for _ in range(num_users)]

    rows: List[Dict[str, object]] = []
    for k in ks:
        timings = {}
        misses = {}
        for name, factory in (("optimised", AlgDiscrete), ("naive", NaiveAlgDiscrete)):
            start = time.perf_counter()
            r = simulate(trace, factory(), k, costs=costs, validate=False)
            timings[name] = time.perf_counter() - start
            misses[name] = r.misses
        rows.append(
            {
                "k": k,
                "misses_equal": misses["optimised"] == misses["naive"],
                "optimised_us_per_req": 1e6 * timings["optimised"] / length,
                "naive_us_per_req": 1e6 * timings["naive"] / length,
                # Per-miss cost is the load-bearing metric: only misses
                # pay the Fig. 3 update, and the miss *rate* falls as k
                # grows, which would dilute a per-request comparison.
                "naive_us_per_miss": 1e6 * timings["naive"] / misses["naive"],
                "optimised_us_per_miss": 1e6
                * timings["optimised"]
                / misses["optimised"],
                "speedup": timings["naive"] / timings["optimised"],
            }
        )

    first, last = rows[0], rows[-1]
    k_growth = ks[-1] / ks[0]
    naive_growth = last["naive_us_per_miss"] / first["naive_us_per_miss"]
    opt_growth = last["optimised_us_per_miss"] / first["optimised_us_per_miss"]
    checks = {
        "identical miss counts at every k (behavioural equivalence)": all(
            r["misses_equal"] for r in rows
        ),
        "naive per-miss time grows super-logarithmically with k": naive_growth
        >= 0.25 * k_growth,
        "optimised per-miss time grows far slower than k": opt_growth
        <= 0.25 * k_growth,
        "speedup at the largest k exceeds 4x": last["speedup"] >= 4.0,
        "speedup increases with k": all(
            rows[i]["speedup"] < rows[i + 1]["speedup"] for i in range(len(rows) - 1)
        ),
    }
    text = (
        ascii_table(rows, title=f"uniform churn trace, T={length}, {num_users} users")
        + "\n\n"
        + ascii_series(
            [float(k) for k in ks],
            {
                "naive us/req": [r["naive_us_per_req"] for r in rows],
                "optimised us/req": [r["optimised_us_per_req"] for r in rows],
            },
            title="per-request cost vs cache size (log y)",
            logy=True,
        )
    )
    return ExperimentOutput(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        text=text,
        shape_checks=checks,
    )


__all__ = ["run", "EXPERIMENT_ID", "TITLE"]
