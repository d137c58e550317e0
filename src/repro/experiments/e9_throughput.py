"""E9 — engineering baseline: simulator throughput per policy.

Not a paper claim — an implementation health metric: requests/second
for each policy on a common Zipf trace, confirming the budget algorithm
is implementable at practical rates (the paper's ALG-DISCRETE does
O(log k) amortised work per request, plus O(siblings) on evictions).

Since the fast-path engine landed, the experiment also times each
policy under both engines on a hit-heavy trace (Zipf skew 2.0 at a
large cache, ~0.6% misses): the regime where vectorized hit-run
scanning and batched ``on_hit_batch`` delivery pay off.

Expected shape: every policy clears a sanity floor; ALG-DISCRETE is
within an order of magnitude of LRU; the fast engine beats the
reference loop on the hit-heavy trace.
"""

from __future__ import annotations

import time
from typing import Dict, List

from repro.analysis.report import ascii_bars, ascii_table
from repro.core.alg_discrete import AlgDiscrete
from repro.core.cost_functions import MonomialCost
from repro.experiments.base import ExperimentOutput
from repro.policies import make_policy
from repro.sim.engine import simulate
from repro.workloads.builders import zipf_trace

EXPERIMENT_ID = "e9"
TITLE = "Simulator throughput (requests/second) per policy"

#: Policies timed here (belady/alg-cont excluded: offline / ledger-heavy).
TIMED = (
    "alg-discrete",
    "lru",
    "fifo",
    "clock",
    "lfu",
    "lru-k",
    "marking",
    "greedydual",
    "random",
    "static-lru",
)

#: Subset timed under both engines on the hit-heavy trace.
ENGINE_COMPARED = ("alg-discrete", "lru", "fifo", "greedydual")


def _rps(trace, name: str, k: int, costs, engine: str) -> float:
    policy = make_policy(name)
    start = time.perf_counter()
    simulate(trace, policy, k, costs=costs, validate=False, engine=engine)
    return len(trace.requests) / (time.perf_counter() - start)


def run(quick: bool = True, seed: int = 0) -> ExperimentOutput:
    length = 50_000 if quick else 300_000
    num_pages = 2_000
    k = 256
    trace = zipf_trace(num_pages, length, skew=0.9, seed=seed)
    costs = [MonomialCost(2)]

    rows: List[Dict[str, object]] = []
    for name in TIMED:
        policy = make_policy(name)
        start = time.perf_counter()
        result = simulate(trace, policy, k, costs=costs, validate=False)
        elapsed = time.perf_counter() - start
        rows.append(
            {
                "policy": name,
                "requests_per_sec": length / elapsed,
                "elapsed_s": elapsed,
                "misses": result.misses,
            }
        )
    rows.sort(key=lambda r: -r["requests_per_sec"])

    # Fast vs reference engine on the hit-heavy shape.
    hot_trace = zipf_trace(num_pages, length, skew=2.0, seed=seed)
    k_hot = 1_024
    engine_rows: List[Dict[str, object]] = []
    for name in ENGINE_COMPARED:
        ref = _rps(hot_trace, name, k_hot, costs, "reference")
        fast = _rps(hot_trace, name, k_hot, costs, "fast")
        engine_rows.append(
            {
                "policy": name,
                "reference_rps": ref,
                "fast_rps": fast,
                "speedup": fast / ref,
            }
        )

    rps = {r["policy"]: r["requests_per_sec"] for r in rows}
    speedups = {r["policy"]: r["speedup"] for r in engine_rows}
    checks = {
        "every policy clears 10k requests/sec": all(
            r["requests_per_sec"] > 10_000 for r in rows
        ),
        # Wall-clock checks carry generous margins: absolute timings vary
        # ~2x with machine load (the scaling *shape* is checked load-
        # independently in E14 via the naive-implementation ablation).
        "ALG-DISCRETE within 20x of LRU": rps["alg-discrete"] * 20 >= rps["lru"],
        "ALG-DISCRETE within 6x of GreedyDual (same heap family)": rps[
            "alg-discrete"
        ]
        * 6
        >= rps["greedydual"],
        # The bench_e9 bar is >=3x; here the margin is generous for the
        # same load-variance reason as above.
        "fast engine beats reference on hit-heavy trace": all(
            s > 1.5 for s in speedups.values()
        ),
    }
    text = (
        ascii_table(rows, title=f"Throughput on zipf(P={num_pages}, T={length}), k={k}")
        + "\n\n"
        + ascii_bars(
            [r["policy"] for r in rows],
            [r["requests_per_sec"] for r in rows],
            title="requests/second",
        )
        + "\n\n"
        + ascii_table(
            engine_rows,
            title=f"Fast vs reference engine on zipf skew=2.0, k={k_hot}",
        )
    )
    return ExperimentOutput(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows + engine_rows,
        text=text,
        shape_checks=checks,
    )


__all__ = ["run", "EXPERIMENT_ID", "TITLE", "TIMED", "ENGINE_COMPARED"]
