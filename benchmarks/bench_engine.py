"""Engine and data-structure microbenchmarks (ablation support).

The DESIGN.md performance claim for ALG-DISCRETE's lazy budget state —
O(log k + log n) per eviction instead of O(k) — is exercised here by
benchmarking the policy's eviction path against a churn workload,
alongside heap and workload-generation kernels.
"""

import numpy as np
import pytest

from repro.core.alg_discrete import AlgDiscrete
from repro.core.cost_functions import LinearCost, MonomialCost
from repro.policies import POLICY_REGISTRY
from repro.sim.policy import SimContext
from repro.sim.driver import simulate_many
from repro.sim.engine import simulate
from repro.util.heap import AddressableHeap
from repro.workloads.builders import zipf_trace


def test_bench_heap_churn(benchmark):
    rng = np.random.default_rng(0)
    keys = rng.uniform(0, 1, size=10_000)

    def churn():
        h = AddressableHeap()
        for i in range(2_000):
            h.push(i, float(keys[i]))
        for i in range(2_000, 10_000):
            h.pop()
            h.push(i, float(keys[i]))
        return len(h)

    assert benchmark(churn) == 2_000


def test_bench_alg_discrete_eviction_loop(benchmark):
    """ALG-DISCRETE's miss path: choose_victim, on_evict (the y jump and
    the same-user uplift), on_insert — 8k rounds over 4 users x 512
    resident pages, with uneven linear and monomial costs."""
    pages = 2_048 + 8_000
    ctx = SimContext(
        k=2_048,
        owners=np.arange(pages) % 4,
        num_users=4,
        costs=[LinearCost(1.5), MonomialCost(2), LinearCost(0.75), MonomialCost(3)],
    )

    def loop():
        alg = AlgDiscrete()
        alg.reset(ctx)
        for p in range(2_048):
            alg.on_insert(p, p)
        for p in range(2_048, pages):
            victim = alg.choose_victim(p, p)
            alg.on_evict(victim, p)
            alg.on_insert(p, p)
        return len(alg.resident_budgets())

    assert benchmark(loop) == 2_048


def test_bench_trace_generation(benchmark):
    trace = benchmark(lambda: zipf_trace(5_000, 200_000, skew=0.9, seed=0))
    assert trace.length == 200_000


def test_bench_next_use_table(benchmark, zipf_50k):
    table = benchmark(zipf_50k.next_use_table)
    assert table.shape == (50_000,)


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_bench_engine_scan_only(benchmark, engine, zipf_hot_50k):
    """Pure engine overhead: FIFO ignores hits, so on the hit-heavy
    trace this isolates the hit-run scanner against the per-request
    loop with no policy work in the way."""
    factory = POLICY_REGISTRY["fifo"]

    def run():
        return simulate(zipf_hot_50k, factory(), 1_024, validate=False, engine=engine)

    result = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert result.hits > 0


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_bench_engine_batched_hits(benchmark, engine, zipf_hot_50k):
    """Scanner + tuned on_hit_batch: LRU's last-occurrence dedupe on
    ~100-request runs."""
    factory = POLICY_REGISTRY["lru"]

    def run():
        return simulate(zipf_hot_50k, factory(), 1_024, validate=False, engine=engine)

    result = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert result.hits > 0


def test_bench_simulate_many_serial(benchmark, zipf_50k):
    """Grid-driver overhead on top of the raw engine (serial path; the
    process-pool path is exercised in tests, not timed here — worker
    startup dominates at benchmark scale)."""

    def run():
        return simulate_many(["lru", "fifo"], [256, 1_024], [zipf_50k])

    runs = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert len(runs) == 4
