"""Engine smoke: every registered policy on one Zipf(1.3) trace of 5,000
requests at k = 64, run three ways — the reference engine, the fast
engine in RAM, and the fast engine streamed from a columnar store —
must agree on hits, misses, per-user misses, the final cache, the
eviction events and the miss curve.

The streamed leg reads 512-row segments, which put nine batch
boundaries inside the trace and cut hit runs that the in-RAM pass
scans whole.  Offline policies need the materialized trace, so they
run the two in-RAM legs only.
"""

from __future__ import annotations

import inspect

import pytest

from repro.core.cost_functions import MonomialCost
from repro.policies import POLICY_REGISTRY
from repro.sim import simulate, write_columnar
from repro.workloads.builders import zipf_trace

K = 64


@pytest.fixture(scope="module")
def trace():
    return zipf_trace(400, 5_000, skew=1.3, seed=0)


@pytest.fixture(scope="module")
def streamed(trace, tmp_path_factory):
    path = tmp_path_factory.mktemp("engine-smoke") / "col"
    return write_columnar(trace, str(path), segment_rows=512)


def build(factory):
    params = inspect.signature(factory).parameters
    return factory(rng=7) if "rng" in params else factory()


@pytest.mark.parametrize("name", sorted(POLICY_REGISTRY))
def test_reference_fast_and_streamed_agree(name, trace, streamed):
    factory = POLICY_REGISTRY[name]
    costs = [MonomialCost(2)] * trace.num_users
    legs = [("reference", trace), ("fast", trace)]
    if not factory().requires_future:
        legs.append(("fast", streamed))
    results = []
    for engine, source in legs:
        r = simulate(
            source, build(factory), K, costs=costs,
            record_events=True, record_curve=True, engine=engine,
        )
        results.append((
            r.hits, r.misses, r.user_misses.tolist(),
            r.final_cache, r.events, r.miss_curve.tolist(),
        ))
    assert all(r == results[0] for r in results), name
