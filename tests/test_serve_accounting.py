"""The live cost ledger: counters, quotes, and the window-equivalence
contract — a live ledger's window rows must equal the offline
recomputation from a recorded miss curve
(:func:`repro.sim.metrics.windowed_miss_counts`)."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.alg_discrete import AlgDiscrete
from repro.core.cost_functions import LinearCost, MonomialCost, PiecewiseLinearCost
from repro.policies import POLICY_REGISTRY
from repro.serve import CostLedger, serve_trace
from repro.serve.shard import ShardGroup, ShardManager, hit_flags, shard_table
from repro.sim import simulate, windowed_miss_counts
from repro.sim.metrics import windowed_cost
from repro.workloads.builders import random_multi_tenant_trace


def test_counters_and_costs():
    costs = [MonomialCost(2), LinearCost(3.0)]
    ledger = CostLedger(2, costs)
    # Tenants 0, 0, 1, 0, 1; the first three missed.
    ledger.record([0, 0, 1, 0, 1], [0, 1, 2], range(5))
    assert ledger.total_requests == 5
    assert ledger.hits == 2 and ledger.misses == 3
    assert ledger.hits_by_user().tolist() == [1, 1]
    assert ledger.misses_by_user().tolist() == [2, 1]
    assert ledger.cost_of(0) == pytest.approx(4.0)  # 2^2
    assert ledger.cost_of(1) == pytest.approx(3.0)  # 3*1
    assert ledger.total_cost() == pytest.approx(7.0)
    assert ledger.costs_by_user().tolist() == pytest.approx([4.0, 3.0])


def test_marginal_quote_is_the_fresh_budget():
    """quote(i) = f_i'(m_i + 1): fed ALG-DISCRETE's eviction counts it
    reproduces the algorithm's fresh budget exactly.  (The server's own
    ledger counts *fetches*, the paper's a_i, which exceed evictions by
    the cold misses.)"""
    trace = random_multi_tenant_trace(3, 20, 800, seed=4)
    costs = [MonomialCost(2)] * trace.num_users
    policy = AlgDiscrete()
    simulate(trace, policy, 16, costs=costs)
    ledger = CostLedger(trace.num_users, costs)
    for tenant, m in enumerate(policy.evictions_by_user):
        ledger.record([tenant] * int(m), range(int(m)), range(int(m)))
    for tenant in range(trace.num_users):
        assert ledger.marginal_quote(tenant) == pytest.approx(
            policy.fresh_budget(tenant)
        )


def test_no_costs_ledger_counts_but_refuses_quotes():
    ledger = CostLedger(2)
    ledger.record([0], [0], [0])
    assert ledger.misses == 1
    with pytest.raises(ValueError, match="no cost functions"):
        ledger.cost_of(0)
    snap = ledger.snapshot()
    assert "total_cost" not in snap
    assert "cost" not in snap["tenants"][0]


def test_windowed_counts_match_offline_recomputation():
    trace = random_multi_tenant_trace(3, 30, 1000, seed=9)
    costs = [MonomialCost(2)] * trace.num_users
    for window in (64, 100, 1000, 7):  # incl. non-divisors and one-window
        sim = simulate(
            trace, POLICY_REGISTRY["lru"](), 32, costs=costs, record_curve=True
        )
        offline = windowed_miss_counts(sim, window)
        report = serve_trace(trace, "lru", 32, costs, window=window)
        live = np.asarray(report.stats["windowed_misses"], dtype=np.int64)
        assert live.shape == offline.shape, window
        assert np.array_equal(live, offline), window


def test_windowed_cost_matches_metrics():
    trace = random_multi_tenant_trace(2, 25, 600, seed=2)
    costs = [PiecewiseLinearCost([0.0, 5.0], [0.0, 1.0]), MonomialCost(2)]
    window = 50
    sim = simulate(
        trace, POLICY_REGISTRY["lru"](), 16, costs=costs, record_curve=True
    )
    report = serve_trace(trace, "lru", 16, costs, window=window)
    rows = np.asarray(report.stats["windowed_misses"], dtype=np.int64)
    total = sum(
        float(costs[i].value(int(m))) for row in rows for i, m in enumerate(row)
    )
    assert total == pytest.approx(windowed_cost(sim, costs, window))


def test_window_edge_cases():
    ledger = CostLedger(2, [MonomialCost(2)] * 2, window=4)
    assert ledger.windowed_miss_counts().shape == (0, 2)
    ledger.record([0] * 4, range(4), range(4))
    assert ledger.windowed_miss_counts().tolist() == [[4, 0]]  # exactly full
    ledger.record([1], [0], [4])
    assert ledger.windowed_miss_counts().tolist() == [[4, 0], [0, 1]]  # partial
    assert ledger.windowed_cost() == pytest.approx(16.0 + 1.0)
    windowless = CostLedger(2, [MonomialCost(2)] * 2)
    with pytest.raises(ValueError, match="window"):
        windowless.windowed_miss_counts()


def test_snapshot_is_jsonable_and_complete():
    ledger = CostLedger(2, [MonomialCost(2)] * 2, window=3)
    # Tenants 0, 1, 0, 1; all but the second missed.
    ledger.record([0, 1, 0, 1], [0, 2, 3], range(4))
    snap = ledger.snapshot()
    json.dumps(snap)
    assert snap["requests"] == 4
    assert snap["hits"] == 1 and snap["misses"] == 3
    assert snap["window"] == 3
    assert snap["tenants"][0]["marginal_quote"] == pytest.approx(6.0)  # f'(3)=2*3


def test_merge_refuses_another_window():
    a = CostLedger(2, window=4)
    a.record([0, 1], [0], [0, 1])
    b = CostLedger(2, window=5)
    with pytest.raises(ValueError, match="window"):
        b.merge(a.counters())
    c = CostLedger(2, window=4)
    c.merge(a.counters())
    assert c.counters() == a.counters()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_group_slices_merge_to_one_group(data):
    """Shard groups over a partition of the shard ids, fed batch by
    batch at global t exactly as the worker pool routes, keep ledger
    slices whose merge equals the ledger of one group over every
    shard: per-tenant hits and misses, request count, window rows
    (trailing partial and miss-free windows included) and cost."""
    num_users = data.draw(st.integers(1, 4), label="tenants")
    pages_per_user = data.draw(st.integers(1, 12), label="pages/tenant")
    owners = np.repeat(np.arange(num_users, dtype=np.int64), pages_per_user)
    length = data.draw(st.integers(0, 400), label="length")
    requests = data.draw(
        st.lists(
            st.integers(0, owners.size - 1), min_size=length, max_size=length
        ),
        label="requests",
    )
    window = data.draw(st.none() | st.integers(1, 64), label="window")
    num_shards = data.draw(st.integers(1, 5), label="S")
    k = data.draw(st.integers(num_shards, 3 * num_shards + 4), label="k")
    policy = data.draw(
        st.sampled_from(["lru", "fifo", "lfu", "alg-discrete", "random"]),
        label="policy",
    )
    num_groups = data.draw(st.integers(1, num_shards), label="W")
    order = data.draw(st.permutations(range(num_shards)), label="shard order")
    cuts = sorted(data.draw(
        st.sets(
            st.integers(1, max(1, num_shards - 1)),
            min_size=num_groups - 1, max_size=num_groups - 1,
        ),
        label="partition cuts",
    ))
    parts = [
        order[lo:hi] for lo, hi in zip([0] + cuts, cuts + [num_shards])
    ]
    splits = sorted(data.draw(
        st.sets(st.integers(1, max(1, len(requests) - 1)), max_size=8),
        label="batch splits",
    ))
    costs = [MonomialCost(2)] * num_users

    def group(shard_ids=None):
        mgr = ShardManager(
            policy, num_shards, k, owners, costs, policy_seed=3,
            shard_ids=shard_ids,
        )
        return ShardGroup(mgr, CostLedger(num_users, costs, window=window))

    whole = group()
    slices = [group(ids) for ids in parts]
    part_of = np.empty(num_shards, dtype=np.int64)
    for g, ids in enumerate(parts):
        part_of[list(ids)] = g
    route = part_of[shard_table(owners.size, num_shards)]
    reqs = np.asarray(requests, dtype=np.int64)
    bounds = [0] + [b for b in splits if b < len(requests)] + [len(requests)]
    flags = []
    for lo, hi in zip(bounds, bounds[1:]):
        batch = reqs[lo:hi]
        flags += hit_flags(hi - lo, whole.apply(batch.tolist(), range(lo, hi)))
        for g, sl in enumerate(slices):
            pos = np.nonzero(route[batch] == g)[0]
            if pos.size:
                sl.apply(batch[pos].tolist(), (lo + pos).tolist())

    merged = CostLedger(num_users, costs, window=window)
    for sl in slices:
        merged.merge(sl.ledger.counters())
    ref = whole.ledger
    assert merged.hits_by_user().tolist() == ref.hits_by_user().tolist()
    assert merged.misses_by_user().tolist() == ref.misses_by_user().tolist()
    assert merged.total_requests == ref.total_requests == len(requests)
    assert merged.total_cost() == ref.total_cost()
    if window is not None:
        # The offline rows, from the per-request flags at global t.
        want = np.zeros((-(-len(requests) // window), num_users), dtype=np.int64)
        for t, (page, hit) in enumerate(zip(requests, flags)):
            if not hit:
                want[t // window, owners[page]] += 1
        assert np.array_equal(ref.windowed_miss_counts(), want)
        assert np.array_equal(merged.windowed_miss_counts(), want)


def test_validation():
    with pytest.raises(ValueError, match="cost functions"):
        CostLedger(3, [MonomialCost(2)])
    with pytest.raises(ValueError):
        CostLedger(0)
    with pytest.raises(ValueError):
        CostLedger(2, window=0)
