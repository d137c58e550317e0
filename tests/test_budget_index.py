"""ALG-DISCRETE's budget index, which the policy owns: one heap per
tenant of stored keys ``B + y - V[u]`` under the dual offset y and
per-tenant uplifts V, and a lazily synced tenant heap.  The tests drive
the policy hook by hook, as the engine and ``repro.multipool`` do."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.alg_discrete import AlgDiscrete
from repro.core.alg_discrete_naive import NaiveAlgDiscrete
from repro.core.cost_functions import LinearCost, MonomialCost, TableCost
from repro.sim.policy import SimContext

#: Every gradient notion; smoothed windows are powers of two, so the
#: averaged integer-valued costs stay dyadic and exact.
MODES = [
    {"derivative_mode": "continuous"},
    {"derivative_mode": "marginal"},
    *({"derivative_mode": "smoothed", "smoothing_window": w} for w in (1, 2, 4)),
]


def driven(costs, owners, **mode):
    """An AlgDiscrete reset over *owners*, driven hook by hook."""
    alg = AlgDiscrete(**mode)
    alg.reset(
        SimContext(
            k=len(owners), owners=np.array(owners), num_users=len(costs), costs=costs
        )
    )
    return alg


def miss_with_full_cache(alg, page, t):
    """The engine's full-cache miss: choose, evict, insert."""
    victim = alg.choose_victim(page, t)
    alg.on_evict(victim, t)
    alg.on_insert(page, t)
    return victim


class TestBasics:
    def test_empty(self):
        alg = driven([LinearCost(1.0)], [0])
        assert alg.resident_budgets() == {}
        with pytest.raises(IndexError):
            alg.choose_victim(0, 0)

    def test_insert_and_min(self):
        alg = driven([LinearCost(5.0), LinearCost(3.0)], [0, 1])
        alg.on_insert(0, 0)
        alg.on_insert(1, 1)
        assert alg.choose_victim(2, 2) == 1
        assert alg.budget_of(1) == 3.0

    def test_duplicate_insert_rejected(self):
        alg = driven([LinearCost(1.0)], [0])
        alg.on_insert(0, 0)
        with pytest.raises(KeyError):
            alg.on_insert(0, 1)

    def test_remove_returns_budget(self):
        alg = driven([LinearCost(2.5), LinearCost(4.0)], [0, 1, 1])
        alg.on_insert(0, 0)
        alg.on_insert(1, 1)
        assert miss_with_full_cache(alg, 2, 2) == 0
        assert alg._y == 2.5
        assert alg.resident_budgets() == {1: 1.5, 2: 4.0}

    def test_subtract_is_lazy_and_correct(self):
        alg = driven([LinearCost(2.0), LinearCost(5.0)], [0, 1, 1, 0])
        alg.on_insert(0, 0)
        alg.on_insert(1, 1)
        miss_with_full_cache(alg, 2, 2)  # evicts page 0: y jumps by 2
        assert alg.budget_of(1) == 3.0
        assert alg.budget_of(2) == 5.0  # set after the jump: unaffected
        miss_with_full_cache(alg, 3, 3)  # evicts page 1: y jumps by 3
        assert alg.budget_of(2) == 2.0
        assert alg.budget_of(3) == 2.0

    def test_uplift_only_touches_user(self):
        # f'(m) = 2m for user 0: each eviction of its pages lifts its
        # resident budgets by f'(m+2) - f'(m+1) = 2.
        alg = driven([MonomialCost(2), LinearCost(8.0)], [0, 0, 1, 0])
        for page in range(3):
            alg.on_insert(page, page)
        assert miss_with_full_cache(alg, 3, 3) == 0
        assert alg.budget_of(1) == 2.0 - 2.0 + 2.0
        assert alg.budget_of(2) == 8.0 - 2.0  # other user: y jump only
        assert alg.budget_of(3) == 4.0  # fresh f'(2), no past uplift
        assert alg.fresh_budget(0) == 4.0
        assert alg.evictions_by_user.tolist() == [1, 0]

    def test_min_crosses_users_after_uplift(self):
        # f'(m) = 3m^2 for user 0: the uplift 12 - 3 lifts page 1 above
        # user 1's page, which the y jump alone would not.
        alg = driven([MonomialCost(3), LinearCost(4.0)], [0, 0, 1, 1])
        for page in range(3):
            alg.on_insert(page, page)
        assert miss_with_full_cache(alg, 3, 3) == 0
        assert alg.resident_budgets() == {1: 9.0, 2: 1.0, 3: 4.0}
        assert alg.choose_victim(0, 4) == 2

    def test_budgets_snapshot(self):
        alg = driven([MonomialCost(2), LinearCost(3.0)], [0, 0, 1, 1])
        for page in range(3):
            alg.on_insert(page, page)
        assert miss_with_full_cache(alg, 3, 3) == 0
        snap = alg.resident_budgets()
        assert snap == {1: 2.0, 2: 1.0, 3: 3.0}
        assert snap == {page: alg.budget_of(page) for page in snap}

    def test_clamp_noise(self):
        alg = driven([LinearCost(1.0)], [0])
        alg.on_insert(0, 0)
        alg._y += 1.0 + 1e-12
        assert alg.budget_of(0) == 0.0  # clamped, not negative
        assert alg.resident_budgets()[0] < 0.0  # the raw snapshot

    def test_real_negative_passes_through(self):
        # Legal for non-convex costs (paper section 2.5): in marginal
        # mode the uplift f(2) - 2 f(1) + f(0) = 1 - 5 is negative.
        alg = driven([TableCost([0.0, 5.0, 6.0, 12.0])], [0, 0, 0],
                     derivative_mode="marginal")
        alg.on_insert(0, 0)
        alg.on_insert(1, 1)
        assert miss_with_full_cache(alg, 2, 2) == 0
        assert alg.budget_of(1) == 5.0 - 5.0 + (1.0 - 5.0)
        assert alg.budget_of(2) == 1.0


@settings(max_examples=300, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("request"), st.integers(0, 8)),
            st.tuples(st.just("flush"), st.integers(0, 4)),
        ),
        min_size=5,
        max_size=80,
    ),
    k=st.integers(1, 5),
    beta=st.sampled_from([1, 2, 3]),
    mode=st.sampled_from(MODES),
)
def test_index_matches_naive(ops, k, beta, mode):
    """Run both implementations in lockstep over request and flush ops,
    as the engine and ``repro.multipool`` call them, checking the victim
    of every full-cache miss and the resident budgets after every op.

    Flushes are the only way several tenants can lose their last page
    and regain one between two victim choices (a flush leaves room, so
    inserts arrive without a victim choice), so this is where
    ALG-DISCRETE's lazily synced tenant heap must reproduce the eager
    order."""
    owners = np.repeat(np.arange(3), 3)
    ctx = SimContext(
        k=k, owners=owners, num_users=3, costs=[MonomialCost(beta)] * 3,
        num_pages=9, horizon=len(ops),
    )
    fast, slow = AlgDiscrete(**mode), NaiveAlgDiscrete(**mode)
    fast.reset(ctx)
    slow.reset(ctx)
    cache = set()
    for t, (op, arg) in enumerate(ops):
        if op == "flush":
            if not cache:
                continue
            page = sorted(cache)[arg % len(cache)]
            cache.remove(page)
            fast.on_flush(page, t)
            slow.on_flush(page, t)
        elif arg in cache:
            fast.on_hit(arg, t)
            slow.on_hit(arg, t)
        else:
            if len(cache) >= k:
                victim = fast.choose_victim(arg, t)
                assert victim == slow.choose_victim(arg, t), (t, ops[: t + 1])
                cache.remove(victim)
                fast.on_evict(victim, t)
                slow.on_evict(victim, t)
            cache.add(arg)
            fast.on_insert(arg, t)
            slow.on_insert(arg, t)
        assert fast.resident_budgets() == slow.resident_budgets()
