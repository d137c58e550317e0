"""Tests for the multi-pool extension (paper §5 future work)."""

import inspect

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cost_functions import LinearCost, MonomialCost
from repro.multipool import (
    AllInOneAssignment,
    BalancedPagesAssignment,
    CostAwareRebalancing,
    MultiPoolResult,
    PoolSystem,
    RandomAssignment,
    RoundRobinAssignment,
    simulate_multipool,
)
from repro.policies import POLICY_REGISTRY
from repro.policies.lru import LRUPolicy
from repro.sim.engine import simulate
from repro.sim.policy import SimContext
from repro.sim.trace import Trace
from repro.workloads.builders import random_multi_tenant_trace

ONLINE_POLICIES = sorted(
    name for name, factory in POLICY_REGISTRY.items()
    if not factory.requires_future
)


def seeded_factory(name, seed=7):
    """A zero-argument factory for *name*; stochastic policies draw from
    ``rng=seed``, so every call builds the same policy."""
    factory = POLICY_REGISTRY[name]
    if "rng" in inspect.signature(factory).parameters:
        return lambda: factory(rng=seed)
    return factory


def reference_multipool(trace, costs, system, strategy, epoch_length, policy_factory):
    """The multi-pool run request by request, each pool a plain set
    under the engine's miss rules: ``(MultiPoolResult, pages flushed by
    migrations)``.

    Every hit reaches its pool's policy through ``on_hit``, and the
    per-tenant resident page count the strategy reads is kept up to
    date on every miss, eviction and flush, where
    ``simulate_multipool`` serves each epoch through the kernel's routed
    form and counts residency at the epoch boundary."""
    n = trace.num_users
    owners = trace.owners
    page_counts = np.bincount(owners, minlength=n)
    assignment = np.asarray(
        strategy.initial(system, n, page_counts, costs), dtype=np.int64
    ).copy()
    pools = []
    for p in range(system.num_pools):
        policy = policy_factory()
        k = int(system.capacities[p])
        policy.reset(
            SimContext(
                k=k, owners=owners, num_users=n, costs=costs, trace=None,
                num_pages=trace.num_pages, horizon=trace.length,
            )
        )
        pools.append((policy, k, set()))
    user_misses = np.zeros(n, dtype=np.int64)
    epoch_misses = np.zeros(n, dtype=np.int64)
    per_pool_misses = np.zeros(system.num_pools, dtype=np.int64)
    resident_by_user = np.zeros(n, dtype=np.int64)
    migrations = flushed = 0
    for t, page in enumerate(trace.requests.tolist()):
        user = int(owners[page])
        pool = int(assignment[user])
        policy, k, cache = pools[pool]
        if page in cache:
            policy.on_hit(page, t)
        else:
            user_misses[user] += 1
            epoch_misses[user] += 1
            per_pool_misses[pool] += 1
            if len(cache) >= k:
                victim = policy.choose_victim(page, t)
                assert victim in cache and victim != page
                cache.remove(victim)
                policy.on_evict(victim, t)
                resident_by_user[int(owners[victim])] -= 1
            cache.add(page)
            policy.on_insert(page, t)
            resident_by_user[user] += 1
        if (t + 1) % epoch_length == 0:
            move = strategy.rebalance(
                system, assignment, epoch_misses, user_misses, costs,
                resident_by_user=resident_by_user,
            )
            if move is not None:
                mig_user, new_pool = move
                old_pool = int(assignment[mig_user])
                if new_pool != old_pool:
                    old_policy, _k, old_cache = pools[old_pool]
                    for resident in sorted(old_cache):
                        if int(owners[resident]) == mig_user:
                            old_cache.remove(resident)
                            old_policy.on_flush(resident, t)
                            resident_by_user[mig_user] -= 1
                            flushed += 1
                    assignment[mig_user] = new_pool
                    migrations += 1
            epoch_misses[:] = 0
    result = MultiPoolResult(
        assignment_name=strategy.name,
        user_misses=user_misses,
        migrations=migrations,
        migration_cost_paid=migrations * system.migration_cost,
        final_assignment=assignment,
        per_pool_misses=per_pool_misses,
    )
    return result, flushed


def assert_same_result(got, want):
    assert got.assignment_name == want.assignment_name
    assert got.user_misses.tolist() == want.user_misses.tolist()
    assert got.per_pool_misses.tolist() == want.per_pool_misses.tolist()
    assert got.migrations == want.migrations
    assert got.migration_cost_paid == want.migration_cost_paid
    assert got.final_assignment.tolist() == want.final_assignment.tolist()


@pytest.fixture
def mt_trace():
    return random_multi_tenant_trace(4, 6, 2000, seed=21)


@pytest.fixture
def mt_costs():
    return [MonomialCost(2), LinearCost(2.0), MonomialCost(2), LinearCost(1.0)]


class TestPoolSystem:
    def test_basic(self):
        s = PoolSystem(capacities=np.array([4, 6]), migration_cost=3.0)
        assert s.num_pools == 2
        assert s.total_capacity == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            PoolSystem(capacities=np.array([0, 3]))
        with pytest.raises(ValueError):
            PoolSystem(capacities=np.array([]))
        with pytest.raises(ValueError):
            PoolSystem(capacities=np.array([2]), migration_cost=-1.0)


class TestAssignments:
    def test_round_robin(self):
        s = PoolSystem(capacities=np.array([3, 3]))
        a = RoundRobinAssignment().initial(s, 5, np.ones(5), [])
        assert a.tolist() == [0, 1, 0, 1, 0]

    def test_all_in_one(self):
        s = PoolSystem(capacities=np.array([3, 3]))
        a = AllInOneAssignment().initial(s, 4, np.ones(4), [])
        assert a.tolist() == [0, 0, 0, 0]

    def test_balanced_by_pages(self):
        s = PoolSystem(capacities=np.array([10, 10]))
        pages = np.array([8, 7, 2, 1])
        a = BalancedPagesAssignment().initial(s, 4, pages, [])
        # The two big users land on different pools.
        assert a[0] != a[1]

    def test_balanced_respects_capacity_ratio(self):
        s = PoolSystem(capacities=np.array([30, 10]))
        pages = np.array([10, 10, 10, 10])
        a = BalancedPagesAssignment().initial(s, 4, pages, [])
        # The larger pool takes more users.
        assert (a == 0).sum() >= (a == 1).sum()

    def test_random_assignment_reproducible(self):
        s = PoolSystem(capacities=np.array([2, 2]))
        a = RandomAssignment(rng=5).initial(s, 6, np.ones(6), [])
        b = RandomAssignment(rng=5).initial(s, 6, np.ones(6), [])
        assert np.array_equal(a, b)

    def test_rebalancer_validation(self):
        with pytest.raises(ValueError):
            CostAwareRebalancing(imbalance_factor=0.5)


class TestSimulator:
    def test_pool_capacities_respected(self, mt_trace, mt_costs):
        system = PoolSystem(capacities=np.array([5, 7]))
        res = simulate_multipool(
            mt_trace, mt_costs, system, RoundRobinAssignment(), epoch_length=500
        )
        assert isinstance(res, MultiPoolResult)
        assert res.user_misses.sum() == res.per_pool_misses.sum()

    @pytest.mark.parametrize("name", ONLINE_POLICIES)
    def test_single_pool_equals_plain_engine(self, name, mt_trace, mt_costs):
        """With one pool holding everyone the multi-pool simulator is
        exactly the single-cache engine, for every online policy."""
        k = 8
        factory = seeded_factory(name)
        system = PoolSystem(capacities=np.array([k]))
        res = simulate_multipool(
            mt_trace, mt_costs, system, RoundRobinAssignment(),
            epoch_length=10**9, policy_factory=factory,
        )
        plain = simulate(mt_trace, factory(), k, costs=mt_costs)
        assert np.array_equal(res.user_misses, plain.user_misses)

    def test_total_cost_includes_migrations(self, mt_trace, mt_costs):
        system = PoolSystem(capacities=np.array([4, 4]), migration_cost=7.0)
        res = simulate_multipool(
            mt_trace,
            mt_costs,
            system,
            CostAwareRebalancing(start=AllInOneAssignment()),
            epoch_length=200,
        )
        base = float(
            sum(f.value(int(m)) for f, m in zip(mt_costs, res.user_misses))
        )
        assert res.total_cost(mt_costs) == pytest.approx(
            base + 7.0 * res.migrations
        )

    def test_rebalancer_moves_off_overloaded_pool(self, mt_trace, mt_costs):
        system = PoolSystem(capacities=np.array([6, 6]), migration_cost=0.0)
        res = simulate_multipool(
            mt_trace,
            mt_costs,
            system,
            CostAwareRebalancing(start=AllInOneAssignment()),
            epoch_length=200,
        )
        assert res.migrations >= 1
        # At least one user left pool 0.
        assert (res.final_assignment != 0).any()

    def test_huge_migration_cost_freezes_assignment(self, mt_trace, mt_costs):
        system = PoolSystem(capacities=np.array([6, 6]), migration_cost=1e12)
        res = simulate_multipool(
            mt_trace,
            mt_costs,
            system,
            CostAwareRebalancing(start=AllInOneAssignment()),
            epoch_length=200,
        )
        assert res.migrations == 0
        assert (res.final_assignment == 0).all()

    def test_each_user_migrates_at_most_once(self, mt_trace, mt_costs):
        system = PoolSystem(capacities=np.array([6, 6]), migration_cost=0.0)
        res = simulate_multipool(
            mt_trace,
            mt_costs,
            system,
            CostAwareRebalancing(start=AllInOneAssignment()),
            epoch_length=100,
        )
        assert res.migrations <= mt_trace.num_users

    def test_lru_pools_work_too(self, mt_trace, mt_costs):
        system = PoolSystem(capacities=np.array([5, 5]))
        res = simulate_multipool(
            mt_trace,
            mt_costs,
            system,
            RoundRobinAssignment(),
            epoch_length=500,
            policy_factory=LRUPolicy,
        )
        assert res.user_misses.sum() > 0

    def test_invalid_assignment_rejected(self, mt_trace, mt_costs):
        class Bad(RoundRobinAssignment):
            def initial(self, system, num_users, page_counts, costs):
                return np.full(num_users, 99, dtype=np.int64)

        system = PoolSystem(capacities=np.array([5, 5]))
        with pytest.raises(ValueError):
            simulate_multipool(mt_trace, mt_costs, system, Bad())

    def test_offline_policy_rejected(self, mt_trace, mt_costs):
        from repro.policies.belady import BeladyPolicy

        system = PoolSystem(capacities=np.array([5, 5]))
        with pytest.raises(ValueError):
            simulate_multipool(
                mt_trace,
                mt_costs,
                system,
                RoundRobinAssignment(),
                policy_factory=BeladyPolicy,
            )

    def test_requires_enough_costs(self, mt_trace):
        system = PoolSystem(capacities=np.array([5, 5]))
        with pytest.raises(ValueError):
            simulate_multipool(
                mt_trace, [LinearCost()], system, RoundRobinAssignment()
            )


class TestAgainstPerRequestLoop:
    """``simulate_multipool`` against :func:`reference_multipool`: every
    ``MultiPoolResult`` field, on generated multi-tenant traces."""

    @settings(
        max_examples=150, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_generated_runs_match(self, data):
        num_users = data.draw(st.integers(1, 5), label="tenants")
        trace = random_multi_tenant_trace(
            num_users,
            data.draw(st.integers(1, 12), label="pages/tenant"),
            data.draw(st.integers(1, 400), label="length"),
            skew=data.draw(st.sampled_from([0.0, 0.8, 1.6]), label="skew"),
            seed=data.draw(st.integers(0, 2**16), label="trace seed"),
        )
        num_pools = data.draw(st.integers(1, 3), label="pools")
        capacities = data.draw(
            st.lists(st.integers(1, 10), min_size=num_pools, max_size=num_pools),
            label="capacities",
        )
        system = PoolSystem(capacities=np.array(capacities), migration_cost=0.0)
        epoch_length = data.draw(st.integers(1, 50), label="epoch")
        policy = data.draw(
            st.sampled_from(["alg-discrete", "lru", "fifo", "random"]),
            label="policy",
        )
        rebalance = data.draw(st.booleans(), label="rebalance")
        costs = [
            MonomialCost(2) if i % 2 else LinearCost(1.0 + i)
            for i in range(trace.num_users)
        ]
        factory = seeded_factory(policy, data.draw(st.integers(0, 99), label="rng"))

        def strategy():
            if rebalance:
                return CostAwareRebalancing(imbalance_factor=1.0)
            return RoundRobinAssignment()

        got = simulate_multipool(
            trace, costs, system, strategy(), epoch_length, factory
        )
        want, _flushed = reference_multipool(
            trace, costs, system, strategy(), epoch_length, factory
        )
        assert_same_result(got, want)

    @pytest.mark.parametrize("epoch_length", [100, 1000])
    @pytest.mark.parametrize("policy", ["alg-discrete", "lru", "random"])
    def test_migration_flushes_resident_pages(self, policy, epoch_length):
        """A run whose migrations flush resident pages, so the strategy's
        cold-cache price reads a non-zero ``resident_by_user``; the
        1,000-request epochs are served grouped by pool."""
        trace = random_multi_tenant_trace(4, 40, 6000, skew=0.9, seed=3)
        costs = [MonomialCost(2), LinearCost(2.0), MonomialCost(3), LinearCost(1.0)]
        system = PoolSystem(capacities=np.array([12, 20, 8]), migration_cost=0.0)
        factory = seeded_factory(policy)
        got = simulate_multipool(
            trace, costs, system,
            CostAwareRebalancing(imbalance_factor=1.0), epoch_length, factory,
        )
        want, flushed = reference_multipool(
            trace, costs, system,
            CostAwareRebalancing(imbalance_factor=1.0), epoch_length, factory,
        )
        assert want.migrations >= 1 and flushed > 0
        assert_same_result(got, want)
