"""Invariant drift monitoring against live ALG-DISCRETE state.

Two acceptance properties from the PR spec are enforced here:

* a clean ALG-DISCRETE run raises **no** drift flags, while
  ``watch_simulation`` stays bit-identical to ``simulate()``;
* an injected budget violation (a uniform subtraction: the live dual
  offset y raised by 1e9 — the "lost uplift" failure mode) **is**
  caught.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.cost_functions import LinearCost, MonomialCost
from repro.obs import DriftFlag, InvariantMonitor, watch_simulation
from repro.sim import simulate
from repro.workloads.builders import random_multi_tenant_trace

NUM_USERS = 4
K = 48


@pytest.fixture(scope="module")
def trace():
    return random_multi_tenant_trace(NUM_USERS, 80, 6000, skew=0.9, seed=11)


@pytest.fixture(scope="module")
def costs():
    return [MonomialCost(2) for _ in range(NUM_USERS)]


class TestWatchSimulation:
    @pytest.mark.parametrize("policy_name", ["alg-discrete", "lru"])
    def test_bit_identical_to_simulate(self, trace, costs, policy_name):
        ref = simulate(trace, repro.make_policy(policy_name), K, costs=costs)
        run = watch_simulation(
            trace, repro.make_policy(policy_name), K, costs, every=500
        )
        assert run.hits == ref.hits
        assert run.misses == ref.misses
        np.testing.assert_array_equal(run.user_misses, ref.user_misses)

    @pytest.mark.parametrize("every", [500, 700])
    def test_sampling_cadence(self, trace, costs, every):
        run = watch_simulation(
            trace, repro.make_policy("alg-discrete"), K, costs, every=every
        )
        # One sample per full interval, plus a final partial-interval
        # sample when the trace length is not a multiple of `every`.
        expected = trace.length // every + (1 if trace.length % every else 0)
        assert len(run.monitor.samples) == expected
        assert run.monitor.samples[-1].t == trace.length

    def test_group_samples_at_every_crossing(self, trace, costs):
        """A serving group samples every ``monitor_every`` requests
        however the stream is batched: one 1,000-request apply samples
        at the same instants as ten 100-request ones."""
        from repro.serve.accounting import CostLedger
        from repro.serve.shard import ShardGroup, ShardManager

        def sample_times(batch):
            shards = ShardManager("alg-discrete", 1, K, trace.owners, costs)
            monitor = InvariantMonitor(costs)
            group = ShardGroup(
                shards, CostLedger(shards.num_users, costs), monitor, 100
            )
            pages = trace.requests[:1000].tolist()
            for t0 in range(0, 1000, batch):
                group.apply(pages[t0 : t0 + batch], range(t0, t0 + batch))
            return [s.t for s in monitor.samples]

        assert sample_times(1000) == sample_times(100) == list(range(100, 1001, 100))

    def test_every_must_be_positive(self, trace, costs):
        with pytest.raises(ValueError, match="every"):
            watch_simulation(
                trace, repro.make_policy("lru"), K, costs, every=0
            )


class TestCleanRun:
    def test_alg_discrete_raises_no_flags(self, trace, costs):
        run = watch_simulation(
            trace, repro.make_policy("alg-discrete"), K, costs, every=250
        )
        mon = run.monitor
        assert mon.ok, f"unexpected drift: {mon.summary()}"
        assert mon.flags == []
        assert "no drift" in mon.summary()
        # Budgets were actually observed (the checks were not vacuous).
        assert any(s.min_budget is not None for s in mon.samples)

    def test_trajectories_recorded(self, trace, costs):
        run = watch_simulation(
            trace, repro.make_policy("alg-discrete"), K, costs, every=500
        )
        traj = run.monitor.trajectory(0)
        assert traj.shape == (len(run.monitor.samples), 4)
        # t, m_i and f_i(m_i) are non-decreasing along a run.
        assert np.all(np.diff(traj[:, 0]) > 0)
        assert np.all(np.diff(traj[:, 1]) >= 0)
        assert np.all(np.diff(traj[:, 2]) >= 0)
        # The quote column is f'(m+1) under the monitor's convention.
        f = costs[0]
        assert traj[-1, 3] == pytest.approx(f.derivative(traj[-1, 1] + 1))


class TestInjectedViolations:
    def test_budget_subtraction_is_caught(self, trace, costs):
        policy = repro.make_policy("alg-discrete")
        run = watch_simulation(trace, policy, K, costs, every=500)
        mon = run.monitor
        assert mon.ok
        # Inject the drift: a uniform subtraction pushes the minimum
        # resident budget negative without touching any other state.
        policy._y += 1e9
        mon.sample(trace.length + 1, run.user_misses, policies=(policy,))
        assert not mon.ok
        kinds = {f.kind for f in mon.flags}
        assert "budget-nonneg" in kinds
        assert "drift flags" in mon.summary()
        flag = next(f for f in mon.flags if f.kind == "budget-nonneg")
        assert flag.magnitude > 0
        assert flag.t == trace.length + 1

    def test_budget_drift_flags_once_per_tenant_per_sample(self):
        """A drift that pushes all 128 resident budgets negative raises
        at most one flag per tenant per sample (not one per page), each
        naming its tenant's worst page and the count."""
        trace = random_multi_tenant_trace(4, 100, 5000, seed=2)
        costs = [MonomialCost(2)] * trace.num_users
        policy = repro.make_policy("alg-discrete")
        run = watch_simulation(trace, policy, 128, costs, every=500)
        mon = run.monitor
        assert mon.ok
        policy._y += 1e9
        budgets = policy.resident_budgets()
        assert len(budgets) == 128 and max(budgets.values()) < 0
        for i in range(1, 4):
            mon.sample(trace.length + i, run.user_misses, policies=(policy,))
            new = [f for f in mon.flags if f.t == trace.length + i]
            assert 0 < len(new) <= trace.num_users
            assert {f.kind for f in new} == {"budget-nonneg"}
            assert len({f.tenant for f in new}) == len(new)
        assert len(mon.flags) <= 3 * trace.num_users
        owners = trace.owners.tolist()
        for flag in new:
            mine = {p: b for p, b in budgets.items() if owners[p] == flag.tenant}
            page = min(mine, key=mine.get)
            assert flag.magnitude == -mine[page]
            assert f"resident page {page} " in flag.detail
            assert f"({len(mine)} negative resident pages)" in flag.detail

    def test_fresh_budget_drift_is_caught(self, costs):
        class FakePolicy:
            derivative_mode = "continuous"
            evictions_by_user = [3, 0, 0, 0]

            def fresh_budget(self, tenant):
                return -123.0  # plainly not f'(ev+1)

        mon = InvariantMonitor(costs)
        mon.sample(10, [5, 0, 0, 0], policies=(FakePolicy(),))
        assert {f.kind for f in mon.flags} == {"fresh-budget"}

    def test_eviction_bound_violation(self, costs):
        class FakePolicy:
            evictions_by_user = [7, 0, 0, 0]

        mon = InvariantMonitor(costs)
        mon.sample(10, [3, 0, 0, 0], policies=(FakePolicy(),))
        kinds = {f.kind for f in mon.flags}
        assert "eviction-bound" in kinds
        flag = next(f for f in mon.flags if f.kind == "eviction-bound")
        assert flag.tenant == 0 and flag.magnitude == 4.0

    def test_miss_monotone_violation(self, costs):
        mon = InvariantMonitor(costs)
        mon.sample(10, [5, 1, 0, 0])
        mon.sample(20, [4, 1, 0, 0])  # tenant 0's counter went backwards
        assert [f.kind for f in mon.flags] == ["miss-monotone"]
        assert mon.flags[0].tenant == 0

    def test_policies_without_introspection_are_skipped(self, costs):
        mon = InvariantMonitor(costs)
        mon.sample(10, [1, 2, 3, 4], policies=(object(),))
        assert mon.ok
        assert mon.samples[0].min_budget is None


class TestNonConvexGating:
    def test_negative_budgets_legal_for_nonconvex_tenants(self):
        # A concave-ish table cost: the monitor must not flag negative
        # budgets for tenants whose f_i fails the convexity probe.
        from repro.core.cost_functions import TableCost

        concave = TableCost([0, 10, 14, 16, 17])
        assert not concave.is_convex_on_integers(10)
        convex = LinearCost(2.0)

        class FakePolicy:
            _owners_list = [0, 0, 1, 1]

            def resident_budgets(self):
                return {0: -5.0, 2: 1.0}

        mon = InvariantMonitor([concave, convex])
        mon.sample(10, [2, 2], policies=(FakePolicy(),))
        assert mon.ok  # page 0 belongs to the non-convex tenant

    def test_convex_tenant_negative_budget_flagged(self):
        class FakePolicy:
            _owners_list = [0, 0]

            def resident_budgets(self):
                return {0: -5.0, 1: 1.0}

        mon = InvariantMonitor([LinearCost(2.0)])
        mon.sample(10, [2], policies=(FakePolicy(),))
        assert [f.kind for f in mon.flags] == ["budget-nonneg"]


class TestDriftFlag:
    def test_frozen_record(self):
        flag = DriftFlag("budget-nonneg", 5, 1, "detail", 0.5)
        assert flag.kind == "budget-nonneg"
        with pytest.raises(AttributeError):
            flag.t = 6
