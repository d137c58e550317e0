"""Tests for the primal-dual ledger's bookkeeping."""

import numpy as np
import pytest

from repro.core.alg_continuous import AlgContinuous
from repro.core.cost_functions import MonomialCost
from repro.core.ledger import PrimalDualLedger
from repro.sim.engine import simulate
from repro.sim.trace import single_user_trace


class TestRecording:
    def test_request_intervals(self):
        led = PrimalDualLedger(num_pages=3, num_users=1, T=10)
        assert led.record_request(0, 0) == 1
        assert led.record_request(0, 3) == 2
        assert led.record_request(1, 4) == 1
        assert led.current_interval(0) == 2
        assert led.request_count(0) == 2
        assert led.request_count(2) == 0

    def test_current_interval_unknown_page(self):
        led = PrimalDualLedger(num_pages=1, num_users=1, T=5)
        with pytest.raises(KeyError):
            led.current_interval(0)

    def test_eviction_sets_x_once(self):
        led = PrimalDualLedger(num_pages=2, num_users=1, T=10)
        led.record_request(0, 0)
        led.record_eviction(0, 0, 2)
        assert led.x[(0, 1)] == 1
        assert led.set_time[(0, 1)] == 2
        with pytest.raises(ValueError):
            led.record_eviction(0, 0, 3)

    def test_y_monotone(self):
        led = PrimalDualLedger(num_pages=1, num_users=1, T=5)
        led.record_y_jump(2, 1.5)
        assert led.y[2] == 1.5
        with pytest.raises(ValueError):
            led.record_y_jump(2, -0.1)

    def test_z_accumulates(self):
        led = PrimalDualLedger(num_pages=1, num_users=1, T=5)
        led.record_z_increase(0, 1, 1.0)
        led.record_z_increase(0, 1, 0.5)
        assert led.z[(0, 1)] == 1.5
        with pytest.raises(ValueError):
            led.record_z_increase(0, 1, -1.0)


class TestIntervalQueries:
    def test_interval_bounds(self):
        led = PrimalDualLedger(num_pages=1, num_users=1, T=10)
        led.record_request(0, 1)
        led.record_request(0, 5)
        assert led.interval_bounds(0, 1) == (1, 5)
        assert led.interval_bounds(0, 2) == (5, 10)  # open-ended last
        with pytest.raises(IndexError):
            led.interval_bounds(0, 3)

    def test_y_sum_over_interval_strict_interior(self):
        led = PrimalDualLedger(num_pages=1, num_users=1, T=10)
        led.record_request(0, 1)
        led.record_request(0, 5)
        led.record_y_jump(1, 10.0)  # at t(p,1): excluded
        led.record_y_jump(3, 2.0)  # interior: included
        led.record_y_jump(5, 7.0)  # at t(p,2): excluded from interval 1
        assert led.y_sum_over_interval(0, 1) == 2.0
        assert led.y_sum_over_interval(0, 2) == 0.0

    def test_miss_curve_and_counts(self):
        led = PrimalDualLedger(num_pages=2, num_users=2, T=6)
        led.record_request(0, 0)
        led.record_request(1, 1)
        led.record_eviction(0, 0, 2)
        led.record_eviction(1, 1, 4)
        curve = led.miss_curve()
        assert curve.shape == (7, 2)
        assert curve[3, 0] == 1 and curve[2, 0] == 0
        assert led.evictions_of_user(0) == 1
        assert led.evictions_of_user(0, up_to=1) == 0
        assert led.total_evictions_by_user().tolist() == [1, 1]

    def test_objective_value(self):
        led = PrimalDualLedger(num_pages=2, num_users=1, T=4)
        led.record_request(0, 0)
        led.record_eviction(0, 0, 1)
        assert led.objective_value([MonomialCost(2)]) == 1.0

    def test_x_pairs_sorted_by_set_time(self):
        led = PrimalDualLedger(num_pages=3, num_users=1, T=9)
        for p, t_req, t_ev in [(0, 0, 5), (1, 1, 2), (2, 3, 4)]:
            led.record_request(p, t_req)
            led.record_eviction(p, 0, t_ev)
        assert led.x_pairs() == [(1, 1), (2, 1), (0, 1)]


class TestLedgerFromRun:
    def test_ledger_matches_engine(self, rng):
        t = single_user_trace(rng.integers(0, 8, 200).tolist())
        alg = AlgContinuous()
        r = simulate(t, alg, 3, costs=[MonomialCost(2)], record_events=True)
        led = alg.ledger
        # Evictions recorded 1:1 with engine events.
        assert len(led.eviction_events) == len(r.events)
        assert [(ev.t, ev.victim) for ev in r.events] == [
            (et, ep) for (et, ep, _u) in led.eviction_events
        ]
        # Requests recorded 1:1 with the trace.
        assert sum(led.request_count(p) for p in led.request_times) == t.length
        # Evictions per user equal engine misses minus final residents.
        assert led.total_evictions_by_user()[0] == r.misses - len(r.final_cache)


class TestLockstepZ:
    """z of an interval outside the cache rises with every later y jump
    until it is settled, kept as a running sum."""

    def test_accrue_settle_and_fold(self):
        led = PrimalDualLedger(num_pages=3, num_users=1, T=10)
        for page in (0, 1, 2):
            led.record_request(page, page)
        led.record_y_jump(3, 1.0)  # before anything is outside: no z
        led.accrue_z(0)
        led.record_y_jump(4, 2.0)
        led.accrue_z(1)
        led.record_y_jump(5, 0.5)
        assert led.z == {(0, 1): 2.5, (1, 1): 0.5}  # open intervals folded
        led.z[(2, 1)] = 7.0  # the read dict stays editable
        led.settle_z(0)  # the jump serves page 0: settled first
        led.record_y_jump(6, 4.0)
        led.record_request(0, 6)
        led.record_y_jump(7, 8.0)
        assert led.z == {(0, 1): 2.5, (1, 1): 12.5, (2, 1): 7.0}
        led.settle_z(1)
        led.record_y_jump(8, 16.0)
        assert led.z[(1, 1)] == 12.5
        assert led.y.tolist()[3:9] == [1.0, 2.0, 0.5, 4.0, 8.0, 16.0]

    def test_running_sum_keeps_small_z_after_large_y(self):
        led = PrimalDualLedger(num_pages=1, num_users=1, T=3000)
        led.record_request(0, 0)
        for t in range(1, 2000):
            led.record_y_jump(t, 1e6 + 0.1)
        led.accrue_z(0)
        for t in range(2000, 2010):
            led.record_y_jump(t, 1e-7)
        assert led.z[(0, 1)] == pytest.approx(1e-6, rel=1e-9)

    @pytest.mark.parametrize("family", ["monomial", "sla"])
    def test_matches_per_page_raise(self, family):
        """ALG-CONT's z equals the per-page raise of every page outside
        the cache but p_t on every jump (the definition, computed
        incrementally alongside the run)."""
        from repro.core.cost_functions import PiecewiseLinearCost
        from repro.workloads.builders import random_multi_tenant_trace

        trace = random_multi_tenant_trace(5, 352, 6_000, skew=0.8, seed=3)
        if family == "monomial":
            costs = [MonomialCost(2)] * trace.num_users
        else:
            costs = [
                PiecewiseLinearCost.sla(a, s)
                for a, s in ((13, 0.37), (29, 1.13), (7, 2.71), (41, 0.59), (3, 0.3))
            ]

        class PerPageZ(AlgContinuous):
            def reset(self, ctx):
                super().reset(ctx)
                self.ref_z = {}
                self.outside = set()

            def on_insert(self, page, t):
                self.outside.discard(page)
                super().on_insert(page, t)

            def on_evict(self, page, t):
                delta = self.budget_of(page)
                for p in self.outside:
                    if delta and p != self._pending_request:
                        key = (p, self.ledger.current_interval(p))
                        self.ref_z[key] = self.ref_z.get(key, 0.0) + delta
                super().on_evict(page, t)
                self.outside.add(page)

        alg = PerPageZ()
        simulate(trace, alg, 300, costs=costs)
        z = alg.ledger.z
        assert set(z) == set(alg.ref_z) and len(z) > 1000
        for key, want in alg.ref_z.items():
            assert abs(z[key] - want) <= 1e-9 * max(1.0, abs(want)), key
