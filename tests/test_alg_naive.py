"""Differential tests: naive Fig. 3 vs the optimised budget index.

Budgets here are integer-valued (monomial gradients at integers, dyadic
linear weights), so both implementations compute exact floats and any
divergence is a logic bug, not rounding.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.alg_discrete import AlgDiscrete
from repro.core.alg_discrete_naive import NaiveAlgDiscrete
from repro.core.cost_functions import LinearCost, MonomialCost, PiecewiseLinearCost
from repro.sim.engine import simulate
from repro.sim.trace import Trace, single_user_trace


#: Every gradient notion; smoothed windows are powers of two, so the
#: averaged integer-valued costs stay dyadic and exact.
MODES = [
    {"derivative_mode": "continuous"},
    {"derivative_mode": "marginal"},
    *({"derivative_mode": "smoothed", "smoothing_window": w} for w in (1, 2, 4)),
]


def assert_same_run(trace, costs, k, **mode):
    fast = simulate(trace, AlgDiscrete(**mode), k, costs=costs, record_events=True)
    slow = simulate(
        trace, NaiveAlgDiscrete(**mode), k, costs=costs, record_events=True
    )
    assert [(e.t, e.victim) for e in fast.events] == [
        (e.t, e.victim) for e in slow.events
    ]
    assert np.array_equal(fast.user_misses, slow.user_misses)


class TestDifferential:
    def test_single_user(self, rng):
        trace = single_user_trace(rng.integers(0, 10, 300).tolist())
        assert_same_run(trace, [MonomialCost(2)], 4)

    def test_multi_user_mixed_costs(self, rng):
        owners = np.repeat(np.arange(3), 3)
        trace = Trace(rng.integers(0, 9, 400), owners)
        costs = [
            MonomialCost(2),
            LinearCost(2.0),
            PiecewiseLinearCost([0.0, 4.0], [0.5, 4.0]),
        ]
        assert_same_run(trace, costs, 4)

    def test_budgets_agree_during_run(self, rng):
        """Snapshot budgets after the run and compare pagewise."""
        owners = np.repeat(np.arange(2), 4)
        trace = Trace(rng.integers(0, 8, 200), owners)
        costs = [MonomialCost(2), MonomialCost(3)]
        fast = AlgDiscrete()
        slow = NaiveAlgDiscrete()
        simulate(trace, fast, 3, costs=costs)
        simulate(trace, slow, 3, costs=costs)
        fb, sb = fast.resident_budgets(), slow.resident_budgets()
        assert set(fb) == set(sb)
        for p in fb:
            assert fb[p] == pytest.approx(sb[p], abs=1e-9)

    def test_marginal_mode(self, rng):
        owners = np.repeat(np.arange(2), 3)
        trace = Trace(rng.integers(0, 6, 250), owners)
        costs = [MonomialCost(2), MonomialCost(2)]
        fast = simulate(
            trace, AlgDiscrete(derivative_mode="marginal"), 3, costs=costs,
            record_events=True,
        )
        slow = simulate(
            trace, NaiveAlgDiscrete(derivative_mode="marginal"), 3, costs=costs,
            record_events=True,
        )
        assert [e.victim for e in fast.events] == [e.victim for e in slow.events]


@settings(max_examples=100, deadline=None)
@given(
    requests=st.lists(st.integers(0, 8), min_size=5, max_size=150),
    k=st.integers(1, 5),
    beta=st.sampled_from([1, 2, 3]),
    mode=st.sampled_from(MODES),
)
def test_differential_property(requests, k, beta, mode):
    owners = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2])
    trace = Trace(np.asarray(requests), owners)
    costs = [MonomialCost(beta) for _ in range(3)]
    assert_same_run(trace, costs, k, **mode)
