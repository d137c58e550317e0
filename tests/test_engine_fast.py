"""Fast-engine equivalence: the vectorized hit-run engine must be
bit-identical to the reference loop for every registered policy.

This is the property the whole fast path rests on: residency only
changes on misses, so hits between misses can be found by scanning a
constant residency array and delivered to the policy as one batch.
Every ``on_hit_batch`` override must be observably identical to the
per-request loop — these tests compare complete ``SimResult``s
(including the event log and miss curve) across engines on randomized
and adversarial traces.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.core.cost_functions import MonomialCost
from repro.policies import POLICY_REGISTRY
from repro.sim import GridRun, simulate, simulate_many
from repro.sim.engine import ENGINES
from repro.sim.policy import EvictionPolicy
from repro.sim.trace import Trace
from repro.workloads.builders import (
    adversarial_cycle_trace,
    random_multi_tenant_trace,
    zipf_trace,
)


def make_policy(factory, seed: int = 7) -> EvictionPolicy:
    """Instantiate; seed stochastic policies so both engines see the
    same random stream."""
    try:
        params = inspect.signature(factory).parameters
    except (TypeError, ValueError):
        params = {}
    if "rng" in params:
        return factory(rng=seed)
    return factory()


def result_fingerprint(r):
    """Everything SimResult records, as a comparable tuple."""
    return (
        r.hits,
        r.misses,
        tuple(r.user_misses.tolist()),
        tuple(r.final_cache),
        None if r.events is None else tuple(r.events),
        None if r.miss_curve is None else tuple(r.miss_curve.tolist()),
    )


TRACES = {
    # Mixed hit/miss zipf: runs mostly shorter than the walk limit.
    "zipf-mixed": lambda: zipf_trace(400, 5000, skew=0.9, seed=11),
    # Hit-heavy zipf: long runs exercising the vectorized chunk scan.
    "zipf-hot": lambda: zipf_trace(400, 5000, skew=1.6, seed=12),
    # Multi-tenant random: uneven per-user request mixes.
    "multi-tenant": lambda: random_multi_tenant_trace(4, 90, 5000, seed=13),
    # Cycle one page beyond every tested k: misses nearly every request.
    "adversarial": lambda: adversarial_cycle_trace(70, 5000),
}


@pytest.mark.parametrize("policy_name", sorted(POLICY_REGISTRY))
@pytest.mark.parametrize("trace_name", sorted(TRACES))
def test_fast_matches_reference(policy_name, trace_name):
    trace = TRACES[trace_name]()
    costs = [MonomialCost(2)] * trace.num_users
    for k in (8, 64, 300):
        fingerprints = {}
        for engine in ("reference", "fast"):
            policy = make_policy(POLICY_REGISTRY[policy_name])
            result = simulate(
                trace,
                policy,
                k,
                costs=costs,
                record_events=True,
                record_curve=True,
                engine=engine,
            )
            fingerprints[engine] = result_fingerprint(result)
        assert fingerprints["fast"] == fingerprints["reference"], (
            f"{policy_name} diverged on {trace_name} at k={k}"
        )


def test_auto_is_fast_equivalent(tiny_trace, monomial_costs):
    by_engine = {
        engine: simulate(
            tiny_trace,
            make_policy(POLICY_REGISTRY["lru"]),
            3,
            costs=monomial_costs,
            record_events=True,
            engine=engine,
        )
        for engine in ENGINES
    }
    assert result_fingerprint(by_engine["auto"]) == result_fingerprint(
        by_engine["reference"]
    )
    assert result_fingerprint(by_engine["fast"]) == result_fingerprint(
        by_engine["reference"]
    )


def test_unknown_engine_rejected(tiny_trace):
    with pytest.raises(ValueError, match="engine"):
        simulate(tiny_trace, make_policy(POLICY_REGISTRY["lru"]), 3, engine="warp")


class TestBatchProtocol:
    """The on_hit_batch contract itself."""

    def test_default_batch_loops_on_hit(self):
        seen = []

        class Recorder(EvictionPolicy):
            name = "recorder"

            def reset(self, ctx):
                pass

            def on_hit(self, page, t):
                seen.append((page, t))

            def choose_victim(self, page, t):
                raise AssertionError("no evictions expected")

        # Gapped times, as a shard's subsequence of the global clock.
        Recorder().on_hit_batch([4, 5, 4], [10, 13, 20])
        assert seen == [(4, 10), (5, 13), (4, 20)]

    def test_ignores_hits_policies_really_ignore_them(self):
        # The engine skips callbacks for these; the flag must be honest.
        trace = zipf_trace(100, 2000, skew=1.2, seed=3)
        for name, factory in POLICY_REGISTRY.items():
            policy = make_policy(factory)
            if not policy.ignores_hits:
                continue
            loud = make_policy(factory)
            baseline = simulate(trace, policy, 32, engine="reference")
            # Deliver hits through the default loop anyway: same result.
            type(loud).ignores_hits = False
            try:
                noisy = simulate(trace, loud, 32, engine="fast")
            finally:
                type(loud).ignores_hits = True
            assert result_fingerprint(noisy) == result_fingerprint(baseline), name


class TestSimulateMany:
    def _traces(self):
        return [
            zipf_trace(150, 2000, skew=1.1, seed=21),
            adversarial_cycle_trace(40, 2000),
        ]

    @staticmethod
    def _costs(trace: Trace):
        return [MonomialCost(2)] * trace.num_users

    def test_grid_order_and_seeds(self):
        runs = simulate_many(
            ["lru", "fifo"], [16, 64], self._traces(), costs=self._costs, base_seed=9
        )
        assert [(r.policy, r.k, r.trace_index) for r in runs] == [
            ("lru", 16, 0),
            ("lru", 16, 1),
            ("lru", 64, 0),
            ("lru", 64, 1),
            ("fifo", 16, 0),
            ("fifo", 16, 1),
            ("fifo", 64, 0),
            ("fifo", 64, 1),
        ]
        assert len({r.seed for r in runs}) == len(runs)
        assert all(isinstance(r, GridRun) and r.elapsed >= 0.0 for r in runs)

    def test_matches_direct_simulate(self):
        traces = self._traces()
        runs = simulate_many(["lru"], [16], traces, costs=self._costs)
        for run in runs:
            trace = traces[run.trace_index]
            direct = simulate(
                trace, make_policy(POLICY_REGISTRY["lru"]), 16, costs=self._costs(trace)
            )
            assert run.result.misses == direct.misses
            assert run.result.final_cache == direct.final_cache

    def test_parallel_matches_serial(self):
        kwargs = dict(costs=self._costs, base_seed=5, engine="fast")
        serial = simulate_many(["lru", "random"], [32], self._traces(), **kwargs)
        parallel = simulate_many(
            ["lru", "random"], [32], self._traces(), workers=2, **kwargs
        )
        for a, b in zip(serial, parallel):
            assert (a.policy, a.k, a.trace_index, a.seed) == (
                b.policy,
                b.k,
                b.trace_index,
                b.seed,
            )
            assert result_fingerprint(a.result) == result_fingerprint(b.result)

    def test_stochastic_policies_get_cell_seeds(self):
        # Same base seed -> same results; different -> (generically)
        # different random evictions.
        once = simulate_many(["random"], [8], self._traces()[:1], base_seed=1)
        again = simulate_many(["random"], [8], self._traces()[:1], base_seed=1)
        other = simulate_many(["random"], [8], self._traces()[:1], base_seed=2)
        assert once[0].result.final_cache == again[0].result.final_cache
        assert once[0].seed != other[0].seed

    def test_factory_specs_and_errors(self):
        from repro.policies import LRUPolicy

        runs = simulate_many([LRUPolicy], [16], self._traces()[:1])
        assert runs[0].policy == "lru"
        with pytest.raises(KeyError, match="unknown policy"):
            simulate_many(["nope"], [16], self._traces()[:1])
        with pytest.raises(ValueError):
            simulate_many([], [16], self._traces()[:1])
        with pytest.raises(ValueError):
            simulate_many(["lru"], [], self._traces()[:1])
        with pytest.raises(ValueError):
            simulate_many(["lru"], [16], [])


class TestEventStreamEquivalence:
    """Decision-stream equivalence with ``record_events=True`` and with a
    flight recorder attached: both engines must emit identical
    ``EvictionEvent`` sequences AND identical per-request flight tuples
    (time, page, tenant, hit flag, victim, budget fields) for every
    registered policy."""

    TRACE = staticmethod(lambda: zipf_trace(300, 4000, skew=1.1, seed=31))

    @pytest.mark.parametrize("policy_name", sorted(POLICY_REGISTRY))
    def test_eviction_events_identical(self, policy_name):
        trace = self.TRACE()
        costs = [MonomialCost(2)] * trace.num_users
        events = {}
        for engine in ("reference", "fast"):
            result = simulate(
                trace,
                make_policy(POLICY_REGISTRY[policy_name]),
                24,
                costs=costs,
                record_events=True,
                engine=engine,
            )
            assert result.events is not None
            events[engine] = result.events
        assert events["fast"] == events["reference"], policy_name
        # The log is also *feasible*: replaying it reproduces the counts.
        from repro.sim.engine import replay_evictions

        replayed = replay_evictions(trace, 24, events["fast"])
        assert replayed.sum() == simulate(
            trace, make_policy(POLICY_REGISTRY[policy_name]), 24, costs=costs
        ).misses

    @pytest.mark.parametrize("policy_name", sorted(POLICY_REGISTRY))
    def test_flight_streams_identical(self, policy_name):
        from repro.obs.flight import FlightRecorder

        trace = self.TRACE()
        costs = [MonomialCost(2)] * trace.num_users
        rings = {}
        for engine in ("reference", "fast"):
            fl = FlightRecorder(capacity=trace.length)
            simulate(
                trace,
                make_policy(POLICY_REGISTRY[policy_name]),
                24,
                costs=costs,
                engine=engine,
                flight=fl,
            )
            # One event per request, dense times.
            assert len(fl) == trace.length
            assert [tup[0] for tup in fl.ring] == list(range(trace.length))
            rings[engine] = list(fl.ring)
        assert rings["fast"] == rings["reference"], policy_name


def test_long_run_chunk_escalation():
    # One long all-hit tail: forces the doubling numpy chunk path.
    requests = np.concatenate(
        [np.arange(8), np.zeros(60_000, dtype=np.int64)]
    )
    trace = Trace(requests, np.zeros(8, dtype=np.int64), name="tail")
    fast = simulate(trace, make_policy(POLICY_REGISTRY["lru"]), 8, engine="fast")
    ref = simulate(trace, make_policy(POLICY_REGISTRY["lru"]), 8, engine="reference")
    assert result_fingerprint(fast) == result_fingerprint(ref)
    assert fast.hits == 60_000
