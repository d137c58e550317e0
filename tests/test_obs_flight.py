"""Flight recorder + deterministic replay verifier.

The load-bearing property: a recorded decision window replays
bit-identically against a *fresh* policy instance for every registered
policy — through the sim engine (both engines, see also
``tests/test_engine_fast.py``) and through the sharded serve path —
and a corrupted or nondeterministic run produces a pinpointed diff,
not silence.
"""

from __future__ import annotations

import asyncio
from dataclasses import replace

import numpy as np
import pytest

from repro.core.cost_functions import MonomialCost
from repro.obs import InvariantMonitor, Observability
from repro.obs.flight import (
    DecisionEvent,
    EVENT_FIELDS,
    FlightRecorder,
    has_budget_probe,
    load_flight,
    replay_verify,
    verify_flight,
)
from repro.policies import POLICY_REGISTRY
from repro.serve.server import CacheServer
from repro.serve.shard import ShardManager, make_policy_instance
from repro.sim import simulate
from repro.workloads.builders import random_multi_tenant_trace, zipf_trace

SEED = 7


def _trace():
    return random_multi_tenant_trace(4, 60, 3000, seed=17)


def _costs(trace):
    return [MonomialCost(2)] * trace.num_users


def run(coro):
    return asyncio.run(coro)


class TestRing:
    def test_capacity_bound_and_dropped(self):
        fl = FlightRecorder(capacity=4)
        for t in range(10):
            fl.record(t, page=t, tenant=0, hit=True)
        assert len(fl) == 4
        assert fl.dropped == 6  # dense times: oldest retained t IS the drop count
        assert fl.recorded == 10
        assert [e.t for e in fl.events()] == [6, 7, 8, 9]

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            FlightRecorder(capacity=0)

    def test_note_config_skips_none(self):
        fl = FlightRecorder()
        fl.note_config(policy="lru", k=8, policy_seed=None)
        assert fl.meta == {"policy": "lru", "k": 8}

    def test_clear(self):
        fl = FlightRecorder(capacity=8)
        fl.record(0, 1, 0, True)
        fl.clear()
        assert len(fl) == 0 and fl.dropped == 0


class TestDumpLoad:
    def test_round_trip_preserves_everything(self, tmp_path):
        trace = _trace()
        fl = FlightRecorder(capacity=trace.length)
        simulate(trace, make_policy_instance(POLICY_REGISTRY["alg-discrete"],
                                             SEED),
                 16, costs=_costs(trace), flight=fl)
        path = str(tmp_path / "flight.jsonl")
        fl.dump_jsonl(path, reason="test")
        assert fl.dumps == 1 and fl.last_dump_reason == "test"
        dump = load_flight(path)
        assert dump.meta["reason"] == "test"
        assert dump.meta["policy"] == "alg-discrete"
        assert dump.meta["events"] == trace.length
        # Bit-exact float round trip: the loaded window equals the live
        # one (compact hit entries rehydrated through the bound owners).
        assert [e.astuple() for e in dump.events] == [
            e.astuple() for e in fl.events()
        ]
        # Hits ride the ring as compact 3-tuples, misses as full tuples.
        assert {len(tup) for tup in fl.ring} == {3, len(EVENT_FIELDS)}

    def test_dump_requires_path(self):
        fl = FlightRecorder()
        fl.record(0, 1, 0, True)
        with pytest.raises(ValueError, match="dump path"):
            fl.dump_jsonl()

    def test_load_rejects_non_dump(self, tmp_path):
        path = tmp_path / "not_flight.jsonl"
        path.write_text('{"type": "span", "name": "x"}\n')
        with pytest.raises(ValueError, match="flight dump"):
            load_flight(str(path))


class TestReplayAllPolicies:
    """Acceptance bar: bit-identical replay for all 17 policies."""

    @pytest.mark.parametrize("policy_name", sorted(POLICY_REGISTRY))
    def test_sim_recording_replays_clean(self, policy_name):
        trace = _trace()
        costs = _costs(trace)
        fl = FlightRecorder(capacity=trace.length)
        simulate(
            trace,
            make_policy_instance(POLICY_REGISTRY[policy_name], SEED),
            16,
            costs=costs,
            flight=fl,
        )
        check = verify_flight(
            fl,
            trace.owners,
            costs=costs,
            policy=POLICY_REGISTRY[policy_name],
            policy_seed=SEED,
            trace=trace,
        )
        assert check.ok, f"{policy_name}: {check.summary()}"
        assert check.events == trace.length
        assert "bit-identical" in check.summary()

    def test_sharded_serve_recording_replays_clean(self, tmp_path):
        """An S=4 serve recording replays bit-identically, and so does
        its JSONL dump read back."""
        trace = _trace()
        costs = _costs(trace)
        path = str(tmp_path / "serve.jsonl")

        async def go():
            fl = FlightRecorder(capacity=trace.length, dump_path=path)
            server = CacheServer(
                "alg-discrete", 16, trace.owners, costs,
                num_shards=4, policy_seed=SEED,
                obs=Observability(flight=fl),
            )
            await server.start()
            await server.request_many(trace.requests.tolist())
            await server.stop()
            return fl

        fl = run(go())
        assert fl.meta["num_shards"] == 4
        assert fl.meta["policy_seed"] == SEED
        check = verify_flight(fl, trace.owners, costs=costs)
        assert check.ok, check.summary()
        assert fl.dumps == 0  # a clean run dumps nothing by itself
        fl.dump_jsonl(reason="check")
        dump = load_flight(path)
        assert len(dump.events) == trace.length
        check = verify_flight(dump, trace.owners, costs=costs)
        assert check.ok, check.summary()

    def test_budget_fields_recorded_for_alg_discrete(self):
        trace = _trace()
        costs = _costs(trace)
        policy = make_policy_instance(POLICY_REGISTRY["alg-discrete"], SEED)
        assert has_budget_probe(policy)
        fl = FlightRecorder(capacity=trace.length)
        simulate(trace, policy, 16, costs=costs, flight=fl)
        evictions = [e for e in fl.events() if e.victim is not None]
        assert evictions, "workload produced no evictions"
        for e in evictions:
            assert e.budget_before is not None
            assert e.budget_after is not None
            assert e.fresh_charge is not None
        # LRU exposes no budget surface: fields stay None.
        assert not has_budget_probe(
            make_policy_instance(POLICY_REGISTRY["lru"], SEED)
        )


class TestReplayDiagnostics:
    def test_empty_window_is_clean(self):
        check = replay_verify([], "lru", 8, np.zeros(4, dtype=np.int64))
        assert check.ok and check.events == 0

    def test_wrapped_ring_rejected(self):
        trace = zipf_trace(100, 500, skew=1.0, seed=5)
        fl = FlightRecorder(capacity=64)  # too small: drops the prefix
        simulate(trace, make_policy_instance(POLICY_REGISTRY["lru"], SEED),
                 16, flight=fl)
        assert fl.dropped > 0
        with pytest.raises(ValueError, match="raise capacity"):
            verify_flight(fl, trace.owners, policy="lru", k=16)

    def test_non_dense_times_rejected(self):
        events = [
            DecisionEvent(t=0, page=1, tenant=0, hit=False, shard=0),
            DecisionEvent(t=2, page=1, tenant=0, hit=True, shard=0),
        ]
        with pytest.raises(ValueError, match="dense"):
            replay_verify(events, "lru", 8, np.zeros(4, dtype=np.int64))

    def test_corruption_pinpoints_first_divergence(self):
        trace = _trace()
        fl = FlightRecorder(capacity=trace.length)
        simulate(trace, make_policy_instance(POLICY_REGISTRY["lru"], SEED),
                 16, flight=fl)
        tampered = fl.events()
        # Flip one decision mid-window: claim a miss where the true run
        # hit (or vice versa).
        idx = trace.length // 2
        ev = tampered[idx]
        tampered[idx] = replace(ev, hit=not ev.hit)
        check = replay_verify(tampered, "lru", 16, trace.owners)
        assert not check.ok
        first = check.first_divergence
        assert first is not None
        assert first.index == idx and first.t == idx
        assert first.field == "hit"
        assert "diverged" in check.summary()

    def test_max_mismatches_caps_report(self):
        trace = zipf_trace(50, 400, skew=0.8, seed=9)
        fl = FlightRecorder(capacity=trace.length)
        simulate(trace, make_policy_instance(POLICY_REGISTRY["lru"], SEED),
                 8, flight=fl)
        # Replay against a different policy: mass divergence, capped.
        check = replay_verify(list(fl.ring), "fifo", 8, trace.owners,
                              max_mismatches=3)
        assert not check.ok
        # Capped at the event boundary: at most one event's worth of
        # field mismatches past the threshold.
        assert 0 < len(check.mismatches) <= 3 + len(EVENT_FIELDS)

    def test_verify_flight_needs_policy(self):
        fl = FlightRecorder()
        fl.record(0, 1, 0, True)
        with pytest.raises(ValueError, match="policy"):
            verify_flight(fl, np.zeros(4, dtype=np.int64))


class TestServeAutoDump:
    def test_fault_drain_dumps(self, tmp_path):
        trace = _trace()
        path = str(tmp_path / "fault.jsonl")

        async def go():
            fl = FlightRecorder(capacity=trace.length, dump_path=path)
            server = CacheServer(
                "lru", 16, trace.owners, _costs(trace),
                obs=Observability(flight=fl),
            )
            await server.start()
            await server.request_many(trace.requests[:500].tolist())
            server._consumer.cancel()
            with pytest.raises(asyncio.CancelledError):
                await server._consumer
            return fl

        fl = run(go())
        assert fl.dumps == 1
        assert fl.last_dump_reason == "fault-drain"
        dump = load_flight(path)
        assert dump.meta["reason"] == "fault-drain"
        assert len(dump.events) == 500

    def test_invariant_drift_dumps(self, tmp_path):
        trace = _trace()
        costs = _costs(trace)
        path = str(tmp_path / "drift.jsonl")

        async def go():
            fl = FlightRecorder(capacity=trace.length, dump_path=path)
            monitor = InvariantMonitor(costs)
            server = CacheServer(
                "alg-discrete", 16, trace.owners, costs,
                obs=Observability(monitor=monitor, flight=fl),
                monitor_every=8,
            )
            await server.start()
            await server.request_many(trace.requests[:512].tolist())
            assert fl.dumps == 0  # clean run so far: no dump
            # Corrupt the live budget state mid-run, then serve resident
            # pages (guaranteed hits) past the next sampling point.  Hits
            # only: ALG-DISCRETE's eviction step re-normalizes all
            # budgets, which would erase the damage before the sample.
            shard = server.shards.shards[0]
            shard.policy._y += 1e9
            resident = shard.resident()[:8]
            await server.request_many(resident + resident)
            await server.stop()
            return fl, monitor

        fl, monitor = run(go())
        assert not monitor.ok
        assert fl.dumps >= 1
        assert fl.last_dump_reason == "invariant-drift"
        assert load_flight(path).meta["reason"] == "invariant-drift"

    def test_no_dump_path_no_dump(self):
        trace = _trace()

        async def go():
            fl = FlightRecorder(capacity=trace.length)  # no dump_path
            server = CacheServer(
                "lru", 16, trace.owners, _costs(trace),
                obs=Observability(flight=fl),
            )
            await server.start()
            await server.request_many(trace.requests[:100].tolist())
            server._consumer.cancel()
            with pytest.raises(asyncio.CancelledError):
                await server._consumer
            return fl

        fl = run(go())
        assert fl.dumps == 0


class TestEventSchema:
    def test_event_fields_match_dataclass(self):
        e = DecisionEvent(t=1, page=2, tenant=3, hit=False, shard=0,
                          victim=9, budget_before=1.5, budget_after=2.5,
                          fresh_charge=0.5)
        assert len(e.astuple()) == len(EVENT_FIELDS)
        assert dict(zip(EVENT_FIELDS, e.astuple()))["victim"] == 9
