"""The kernel every path applies requests through
(:class:`repro.sim.engine.CacheState`), checked on generated cases.

* **Hit delivery with gapped times.**  A shard or a network node sees a
  subsequence of the global clock, so a hit run reaches
  ``on_hit_batch(pages, ts)`` with strictly increasing times that need
  not be consecutive.  For every registered policy, delivering runs
  that way must leave the same victims and introspection as one
  ``on_hit(page, t)`` per hit.
* **Routed batches against the reference engine.**  One process owns
  some of the ``S`` shards and serves its share of a trace in arbitrary
  batch splits — single requests up to batches beyond the scanner's
  largest chunk — through :class:`~repro.serve.shard.ShardGroup`, with
  or without a flight recorder and monitor cuts.
  Per-request flags, victims, ledger counters, final residency and
  flight events must equal ``simulate(engine="reference")`` run on
  each owned shard's subsequence.
* **Merged flight windows.**  An S=4 window recorded by one process, or
  by two processes owning alternate shards and merged by time, replays
  clean under :func:`~repro.obs.flight.verify_flight`.
"""

from __future__ import annotations

import heapq
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cost_functions import MonomialCost
from repro.obs.flight import FlightRecorder, verify_flight
from repro.obs.monitor import InvariantMonitor
from repro.policies import POLICY_REGISTRY
from repro.serve.accounting import CostLedger
from repro.serve.shard import (
    ShardGroup,
    ShardManager,
    hit_flags,
    make_policy_instance,
    shard_slots,
    shard_table,
)
from repro.sim import simulate
from repro.sim.engine import _CHUNK_CAP, CacheState
from repro.sim.policy import SimContext
from repro.sim.trace import Trace
from repro.workloads.builders import random_multi_tenant_trace

#: Public introspection compared page by page on the resident set.
INTROSPECTION = ("budget_of",)


def _introspect(policy, pages):
    seen = {
        name: [getattr(policy, name)(p) for p in pages]
        for name in INTROSPECTION
        if callable(getattr(policy, name, None))
    }
    # LRU-K's reference times: a hit run delivered with the wrong times
    # can leave the same victims on a short tail but not the same history.
    history = getattr(policy, "_history", None)
    if history is not None:
        seen["_history"] = {p: list(h) for p, h in history.items()}
    return seen


# ----------------------------------------------------------------------
# Hit delivery with gapped times
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy_name", sorted(POLICY_REGISTRY))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_gapped_hit_runs_match_per_hit_delivery(policy_name, data):
    num_users = data.draw(st.integers(1, 3), label="tenants")
    per_user = data.draw(st.integers(1, 8), label="pages/tenant")
    owners = np.repeat(np.arange(num_users, dtype=np.int64), per_user)
    num_pages = int(owners.size)
    requests = data.draw(
        st.lists(st.integers(0, num_pages - 1), min_size=1, max_size=200),
        label="requests",
    )
    # A miss-heavy tail over every page, twice, reveals the eviction
    # order the run left behind.
    requests += list(range(num_pages)) * 2
    gaps = data.draw(
        st.lists(st.integers(1, 4), min_size=len(requests), max_size=len(requests)),
        label="gaps",
    )
    ts = np.cumsum(gaps).tolist()
    k = data.draw(st.integers(1, num_pages), label="k")
    splits = data.draw(
        st.lists(st.integers(1, 40), min_size=1, max_size=8), label="batches"
    )
    # The global trace the subsequence is cut from: offline policies
    # read its future at the subsequence's own times.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="filler"))
    whole = rng.integers(0, num_pages, ts[-1] + 1)
    whole[ts] = requests
    costs = [MonomialCost(1.0 + 0.5 * u) for u in range(num_users)]

    states = []
    for batched in (False, True):
        policy = make_policy_instance(POLICY_REGISTRY[policy_name], 11)
        policy.reset(
            SimContext(
                k=k, owners=owners, num_users=num_users, costs=costs,
                trace=Trace(whole, owners) if policy.requires_future else None,
                num_pages=num_pages, horizon=int(whole.size),
            )
        )
        state = CacheState(policy, k, num_pages)
        state.events = []
        states.append((batched, state))

    def deliver(run):
        # Hit runs are cut at misses and at the drawn batch ends.
        if not run:
            return
        for batched, state in states:
            if batched:
                state.policy.on_hit_batch([p for p, _ in run], [t for _, t in run])
            else:
                for page, t in run:
                    state.policy.on_hit(page, t)

    run = []
    ends = set(np.cumsum(splits * len(requests)).tolist())
    for i, (page, t) in enumerate(zip(requests, ts)):
        if states[0][1].res[page]:
            run.append((page, t))
        else:
            deliver(run)
            run = []
            for _, state in states:
                state.admit(page, t)
        if i + 1 in ends:
            deliver(run)
            run = []
    deliver(run)
    (_, a), (_, b) = states
    assert a.events == b.events
    assert a.resident() == b.resident()
    assert _introspect(a.policy, a.resident()) == _introspect(b.policy, b.resident())


# ----------------------------------------------------------------------
# Routed batches against the reference engine
# ----------------------------------------------------------------------
_batch_sizes = st.integers(1, 64) | st.integers(_CHUNK_CAP - 4, _CHUNK_CAP + 700)


@settings(
    max_examples=100, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_routed_batches_match_reference_per_shard(data):
    policy_name = data.draw(st.sampled_from(sorted(POLICY_REGISTRY)), label="policy")
    factory = POLICY_REGISTRY[policy_name]
    offline = factory().requires_future
    # Drawn largest first, so the grouped multi-shard path is the common case.
    num_shards = 1 if offline else data.draw(st.sampled_from([4, 3, 2, 1]), label="S")
    owned = data.draw(st.permutations(range(num_shards)), label="shard order")
    owned = owned[: data.draw(st.sampled_from(range(num_shards, 0, -1)), label="owned")]
    num_users = data.draw(st.integers(1, 4), label="tenants")
    per_user = data.draw(st.integers(1, 30), label="pages/tenant")
    # Short mixed traces, or one long enough for a batch beyond the
    # scanner's largest chunk (hot, so its hit runs reach the cap).
    long = data.draw(st.booleans(), label="long")
    length = (
        data.draw(st.integers(2 * _CHUNK_CAP, 2 * _CHUNK_CAP + 3000), label="length")
        if long
        else data.draw(st.integers(1, 500), label="length")
    )
    trace = random_multi_tenant_trace(
        num_users, per_user, length,
        skew=3.0 if long else data.draw(st.sampled_from([0.0, 0.9, 1.6])),
        seed=data.draw(st.integers(0, 2**16), label="trace seed"),
    )
    owners = trace.owners
    num_pages = trace.num_pages
    k = data.draw(st.integers(num_shards, max(num_shards, num_pages + 2)), label="k")
    flight = data.draw(st.booleans(), label="flight")
    every = data.draw(
        st.sampled_from([0, 1000] if long else [0, 1, 7, 100]), label="monitor every"
    )
    splits = data.draw(st.lists(_batch_sizes, min_size=1, max_size=6), label="batches")
    costs = [MonomialCost(2)] * num_users
    seed = 5

    shard_of = shard_table(num_pages, num_shards)[trace.requests]
    mine = np.flatnonzero(np.isin(shard_of, owned))
    pages = trace.requests[mine].astype(np.int64)
    mgr = ShardManager(
        policy_name, num_shards, k, owners, costs, policy_seed=seed,
        trace=trace if offline else None, horizon=trace.length,
        shard_ids=owned,
    )
    group = ShardGroup(
        mgr, CostLedger(mgr.num_users, costs),
        InvariantMonitor(costs) if every else None, every,
    )
    recorder = FlightRecorder(capacity=max(1, pages.size)) if flight else None
    for shard in mgr.shards:
        shard.events = []
        if recorder is not None:
            shard.attach_flight(recorder)
    got_flags = []
    lo, i = 0, 0
    while lo < pages.size:
        hi = min(lo + splits[i % len(splits)], pages.size)
        # The paths hand the group lists (one process) or arrays (a
        # worker's frame).
        if i % 2:
            out = group.apply(pages[lo:hi], mine[lo:hi])
        else:
            out = group.apply(pages[lo:hi].tolist(), mine[lo:hi].tolist())
        assert all(isinstance(j, int) for j in out)
        got_flags += hit_flags(hi - lo, out)
        lo, i = hi, i + 1

    want_flags = np.zeros(pages.size, dtype=bool)
    want_events = []
    user_misses = np.zeros(mgr.num_users, dtype=np.int64)
    slots = shard_slots(k, num_shards)
    for shard in mgr.shards:
        sid = shard.shard_id
        idx = np.flatnonzero(shard_of[mine] == sid)
        fl = FlightRecorder(capacity=max(1, idx.size)) if flight else None
        ref = simulate(
            Trace(pages[idx], owners),
            make_policy_instance(factory, seed + sid),
            slots[sid], costs, record_events=True, record_curve=True,
            engine="reference", flight=fl,
        )
        # Reference times are the subsequence's own; the kernel's are
        # the global clock.
        glob = mine[idx].tolist()
        want_flags[idx] = np.diff(ref.miss_curve.sum(axis=1)) == 0
        assert [(e.t, e.requested, e.victim) for e in shard.events] == [
            (glob[e.t], e.requested, e.victim) for e in ref.events
        ]
        assert all(
            type(x) is int for e in shard.events for x in (e.t, e.requested, e.victim)
        )
        assert shard.resident() == ref.final_cache
        user_misses += ref.user_misses
        if flight:
            want_events += [(glob[ev[0]], *ev[1:-1], sid) if len(ev) == 3
                            else (glob[ev[0]], *ev[1:4], sid, *ev[5:])
                            for ev in fl.ring]
    assert got_flags == want_flags.tolist()
    ledger = group.ledger
    assert ledger.misses_by_user().tolist() == user_misses.tolist()
    requests_by_user = np.bincount(owners[pages], minlength=mgr.num_users)
    assert ledger.hits_by_user().tolist() == (requests_by_user - user_misses).tolist()
    assert ledger.total_requests == pages.size
    if flight:
        assert list(recorder.ring) == sorted(want_events, key=lambda ev: ev[0])
        assert all(type(ev[0]) is int and type(ev[1]) is int for ev in recorder.ring)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("policy_name", ["lru", "alg-discrete", "random"])
def test_sharded_flight_window_replays_clean(policy_name, workers):
    """An S=4 window: at W=2 each process records its own shards' ring
    and the merge by time is the dense window one process records."""
    trace = random_multi_tenant_trace(4, 60, 3000, skew=0.9, seed=2)
    costs = [MonomialCost(2)] * trace.num_users
    rings = []
    for w in range(workers):
        owned = [sid for sid in range(4) if sid % workers == w]
        mgr = ShardManager(
            policy_name, 4, 32, trace.owners, costs, policy_seed=3,
            shard_ids=owned,
        )
        group = ShardGroup(mgr, CostLedger(mgr.num_users, costs))
        recorder = FlightRecorder(capacity=trace.length)
        for shard in mgr.shards:
            shard.attach_flight(recorder, group.owners_list)
        mine = np.flatnonzero(np.isin(shard_table(trace.num_pages, 4)[trace.requests], owned))
        for lo in range(0, mine.size, 97):
            pos = mine[lo : lo + 97]
            group.apply(trace.requests[pos].astype(np.int64), pos)
        rings.append(list(recorder.ring))
    merged = FlightRecorder(capacity=trace.length)
    merged.ring.extend(heapq.merge(*rings, key=lambda ev: ev[0]))
    merged.note_config(policy=policy_name, k=32, num_shards=4, policy_seed=3)
    check = verify_flight(merged, trace.owners, costs=costs)
    assert check.ok and check.events == trace.length, check.summary()
