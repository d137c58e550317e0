#!/usr/bin/env python3
"""Postmortem workflow: flight recorder + replay verifier end to end.

Runs an ALG-DISCRETE serving loop with an invariant monitor and a
flight recorder attached, then *corrupts the live budget state*
mid-run — the kind of silent state damage (a bad patch, a race, bit
rot) that counters alone cannot localize.  The walkthrough shows:

1. the monitor catching the drift at its next sample (budget-nonneg);
2. the automatic flight-recorder JSONL dump triggered by the new flag;
3. :func:`repro.obs.flight.verify_flight` replaying the dumped window
   against a fresh policy instance and pinpointing the first decision
   where the corrupted run left the true trajectory — right at the
   injected eviction, not merely "somewhere before the alarm".

Run:  python examples/flight_postmortem.py
"""

import tempfile
from pathlib import Path

from repro.core.cost_functions import MonomialCost
from repro.obs import InvariantMonitor
from repro.obs.flight import FlightRecorder, load_flight, verify_flight
from repro.serve.shard import ShardManager
from repro.workloads.builders import random_multi_tenant_trace

K = 32
SEED = 5
INJECT_AT = 1500  # request index where the corruption lands


def main():
    trace = random_multi_tenant_trace(4, 80, 3000, seed=11)
    costs = [MonomialCost(2.0)] * trace.num_users
    dump_path = str(Path(tempfile.mkdtemp(prefix="flight-")) / "flight.jsonl")

    monitor = InvariantMonitor(costs)
    flight = FlightRecorder(capacity=trace.length, dump_path=dump_path)
    flight.note_config(
        policy="alg-discrete", k=K, num_shards=1, policy_seed=SEED,
        source="examples/flight_postmortem",
    )

    # One serve shard, driven stepwise so we can reach into live state.
    mgr = ShardManager(
        "alg-discrete", 1, K, trace.owners, costs,
        policy_seed=SEED, horizon=trace.length,
    )
    shard = mgr.shards[0]
    policy = shard.policy
    shard.attach_flight(flight)

    owners = trace.owners.tolist()
    misses = [0] * trace.num_users
    flagged_at = None
    dumped_at = None
    flags_seen = 0
    for t, page in enumerate(trace.requests.tolist()):
        if t == INJECT_AT:
            # The injected fault: every resident page silently loses
            # 1e9 of dual budget (e.g. a botched rebalance).
            policy._y += 1e9
            print(f"[t={t}] >>> injected budget corruption <<<")
        # Sample BEFORE serving: ALG-DISCRETE's eviction step
        # re-normalizes all budgets, so the first post-injection
        # eviction would erase the damage the monitor is there to see.
        if t and (t % 250 == 0 or t == INJECT_AT):
            monitor.sample(t, misses, policies=(policy,))
            if len(monitor.flags) > flags_seen:
                flags_seen = len(monitor.flags)
                if flagged_at is None:
                    flagged_at = t
                    print(f"[t={t}] monitor fired: {monitor.flags[0]}")
            # Dump at the first sample past the alarm, once the
            # post-corruption decisions are in the ring.
            if flagged_at is not None and dumped_at is None and t > flagged_at:
                flight.dump_jsonl(reason="invariant-drift")
                dumped_at = t
                print(f"[t={t}] auto-dump -> {dump_path}")
        hit, _victim, _shard = mgr.serve(page, t)
        if not hit:
            misses[owners[page]] += 1

    assert flagged_at is not None, "monitor never fired"
    assert dumped_at is not None
    print(f"\nmonitor summary: {monitor.summary()}")

    # --- The postmortem, from the dump alone --------------------------
    dump = load_flight(dump_path)
    print(
        f"loaded dump: {len(dump.events)} events, "
        f"reason={dump.meta['reason']!r}, policy={dump.meta['policy']!r}"
    )
    check = verify_flight(dump, trace.owners, costs=costs, trace=trace)
    print(f"replay: {check.summary()}")

    assert not check.ok, "replay should diverge on a corrupted run"
    first = check.first_divergence
    print(
        f"first divergence at t={first.t}: field {first.field!r} "
        f"recorded={first.recorded!r} replayed={first.replayed!r}"
    )
    # The verifier localizes the damage to the corruption point: the
    # first divergent *decision* is the first eviction after INJECT_AT,
    # far from wherever the alarm happened to fire.
    assert first.t >= INJECT_AT, (first.t, INJECT_AT)
    print(
        f"\ndamage localized: corruption injected at t={INJECT_AT}, "
        f"first divergent decision at t={first.t}, "
        f"monitor alarm at t={flagged_at}"
    )

    # A clean prefix really is clean: replaying only the pre-injection
    # window verifies bit-identical.
    from repro.obs.flight import replay_verify

    prefix = [e for e in dump.events if e.t < INJECT_AT]
    prefix_check = replay_verify(
        prefix, "alg-discrete", K, trace.owners, costs=costs,
        policy_seed=SEED, trace=trace,
    )
    print(f"pre-injection prefix: {prefix_check.summary()}")
    assert prefix_check.ok
    print("\npostmortem complete: drift caught, dumped, and localized.")


if __name__ == "__main__":
    main()
