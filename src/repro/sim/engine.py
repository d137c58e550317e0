"""The multi-tenant cache simulation engine.

The engine enforces the paper's mechanics exactly: at each time ``t``
the requested page :math:`p_t` must end up resident; on a miss with a
full cache exactly one resident page is evicted.  Policies only choose
victims (see :mod:`repro.sim.policy`), so every algorithm — the paper's
and all baselines — is measured under identical rules.

Misses are counted on fetches.  The paper charges evictions instead but
notes the two are equal under its end-of-sequence cache-flush
convention; fetch-counting avoids the dummy user entirely and matches
the quantity :math:`a_i(\\sigma)` in Theorem 1.1.

Two engines share that contract:

* ``engine="reference"`` — the original per-request loop (a ``set``
  membership test and an ``on_hit`` call per request) over an in-RAM
  :class:`~repro.sim.trace.Trace`.  It is the ground truth for the
  equivalence suite.
* ``engine="fast"`` (the ``"auto"`` default) — exploits the fact that
  residency only changes on misses: between two misses the engine scans
  forward for the next non-resident request against a bool residency
  array (a Python-list walk for short runs, escalating to doubling
  vectorized chunks ``resident[pages[t:t+C]]`` once a run proves long)
  and hands the whole hit run to the policy through
  :meth:`~repro.sim.policy.EvictionPolicy.on_hit_batch`.  Policies with
  ``ignores_hits`` skip delivery entirely.  It consumes the trace
  through the ``batches()`` protocol, so the same loop runs over an
  in-RAM :class:`~repro.sim.trace.Trace` and a streaming
  :class:`~repro.sim.colstore.TraceReader`; a hit run cut by a batch
  boundary reaches the policy as two ``on_hit_batch`` calls with the
  same net effect.  Miss handling is identical to the reference loop,
  so the engines produce bit-identical :class:`SimResult`\\ s
  (enforced for every registered policy by
  ``tests/test_engine_fast.py``, and for streamed readers by
  ``tests/test_colstore.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import List, Optional, Sequence

import numpy as np

from repro.core.cost_functions import CostFunction
from repro.obs import Observability, default_observability
from repro.obs.flight import FlightRecorder, has_budget_probe, record_miss
from repro.sim.policy import EvictionPolicy, SimContext
from repro.sim.trace import Trace
from repro.util.validation import check_positive_int


@dataclass(frozen=True)
class EvictionEvent:
    """One eviction: at time *t*, *victim* was removed to admit *requested*."""

    t: int
    requested: int
    victim: int


@dataclass
class SimResult:
    """Outcome of one simulation run.

    Attributes
    ----------
    policy_name, trace_name, k:
        Identification of the run.
    hits, misses:
        Totals over the whole trace.
    user_misses:
        ``user_misses[i]`` = the paper's :math:`a_i(\\sigma)` (or
        :math:`b_i` for offline policies).
    final_cache:
        Resident pages at the end (sorted).
    events:
        Eviction log, present only when recorded.
    miss_curve:
        Shape ``(T+1, n)`` array with ``miss_curve[t, i]`` = user *i*'s
        misses among the first ``t`` requests; present only when
        recorded (the paper's :math:`m(i,t)` for the run's policy).
    """

    policy_name: str
    trace_name: str
    k: int
    hits: int
    misses: int
    user_misses: np.ndarray
    final_cache: List[int]
    events: Optional[List[EvictionEvent]] = None
    miss_curve: Optional[np.ndarray] = None

    @property
    def total_requests(self) -> int:
        return self.hits + self.misses

    @property
    def miss_ratio(self) -> float:
        total = self.total_requests
        return self.misses / total if total else 0.0

    def cost(self, costs: Sequence[CostFunction]) -> float:
        """Total cost :math:`\\sum_i f_i(a_i)` under *costs*."""
        if len(costs) < self.user_misses.size:
            raise ValueError(
                f"need {self.user_misses.size} cost functions, got {len(costs)}"
            )
        return float(
            sum(f.value(int(m)) for f, m in zip(costs, self.user_misses))
        )

    def __repr__(self) -> str:
        return (
            f"SimResult(policy={self.policy_name!r}, trace={self.trace_name!r}, "
            f"k={self.k}, misses={self.misses}/{self.total_requests})"
        )


#: Engine selector values accepted by :func:`simulate`.
ENGINES = ("auto", "fast", "reference")

#: Consecutive hits walked per run through the Python-list probe before
#: the scanner escalates to vectorized chunks (a list probe costs ~60ns,
#: a vectorized probe has ~2µs call overhead but ~2ns/element after).
_WALK_LIMIT = 32

#: First vectorized chunk size; doubles up to the cap while a run lasts.
_CHUNK_START = 256
_CHUNK_CAP = 16_384


def simulate(
    trace: Trace,
    policy: EvictionPolicy,
    k: int,
    costs: Optional[Sequence[CostFunction]] = None,
    record_events: bool = False,
    record_curve: bool = False,
    validate: bool = True,
    engine: str = "auto",
    obs: Optional["Observability"] = None,
    flight: Optional[FlightRecorder] = None,
) -> SimResult:
    """Run *policy* over *trace* with a cache of size *k*.

    Parameters
    ----------
    trace:
        The request sequence and ownership map — an in-RAM
        :class:`~repro.sim.trace.Trace` or a streaming
        :class:`~repro.sim.colstore.TraceReader` (the out-of-core
        path).  The fast engine consumes either through ``batches()``,
        so a reader's request column is never materialized and the
        results, events and miss curve are bit-identical to the in-RAM
        run (enforced by ``tests/test_colstore.py`` for every
        registered policy).  Readers cannot run the reference engine,
        which indexes ``trace.requests``, or offline
        (``requires_future``) policies, which read the whole future.
    policy:
        Any :class:`~repro.sim.policy.EvictionPolicy`.  It is ``reset``
        before the run, so instances may be reused across calls.
    k:
        Cache capacity, ``k >= 1``.
    costs:
        Per-user cost functions; required when
        ``policy.requires_costs`` and optional otherwise (they are only
        stored in the context, never used by the engine).
    record_events:
        Keep the eviction log (memory ~ number of misses).
    record_curve:
        Keep the full per-user miss curve ``(T+1, n)`` (memory ~ ``T``,
        for readers too).
    validate:
        Check the victim returned by the policy is resident and not the
        requested page.  Disable only in throughput benchmarks.
    engine:
        ``"auto"`` (= ``"fast"``, the hit-run scanning engine) or
        ``"reference"`` (the original per-request loop, kept as ground
        truth).  Both produce bit-identical results.
    obs:
        Telemetry bundle; defaults to the process-wide
        :func:`~repro.obs.default_observability`.  When both metrics
        and tracing are off (the default), the only cost is one boolean
        check per *run* — the request loop itself is never touched, so
        results and performance are unchanged.
    flight:
        Optional :class:`~repro.obs.flight.FlightRecorder` receiving
        one structured decision event per request (hit/miss, victim,
        budget before/after for budget policies); defaults to
        ``obs.flight``.  When ``None`` (the default bundle), the hot
        loops carry only one ``is None`` check per miss/hit run.

    Returns
    -------
    SimResult
    """
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    k = check_positive_int(k, "k")
    streaming = not isinstance(trace, Trace)
    if streaming:
        if not hasattr(trace, "batches"):
            raise TypeError(
                f"trace must be a Trace or a TraceReader, got {type(trace).__name__}"
            )
        if engine == "reference":
            raise ValueError(
                "streaming simulate supports the fast engine only "
                "(materialize() the reader for engine='reference')"
            )
        if policy.requires_future:
            raise ValueError(
                f"{policy.name} is offline (requires_future) and needs the "
                f"materialized trace"
            )
    num_users = trace.num_users
    if policy.requires_costs:
        if costs is None:
            raise ValueError(f"{policy.name} requires cost functions")
    if costs is not None and len(costs) < num_users:
        raise ValueError(f"need {num_users} cost functions, got {len(costs)}")

    ctx = SimContext(
        k=k,
        owners=np.asarray(trace.owners),
        num_users=num_users,
        costs=costs,
        trace=trace if policy.requires_future else None,
        num_pages=trace.num_pages,
        horizon=trace.length,
    )
    if obs is None:
        obs = default_observability()
    if flight is None:
        flight = obs.flight
    if flight is not None:
        flight.note_config(
            policy=policy.name,
            k=k,
            num_shards=1,
            source=f"sim:{engine}",
            trace=trace.name,
        )
    run = _simulate_reference if engine == "reference" else _simulate_fast
    if not (obs.tracer.enabled or obs.registry.enabled):
        policy.reset(ctx)
        return run(trace, policy, k, record_events, record_curve, validate, flight)

    tracer = obs.tracer
    with tracer.span("sim.setup", policy=policy.name, trace=trace.name):
        policy.reset(ctx)
    with tracer.span(
        "sim.run",
        policy=policy.name,
        trace=trace.name,
        k=k,
        engine=engine,
        T=trace.length,
    ) as span:
        result = run(trace, policy, k, record_events, record_curve, validate, flight)
        span.set(hits=result.hits, misses=result.misses)
    reg = obs.registry
    reg.counter("sim_runs_total", "Simulation runs completed").inc()
    reg.counter("sim_requests_total", "Requests simulated").inc(
        result.total_requests
    )
    reg.counter("sim_hits_total", "Cache hits simulated").inc(result.hits)
    reg.counter("sim_misses_total", "Cache misses simulated").inc(result.misses)
    return result


def _simulate_reference(
    trace: Trace,
    policy: EvictionPolicy,
    k: int,
    record_events: bool,
    record_curve: bool,
    validate: bool,
    flight: Optional[FlightRecorder] = None,
) -> SimResult:
    """The original per-request loop — ground truth for equivalence."""
    num_users = trace.num_users
    cache: set[int] = set()
    hits = 0
    user_misses = np.zeros(max(num_users, 1), dtype=np.int64)
    events: Optional[List[EvictionEvent]] = [] if record_events else None
    curve: Optional[np.ndarray] = (
        np.zeros((trace.length + 1, max(num_users, 1)), dtype=np.int64)
        if record_curve
        else None
    )

    fl = flight.append if flight is not None else None
    probe = flight is not None and has_budget_probe(policy)
    owners_l = trace.owners.tolist() if flight is not None else None
    if flight is not None:
        flight.bind(owners_l)

    owners = trace.owners
    requests = trace.requests
    for t in range(requests.size):
        page = int(requests[t])
        if page in cache:
            hits += 1
            policy.on_hit(page, t)
            if fl is not None:
                fl((t, page, 0))
        else:
            user_misses[owners[page]] += 1
            if len(cache) < k:
                cache.add(page)
                policy.on_insert(page, t)
                if fl is not None:
                    record_miss(
                        fl, policy, probe, owners_l[page], t, page, 0, None, None
                    )
            else:
                victim = policy.choose_victim(page, t)
                if validate:
                    if victim not in cache:
                        raise RuntimeError(
                            f"{policy.name} evicted non-resident page {victim} at t={t}"
                        )
                    if victim == page:
                        raise RuntimeError(
                            f"{policy.name} evicted the requested page {page} at t={t}"
                        )
                b_before = (
                    float(policy.budget_of(victim))
                    if fl is not None and probe
                    else None
                )
                cache.remove(victim)
                policy.on_evict(victim, t)
                cache.add(page)
                policy.on_insert(page, t)
                if events is not None:
                    events.append(EvictionEvent(t=t, requested=page, victim=victim))
                if fl is not None:
                    record_miss(
                        fl, policy, probe, owners_l[page], t, page, 0, victim, b_before
                    )
        if curve is not None:
            curve[t + 1] = user_misses

    return SimResult(
        policy_name=policy.name,
        trace_name=trace.name,
        k=k,
        hits=hits,
        misses=int(user_misses.sum()),
        user_misses=user_misses,
        final_cache=sorted(cache),
        events=events,
        miss_curve=curve,
    )


def _simulate_fast(
    trace,
    policy: EvictionPolicy,
    k: int,
    record_events: bool,
    record_curve: bool,
    validate: bool,
    flight: Optional[FlightRecorder] = None,
) -> SimResult:
    """Hit-run scanning engine over ``trace.batches()``.

    Residency lives in a bool array indexed by page (no hashing) plus a
    mirrored Python list (a plain-list probe beats both numpy scalar
    indexing and set hashing for single lookups).  Because residency
    only changes on misses, the next miss is found by scanning forward
    through constant residency: a short Python walk first, then
    vectorized chunks of doubling size once the run proves long.  The
    hits in between reach the policy as one ``on_hit_batch`` call — or
    not at all for ``ignores_hits`` policies.

    Memory beyond the residency arrays is one batch of the trace's own
    ``batches()`` (plus the miss curve when recorded), for an in-RAM
    :class:`Trace` and a :class:`~repro.sim.colstore.TraceReader` alike.
    """
    num_users = trace.num_users
    num_pages = trace.num_pages
    owners = np.asarray(trace.owners)

    res_arr = np.zeros(max(num_pages, 1), dtype=bool)
    res_list = [False] * max(num_pages, 1)
    size = 0
    hits = 0
    user_misses = np.zeros(max(num_users, 1), dtype=np.int64)
    events: Optional[List[EvictionEvent]] = [] if record_events else None
    curve: Optional[np.ndarray] = (
        np.zeros((trace.length + 1, max(num_users, 1)), dtype=np.int64)
        if record_curve
        else None
    )

    deliver_hits = not policy.ignores_hits
    on_hit = policy.on_hit
    on_hit_batch = policy.on_hit_batch
    on_insert = policy.on_insert

    fl = flight.append if flight is not None else None
    fl_extend = flight.extend if flight is not None else None
    fl_zero = repeat(0)
    probe = flight is not None and has_budget_probe(policy)
    owners_l = owners.tolist() if flight is not None else None
    if flight is not None:
        flight.bind(owners_l)

    vector_mode = False  # sticky: the previous run was long
    for base, pages in trace.batches():
        req_list = pages.tolist()
        B = len(req_list)
        t = 0
        while t < B:
            # ---- scan for the next miss; [t, nm) is a maximal hit run ----
            nm = t
            escalate = vector_mode
            if not escalate:
                walk_end = t + _WALK_LIMIT
                if walk_end > B:
                    walk_end = B
                while nm < walk_end and res_list[req_list[nm]]:
                    nm += 1
                escalate = nm == walk_end and nm < B
            if escalate:
                # Long run: vectorized chunk scanning with doubling
                # chunks.  argmin of a bool block is its first False
                # (the miss); a True there means the whole block hit.
                chunk = _CHUNK_START
                while nm < B:
                    block = res_arr[pages[nm : nm + chunk]]
                    j = int(block.argmin())
                    if block[j]:
                        nm += block.size
                        if chunk < _CHUNK_CAP:
                            chunk <<= 1
                    else:
                        nm += j
                        break

            run_len = nm - t
            vector_mode = run_len >= _WALK_LIMIT
            if run_len:
                hits += run_len
                if deliver_hits:
                    if run_len == 1:
                        on_hit(req_list[t], base + t)
                    else:
                        on_hit_batch(req_list[t:nm], base + t)
                if fl_extend is not None:
                    # Bulk-append the whole hit run; zip builds the
                    # compact (t, page, shard) tuples in C.
                    fl_extend(
                        zip(range(base + t, base + nm), req_list[t:nm], fl_zero)
                    )
                if curve is not None:
                    curve[base + t + 1 : base + nm + 1] = user_misses
            if nm >= B:
                break

            # ---- miss at gt: identical mechanics to the reference loop ----
            page = req_list[nm]
            gt = base + nm
            user_misses[owners[page]] += 1
            if size < k:
                res_arr[page] = True
                res_list[page] = True
                size += 1
                on_insert(page, gt)
                if fl is not None:
                    record_miss(
                        fl, policy, probe, owners_l[page], gt, page, 0, None, None
                    )
            else:
                victim = policy.choose_victim(page, gt)
                if validate:
                    if victim < 0 or victim >= num_pages or not res_list[victim]:
                        raise RuntimeError(
                            f"{policy.name} evicted non-resident page {victim} "
                            f"at t={gt}"
                        )
                    if victim == page:
                        raise RuntimeError(
                            f"{policy.name} evicted the requested page {page} "
                            f"at t={gt}"
                        )
                b_before = (
                    float(policy.budget_of(victim))
                    if fl is not None and probe
                    else None
                )
                res_arr[victim] = False
                res_list[victim] = False
                policy.on_evict(victim, gt)
                res_arr[page] = True
                res_list[page] = True
                on_insert(page, gt)
                if events is not None:
                    events.append(EvictionEvent(t=gt, requested=page, victim=victim))
                if fl is not None:
                    record_miss(
                        fl, policy, probe, owners_l[page], gt, page, 0,
                        victim, b_before,
                    )
            if curve is not None:
                curve[gt + 1] = user_misses
            t = nm + 1

    return SimResult(
        policy_name=policy.name,
        trace_name=trace.name,
        k=k,
        hits=hits,
        misses=int(user_misses.sum()),
        user_misses=user_misses,
        final_cache=np.flatnonzero(res_arr).tolist(),
        events=events,
        miss_curve=curve,
    )


def replay_evictions(trace: Trace, k: int, events: Sequence[EvictionEvent]) -> np.ndarray:
    """Recompute per-user miss counts implied by an eviction log.

    Used by tests to cross-check that a recorded eviction schedule is
    consistent with the engine's accounting: replays the trace applying
    the logged evictions verbatim and returns the per-user miss counts.
    Raises if the log is infeasible (evicting non-resident pages or
    missing an eviction when one was required).
    """
    k = check_positive_int(k, "k")
    by_time = {e.t: e for e in events}
    cache: set[int] = set()
    user_misses = np.zeros(max(trace.num_users, 1), dtype=np.int64)
    for t in range(trace.length):
        page = int(trace.requests[t])
        if page in cache:
            if t in by_time:
                raise ValueError(f"event at t={t} but request was a hit")
            continue
        user_misses[trace.owners[page]] += 1
        if len(cache) < k:
            if t in by_time:
                raise ValueError(f"event at t={t} but cache had space")
            cache.add(page)
        else:
            if t not in by_time:
                raise ValueError(f"miss with full cache at t={t} but no event")
            ev = by_time[t]
            if ev.requested != page:
                raise ValueError(f"event at t={t} records wrong page")
            if ev.victim not in cache:
                raise ValueError(f"event at t={t} evicts non-resident {ev.victim}")
            cache.remove(ev.victim)
            cache.add(page)
    return user_misses


__all__ = ["ENGINES", "EvictionEvent", "SimResult", "simulate", "replay_evictions"]
