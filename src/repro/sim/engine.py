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
* ``engine="fast"`` (the ``"auto"`` default) — one
  :class:`CacheState`, the kernel every path applies requests through
  (each serving shard and network node is one too), over the trace's
  ``batches()`` protocol, so the same loop runs over an in-RAM
  :class:`~repro.sim.trace.Trace` and a streaming
  :class:`~repro.sim.colstore.TraceReader`.  Residency only changes on
  misses, so the kernel scans forward for the next miss and hands each
  hit run to the policy in one
  :meth:`~repro.sim.policy.EvictionPolicy.on_hit_batch` call (a run cut
  by a batch boundary arrives as two, with the same net effect; after
  a batch of short runs, hits go one by one through ``on_hit``).  Miss
  handling is identical to the reference loop, so the engines produce
  bit-identical :class:`SimResult`\\ s (enforced for every registered
  policy by ``tests/test_engine_fast.py``, for streamed readers by
  ``tests/test_colstore.py``, and for the serving shards by
  ``tests/test_kernel.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, count, repeat
from time import perf_counter
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

#: Batches (and scan remainders) of at most this many requests are
#: served without numpy: its fixed cost per call, several times larger
#: in a process woken from idle, buys nothing on them.  The scanner
#: walks such a remainder to its end; a serving shard group routes such
#: a batch request by request and counts it in plain Python.
SMALL_BATCH = 256

#: A batch with more than one miss per this many requests has hit runs
#: averaging under 7, where the scan's per-run bookkeeping costs more
#: than it saves: the next batch delivers each hit as it comes.
_SHORT_RUNS = 8


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


class CacheState:
    """One cache under the paper's mechanics — the kernel the simulator,
    every serving shard and every network node apply requests through.

    Residency is one ``bytearray`` indexed by page: a Python index
    probes a single page about as fast as a list, and a numpy bool view
    of the same memory (``res_arr``) serves the vectorized scans, so no
    second record needs syncing.  Optional hooks: victim validation, an
    eviction log (``events``), a flight recorder (:meth:`attach_flight`)
    and a ``[seconds, calls]`` decision timer (``timing``) around
    ``choose_victim``.  Times and pages reach the policy, the log and
    the recorder as the caller's Python ints.
    """

    __slots__ = (
        "policy", "k", "size", "res", "res_arr", "validate", "label", "tag",
        "evictions", "timing", "events", "fl_append", "fl_extend", "fl_owners",
        "fl_probe", "_vector", "_short", "_solo",
    )

    def __init__(
        self,
        policy: EvictionPolicy,
        k: int,
        num_pages: int,
        *,
        validate: bool = True,
        label: Optional[str] = None,
        tag: int = 0,
    ) -> None:
        self.policy = policy
        self.k = k
        self.size = 0
        self.res = bytearray(max(num_pages, 1))
        self.res_arr = np.frombuffer(self.res, dtype=np.bool_)
        self.validate = validate
        #: Names the cache in validation errors.
        self.label = policy.name if label is None else label
        #: The flight events' shard field.
        self.tag = tag
        #: Lifetime evictions (never read by the policy).
        self.evictions = 0
        self.timing: Optional[List[float]] = None
        self.events: Optional[List[EvictionEvent]] = None
        self.fl_append = self.fl_extend = self.fl_owners = None
        self.fl_probe = False
        #: Sticky scanner modes: the previous hit run was long; the
        #: previous batch's runs were short.
        self._vector = False
        self._short = False
        #: Routes every page to index 0, for :func:`serve_each` over
        #: this state alone.
        self._solo = bytes(len(self.res))

    def attach_flight(self, recorder: FlightRecorder, owners_list: List[int]) -> None:
        """Append one decision event per request to *recorder*;
        *owners_list* is ``owners.tolist()``, shareable across states."""
        self.fl_append = recorder.append
        self.fl_extend = recorder.extend
        self.fl_owners = owners_list
        self.fl_probe = has_budget_probe(self.policy)
        recorder.bind(owners_list)

    def detach_flight(self) -> None:
        """Stop recording (the recorder keeps its window)."""
        self.fl_append = self.fl_extend = self.fl_owners = None
        self.fl_probe = False

    def clear(self) -> None:
        """Empty the cache (the policy is the caller's to reset)."""
        self.res_arr[:] = False
        self.size = 0
        self.evictions = 0
        self._vector = self._short = False

    def resident(self) -> List[int]:
        """The resident pages, ascending."""
        return list(compress(count(), self.res))

    def flush(self, page: int, t: int) -> None:
        """Remove resident *page* by an external mechanism (a tenant
        migration), not by a victim choice: the policy hears
        ``on_flush``."""
        self.res[page] = 0
        self.size -= 1
        self.policy.on_flush(page, t)

    def admit(self, page: int, t: int) -> Optional[int]:
        """The miss step: non-resident *page* is fetched at time *t*,
        into a free slot or in place of the policy's victim.  Returns
        the victim, ``None`` when a slot was free."""
        policy = self.policy
        res = self.res
        fl = self.fl_append
        victim = b_before = None
        if self.size < self.k:
            self.size += 1
        else:
            timing = self.timing
            if timing is None:
                victim = policy.choose_victim(page, t)
            else:
                t_dec = perf_counter()
                victim = policy.choose_victim(page, t)
                timing[0] += perf_counter() - t_dec
                timing[1] += 1
            if self.validate:
                if victim < 0 or victim >= len(res) or not res[victim]:
                    raise RuntimeError(
                        f"{self.label} evicted non-resident page {victim} at t={t}"
                    )
                if victim == page:
                    raise RuntimeError(
                        f"{self.label} evicted the requested page {page} at t={t}"
                    )
            if fl is not None and self.fl_probe:
                b_before = float(policy.budget_of(victim))
            res[victim] = 0
            policy.on_evict(victim, t)
            self.evictions += 1
            if self.events is not None:
                self.events.append(EvictionEvent(t=t, requested=page, victim=victim))
        res[page] = 1
        policy.on_insert(page, t)
        if fl is not None:
            record_miss(
                fl, policy, self.fl_probe, self.fl_owners[page],
                t, page, self.tag, victim, b_before,
            )
        return victim

    def apply(
        self,
        req: List[int],
        ts: Sequence[int],
        arr: Optional[np.ndarray] = None,
    ) -> List[int]:
        """Serve ``req[i]`` at time ``ts[i]`` (strictly increasing; a
        ``range`` for a dense stretch) in order; returns the positions
        of the misses, each of which ran :meth:`admit`.

        Residency only changes on misses, so the next miss is found by
        scanning forward: a list walk first, then doubling vectorized
        chunks over ``res_arr`` once a run proves long and more than a
        chunk remains (*arr* is ``req`` as an int64 array, built then
        if not given).  Each hit run reaches the policy as one
        ``on_hit_batch`` (``on_hit`` for a run of one) and the recorder
        as one bulk append.  After a batch of short runs
        (:data:`_SHORT_RUNS`) the next is served request by request
        (:func:`serve_each`).
        """
        B = len(req)
        if self._short:
            misses = serve_each((self,), self._solo, req, ts)
            self._short = len(misses) * _SHORT_RUNS > B
            return misses
        policy = self.policy
        deliver = not policy.ignores_hits
        on_hit = policy.on_hit
        on_hit_batch = policy.on_hit_batch
        admit = self.admit
        fl_extend = self.fl_extend
        res = self.res
        res_arr = self.res_arr
        misses: List[int] = []
        vector = self._vector
        t = 0
        while t < B:
            # ---- scan for the next miss; [t, nm) is a maximal hit run ----
            nm = t
            # A small remainder is walked to its end (SMALL_BATCH).
            escalate = vector and B - t > SMALL_BATCH
            if not escalate:
                walk_end = t + _WALK_LIMIT if B - t > SMALL_BATCH else B
                while nm < walk_end and res[req[nm]]:
                    nm += 1
                escalate = nm == walk_end and nm < B
            if escalate:
                # argmin of a bool block is its first False (the miss);
                # a True there means the whole block hit.
                if arr is None:
                    arr = np.array(req, dtype=np.int64)
                chunk = _CHUNK_START
                while nm < B:
                    block = res_arr[arr[nm : nm + chunk]]
                    j = int(block.argmin())
                    if block[j]:
                        nm += block.size
                        if chunk < _CHUNK_CAP:
                            chunk <<= 1
                    else:
                        nm += j
                        break
            run = nm - t
            vector = run >= _WALK_LIMIT
            if run:
                if deliver:
                    if run == 1:
                        on_hit(req[t], ts[t])
                    else:
                        on_hit_batch(req[t:nm], ts[t:nm])
                if fl_extend is not None:
                    # zip builds the compact (t, page, shard) tuples in C.
                    fl_extend(zip(ts[t:nm], req[t:nm], repeat(self.tag)))
            if nm >= B:
                break
            admit(req[nm], ts[nm])
            misses.append(nm)
            t = nm + 1
        self._vector = vector
        self._short = len(misses) * _SHORT_RUNS > B
        return misses


def serve_each(
    states: Sequence[CacheState],
    at: Sequence[int],
    req: Sequence[int],
    ts: Sequence[int],
) -> List[int]:
    """Serve ``req[i]`` at time ``ts[i]`` on ``states[at[req[i]]]``,
    request by request in order; returns the positions of the misses.

    The per-request form of :meth:`CacheState.apply`: each hit reaches
    its state's policy through ``on_hit`` and its recorder as one event,
    each miss runs :meth:`CacheState.admit`.  It beats the scan on short
    hit runs and small batches, and it keeps a recorder that several
    states share in time order."""
    steps = [
        (
            state.res,
            None if state.policy.ignores_hits else state.policy.on_hit,
            state.fl_append,
            state.tag,
            state.admit,
        )
        for state in states
    ]
    misses: List[int] = []
    for i, page, t in zip(count(), req, ts):
        res, on_hit, fl_append, tag, admit = steps[at[page]]
        if res[page]:
            if on_hit is not None:
                on_hit(page, t)
            if fl_append is not None:
                fl_append((t, page, tag))
        else:
            admit(page, t)
            misses.append(i)
    return misses


def _simulate_fast(
    trace,
    policy: EvictionPolicy,
    k: int,
    record_events: bool,
    record_curve: bool,
    validate: bool,
    flight: Optional[FlightRecorder] = None,
) -> SimResult:
    """:meth:`CacheState.apply` over ``trace.batches()``.

    The per-tenant miss counts and the miss curve are taken from each
    batch's miss positions in bulk.  Memory beyond the residency
    arrays is one batch of the trace's own ``batches()`` (plus the miss
    curve when recorded), for an in-RAM :class:`Trace` and a
    :class:`~repro.sim.colstore.TraceReader` alike.
    """
    num_users = max(trace.num_users, 1)
    owners = np.asarray(trace.owners)
    state = CacheState(policy, k, trace.num_pages, validate=validate)
    if record_events:
        state.events = []
    if flight is not None:
        state.attach_flight(flight, owners.tolist())
    user_misses = np.zeros(num_users, dtype=np.int64)
    curve: Optional[np.ndarray] = (
        np.zeros((trace.length + 1, num_users), dtype=np.int64)
        if record_curve
        else None
    )
    hits = 0
    for base, pages in trace.batches():
        B = len(pages)
        missed = state.apply(pages.tolist(), range(base, base + B), pages)
        hits += B - len(missed)
        tenants = owners[pages[missed]]
        if curve is not None:
            # Row base + i + 1 counts the misses among requests <= i.
            rows = curve[base + 1 : base + B + 1]
            rows[missed, tenants] = 1
            np.cumsum(rows, axis=0, out=rows)
            rows += user_misses
        user_misses += np.bincount(tenants, minlength=num_users)

    return SimResult(
        policy_name=policy.name,
        trace_name=trace.name,
        k=k,
        hits=hits,
        misses=int(user_misses.sum()),
        user_misses=user_misses,
        final_cache=state.resident(),
        events=state.events,
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


__all__ = [
    "ENGINES",
    "CacheState",
    "EvictionEvent",
    "SimResult",
    "simulate",
    "replay_evictions",
]
