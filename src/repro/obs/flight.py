"""Flight recorder: bounded decision-event capture + deterministic replay.

When an invariant trips or served output diverges, counters say *that*
something went wrong; answering *why* needs the individual decisions —
which page was requested, whether it hit, who was evicted, and what the
budget state around the eviction looked like.  :class:`FlightRecorder`
is a bounded ring buffer of exactly that, cheap enough to leave on:

* the sim engine (both ``engine="fast"`` and ``"reference"``) and every
  serve shard append one event per request when a recorder is attached
  (and add **zero** per-request work when none is);
* events carry ``(t, page, tenant, hit, shard, victim)`` always, plus
  ``(budget_before, budget_after, fresh_charge)`` on misses when the
  policy exposes ALG-DISCRETE's budget introspection surface
  (``budget_of`` / ``fresh_budget``) — the victim's budget read *before*
  the eviction and the dual charge assigned to the admitted page;
* :meth:`FlightRecorder.dump_jsonl` writes the window to JSONL; the
  serve server calls it automatically when the
  :class:`~repro.obs.monitor.InvariantMonitor` raises a new flag or the
  consumer drains on fault, so a postmortem trail survives the crash.

:func:`replay_verify` is the postmortem tool: re-execute a recorded
window against a **fresh** policy instance (via
:class:`~repro.serve.shard.ShardManager`, whose one-shard case is
bit-identical to the engine) and diff the two decision streams field by
field.  A clean diff certifies the recording is deterministic and the
live state was uncorrupted; a divergence pinpoints the first decision
where the live run left the policy's true trajectory — see
``examples/flight_postmortem.py``.

Because every request appends exactly one event, event times are dense:
``dropped`` (events lost to the ring bound) is simply the time of the
oldest retained event, and a window replays iff it starts at ``t=0``.

Hits dominate cache workloads, and a hit decision carries no
information beyond "page *p* hit at time *t* on shard *s*" — the
tenant is ``owners[page]`` and every budget field is ``None``.  The
hot paths therefore append compact ``(t, page, shard)`` 3-tuples for
hits and full 9-tuples only for misses; :meth:`FlightRecorder.events`
and :meth:`FlightRecorder.dump_jsonl` rehydrate hits through the
owners map bound at attach time.  This keeps the per-hit cost to one
small tuple build plus a bounded-deque append.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

#: Positional layout of fully-expanded event tuples.  The ring itself
#: holds two shapes — compact ``(t, page, shard)`` 3-tuples for hits
#: and full 9-tuples for misses; :meth:`FlightRecorder.events`
#: rehydrates both into :class:`DecisionEvent` in this field order.
EVENT_FIELDS = (
    "t",
    "page",
    "tenant",
    "hit",
    "shard",
    "victim",
    "budget_before",
    "budget_after",
    "fresh_charge",
)

_EventTuple = Tuple[
    int, int, int, bool, int,
    Optional[int], Optional[float], Optional[float], Optional[float],
]


@dataclass(frozen=True)
class DecisionEvent:
    """One recorded cache decision (a single served request).

    ``budget_before`` is the victim's dual budget read immediately
    before ``on_evict``; ``budget_after`` is the admitted page's budget
    after ``on_insert``; ``fresh_charge`` is the requesting tenant's
    fresh-budget marginal :math:`f_i'(ev_i + 1)` at admission.  All
    three are ``None`` on hits and for policies without budget
    introspection.
    """

    t: int
    page: int
    tenant: int
    hit: bool
    shard: int
    victim: Optional[int] = None
    budget_before: Optional[float] = None
    budget_after: Optional[float] = None
    fresh_charge: Optional[float] = None

    def astuple(self) -> _EventTuple:
        return (
            self.t, self.page, self.tenant, self.hit, self.shard,
            self.victim, self.budget_before, self.budget_after,
            self.fresh_charge,
        )


def has_budget_probe(policy: object) -> bool:
    """Does *policy* expose the budget introspection the recorder reads?"""
    return callable(getattr(policy, "budget_of", None)) and callable(
        getattr(policy, "fresh_budget", None)
    )


def record_miss(
    fl_append,
    policy: object,
    probe: bool,
    tenant: int,
    t: int,
    page: int,
    shard: int,
    victim: Optional[int],
    budget_before: Optional[float],
) -> None:
    """Append one miss event — shared by the engines and the serve shard
    so the sim and serve capture paths are bit-identical by construction
    (``budget_before`` must be read by the caller *before* the evict).
    """
    if probe:
        budget_after: Optional[float] = float(policy.budget_of(page))
        fresh_charge: Optional[float] = float(policy.fresh_budget(tenant))
    else:
        budget_after = fresh_charge = None
    fl_append(
        (t, page, tenant, False, shard, victim, budget_before,
         budget_after, fresh_charge)
    )


class FlightRecorder:
    """A bounded ring buffer of :class:`DecisionEvent` tuples.

    Parameters
    ----------
    capacity:
        Maximum retained events; older events are dropped silently
        (``dropped`` reports how many).
    dump_path:
        Default JSONL path for :meth:`dump_jsonl`; also arms the serve
        server's automatic dumps (invariant drift, fault drain).
    """

    __slots__ = ("capacity", "ring", "append", "extend", "owners",
                 "dump_path", "meta", "dumps", "last_dump_reason",
                 "last_dump_path")

    def __init__(self, capacity: int = 65536,
                 dump_path: Optional[str] = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.ring: Deque[tuple] = deque(maxlen=self.capacity)
        #: Bound ``ring.append`` — the one-call hot-path recording hook.
        self.append = self.ring.append
        #: Bound ``ring.extend`` — bulk hook for the fast engine's
        #: vectorized hit runs (builds the compact tuples in C).
        self.extend = self.ring.extend
        #: Page → tenant map bound by whoever attaches the recorder;
        #: needed to rehydrate compact hit entries.
        self.owners: Optional[List[int]] = None
        self.dump_path = dump_path
        #: Run configuration noted by whoever attaches the recorder
        #: (policy/k/num_shards/...); consumed by :func:`verify_flight`.
        self.meta: Dict[str, object] = {}
        self.dumps = 0
        self.last_dump_reason: Optional[str] = None
        self.last_dump_path: Optional[str] = None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.ring)

    @property
    def dropped(self) -> int:
        """Events lost to the ring bound.

        Every request appends exactly one event with a dense global
        clock, so the oldest retained event's ``t`` *is* the drop count.
        """
        return int(self.ring[0][0]) if self.ring else 0

    @property
    def recorded(self) -> int:
        """Total events ever recorded (retained + dropped)."""
        return self.dropped + len(self.ring)

    def note_config(self, **kw: object) -> None:
        """Merge run configuration into :attr:`meta` (None values skipped)."""
        self.meta.update({k: v for k, v in kw.items() if v is not None})

    def bind(self, owners: Sequence[int]) -> None:
        """Bind the page → tenant map used to rehydrate compact hit
        entries (the engine and serve attach paths call this)."""
        self.owners = list(owners)

    def record(
        self,
        t: int,
        page: int,
        tenant: int,
        hit: bool,
        shard: int = 0,
        victim: Optional[int] = None,
        budget_before: Optional[float] = None,
        budget_after: Optional[float] = None,
        fresh_charge: Optional[float] = None,
    ) -> None:
        """Convenience append (hot paths use :attr:`append` directly)."""
        self.append((t, page, tenant, hit, shard, victim, budget_before,
                     budget_after, fresh_charge))

    def events(self) -> List[DecisionEvent]:
        """The retained window, oldest first, as dataclasses.

        Compact hit entries are expanded through :attr:`owners`; a
        recorder holding them must have been bound first (the attach
        paths do this automatically).
        """
        owners = self.owners
        out: List[DecisionEvent] = []
        for tup in self.ring:
            if len(tup) == 3:
                if owners is None:
                    raise ValueError(
                        "ring holds compact hit entries but no owners map "
                        "is bound; call bind(owners) first"
                    )
                t, page, sid = tup
                out.append(DecisionEvent(t, page, owners[page], True, sid))
            else:
                out.append(DecisionEvent(*tup))
        return out

    def clear(self) -> None:
        self.ring.clear()

    # ------------------------------------------------------------------
    # JSONL persistence
    # ------------------------------------------------------------------
    def dump_jsonl(self, path: Optional[str] = None,
                   reason: str = "manual") -> str:
        """Write ``{meta line}\\n{one line per event}`` JSONL; returns
        the path written.  Floats round-trip exactly (``repr`` ↔
        ``float``), so a loaded window still replay-verifies
        bit-for-bit."""
        target = path or self.dump_path
        if not target:
            raise ValueError("no dump path: pass one or set dump_path")
        header = {
            "type": "flight_meta",
            "reason": reason,
            "capacity": self.capacity,
            "recorded": self.recorded,
            "dropped": self.dropped,
            "events": len(self.ring),
            **self.meta,
        }
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for ev in self.events():
                fh.write(
                    json.dumps(dict(zip(EVENT_FIELDS, ev.astuple()))) + "\n"
                )
        self.dumps += 1
        self.last_dump_reason = reason
        self.last_dump_path = target
        return target

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FlightRecorder({len(self.ring)}/{self.capacity} events, "
            f"dropped={self.dropped})"
        )


@dataclass(frozen=True)
class FlightDump:
    """A loaded JSONL flight dump: the meta header plus the window."""

    meta: Dict[str, object]
    events: List[DecisionEvent]


def load_flight(path: str) -> FlightDump:
    """Load a :meth:`FlightRecorder.dump_jsonl` file."""
    from repro.obs.export import read_jsonl

    lines = read_jsonl(path)
    if not lines or lines[0].get("type") != "flight_meta":
        raise ValueError(f"{path}: not a flight dump (missing meta header)")
    meta = dict(lines[0])
    events = []
    for row in lines[1:]:
        events.append(DecisionEvent(**{k: row.get(k) for k in EVENT_FIELDS}))
    return FlightDump(meta=meta, events=events)


# ----------------------------------------------------------------------
# Deterministic replay verification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReplayMismatch:
    """One field-level divergence between recorded and replayed streams."""

    index: int
    t: int
    field: str
    recorded: object
    replayed: object

    def __str__(self) -> str:
        return (
            f"t={self.t} (event {self.index}): {self.field} "
            f"recorded={self.recorded!r} replayed={self.replayed!r}"
        )


@dataclass
class ReplayCheck:
    """Outcome of :func:`replay_verify`."""

    ok: bool
    events: int
    mismatches: List[ReplayMismatch] = field(default_factory=list)

    @property
    def first_divergence(self) -> Optional[ReplayMismatch]:
        return self.mismatches[0] if self.mismatches else None

    def summary(self) -> str:
        if self.ok:
            return f"replay clean: {self.events} decisions bit-identical"
        first = self.first_divergence
        return (
            f"replay diverged at {first} "
            f"({len(self.mismatches)} field mismatches reported)"
        )


def _as_tuples(
    events: Union["FlightRecorder", Sequence[DecisionEvent], Sequence[tuple]],
    owners: Sequence[int],
) -> List[_EventTuple]:
    """Normalize any event source to full 9-tuples (compact hit entries
    are expanded through *owners*) so both diff sides compare alike."""
    raw = list(events.ring) if isinstance(events, FlightRecorder) else events
    out: List[_EventTuple] = []
    for e in raw:
        tup = e.astuple() if isinstance(e, DecisionEvent) else tuple(e)
        if len(tup) == 3:
            t, page, sid = tup
            tup = (t, page, int(owners[page]), True, sid,
                   None, None, None, None)
        out.append(tup)
    return out


def replay_verify(
    events: Union["FlightRecorder", Sequence[DecisionEvent], Sequence[tuple]],
    policy: object,
    k: int,
    owners,
    *,
    costs=None,
    num_shards: int = 1,
    policy_seed: Optional[int] = None,
    trace=None,
    validate: bool = True,
    compare_budgets: bool = True,
    max_mismatches: int = 8,
    dense: bool = True,
) -> ReplayCheck:
    """Re-execute a recorded window on a fresh policy and diff decisions.

    Builds a fresh :class:`~repro.serve.shard.ShardManager` with the
    run's configuration (*policy* is a registry name or factory —
    stochastic policies are re-seeded as ``policy_seed + shard_id``,
    matching both the serve path and a ``factory(rng=policy_seed)``
    sim run), feeds it the recorded ``(page, t)`` sequence with a fresh
    :class:`FlightRecorder` attached, and compares the two event
    streams bit for bit — hit/miss, victim, shard placement, and (for
    budget-introspectable policies) the budget fields.

    With ``dense=True`` (the default, and the invariant of any
    single-recorder capture) the window must start at ``t=0`` with
    dense times: a ring that wrapped has lost the prefix that built the
    cache state, so raises :class:`ValueError` rather than reporting
    spurious divergence.  Pass ``dense=False`` for a *projection* of
    the global stream onto a shard subset — a
    :class:`~repro.serve.workers.ShardWorkerPool` worker's window,
    whose times are the sparse global clock values of just its shards'
    requests.  Such a window replays exactly (the untouched shards of
    the fresh manager simply stay empty) provided it is complete from
    the start of serving; times are only required to be strictly
    increasing, and the caller must ensure the worker's ring never
    wrapped (``len(ring) < capacity``).
    """
    recorded = _as_tuples(events, owners)
    if not recorded:
        return ReplayCheck(ok=True, events=0)
    if dense:
        if recorded[0][0] != 0:
            raise ValueError(
                f"window starts at t={recorded[0][0]}, not 0: the ring "
                f"dropped the prefix; replay needs the full history "
                f"(raise capacity)"
            )
        for i, tup in enumerate(recorded):
            if tup[0] != i:
                raise ValueError(
                    f"event times must be dense; event {i} has t={tup[0]}"
                )
    else:
        for i in range(1, len(recorded)):
            if recorded[i][0] <= recorded[i - 1][0]:
                raise ValueError(
                    f"sparse window times must be strictly increasing; "
                    f"event {i} has t={recorded[i][0]} after "
                    f"t={recorded[i - 1][0]}"
                )

    # Lazy: repro.serve imports the server, which imports repro.obs.
    from repro.serve.shard import ShardManager

    mgr = ShardManager(
        policy,
        num_shards,
        k,
        owners,
        costs,
        policy_seed=policy_seed,
        trace=trace,
        horizon=len(recorded),
        validate=validate,
    )
    shadow = FlightRecorder(capacity=len(recorded))
    for shard in mgr.shards:
        shard.attach_flight(shadow)
    mgr.serve_batch(
        [int(tup[1]) for tup in recorded], [int(tup[0]) for tup in recorded]
    )

    replayed = _as_tuples(shadow, owners)
    mismatches: List[ReplayMismatch] = []
    budget_lo = EVENT_FIELDS.index("budget_before")
    for i, (a, b) in enumerate(zip(recorded, replayed)):
        if a == b:
            continue
        for fi, name in enumerate(EVENT_FIELDS):
            if fi >= budget_lo and not compare_budgets:
                continue
            if a[fi] != b[fi]:
                mismatches.append(
                    ReplayMismatch(
                        index=i, t=int(a[0]), field=name,
                        recorded=a[fi], replayed=b[fi],
                    )
                )
        if len(mismatches) >= max_mismatches:
            break
    return ReplayCheck(
        ok=not mismatches, events=len(recorded), mismatches=mismatches
    )


def verify_flight(
    recorder: Union["FlightRecorder", FlightDump],
    owners,
    *,
    costs=None,
    trace=None,
    **overrides,
) -> ReplayCheck:
    """:func:`replay_verify` driven by the recorder's own ``meta``
    (``policy`` / ``k`` / ``num_shards`` / ``policy_seed`` / ``dense``,
    each overridable by keyword)."""
    meta = recorder.meta
    events = recorder.events if isinstance(recorder, FlightDump) else recorder
    kw = {
        "num_shards": int(meta.get("num_shards", 1)),
        "policy_seed": meta.get("policy_seed"),
        "dense": bool(meta.get("dense", True)),
    }
    kw.update(overrides)
    policy = kw.pop("policy", meta.get("policy"))
    k = int(kw.pop("k", meta.get("k", 0)))
    if policy is None or k < 1:
        raise ValueError("recorder meta lacks policy/k; pass them explicitly")
    return replay_verify(
        events, policy, k, owners, costs=costs, trace=trace, **kw
    )


__all__ = [
    "DecisionEvent",
    "EVENT_FIELDS",
    "FlightDump",
    "FlightRecorder",
    "ReplayCheck",
    "ReplayMismatch",
    "has_budget_probe",
    "load_flight",
    "record_miss",
    "replay_verify",
    "verify_flight",
]
