"""Shard management for the serving subsystem.

A :class:`CacheShard` is a *stepwise* cache: the reference engine's
miss mechanics (:func:`repro.sim.engine._simulate_reference`) unrolled
into a ``serve(page, t)`` call so requests can arrive one at a time
from a live stream instead of a pre-materialized
:class:`~repro.sim.trace.Trace`.  A :class:`ShardManager` hash-
partitions the page universe across ``S`` independent shards, each
owning a private policy instance and ``k/S`` slots, so victim choices
never cross shard boundaries and per-shard state stays small.  A
:class:`ShardGroup` is what one process serves with: a manager over
the shards that process owns, a :class:`~repro.serve.accounting.
CostLedger` slice, and an optional invariant monitor.

Determinism contract (enforced by ``tests/test_serve_equivalence.py``):
with ``num_shards=1`` the manager IS the reference engine — same
victim choices, same per-tenant miss counts, request for request — for
every registered policy, because the single shard sees the identical
``(page, t)`` sequence under an identical :class:`~repro.sim.policy.
SimContext`.  Stochastic policies are seeded per shard as
``policy_seed + shard_id`` so shard 0 reproduces a
``factory(rng=policy_seed)`` run exactly.

Pages are assigned to shards by a splitmix64-style integer hash (not
``page % S``): workload builders allocate tenants contiguous page
ranges, and a modulo split would alias tenant locality into shard
imbalance.  The hash is evaluated once per page of the universe
(:func:`shard_table`), never per request.
"""

from __future__ import annotations

import inspect
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.cost_functions import CostFunction
from repro.obs.flight import FlightRecorder, has_budget_probe, record_miss
from repro.obs.monitor import InvariantMonitor
from repro.serve.accounting import CostLedger
from repro.sim.policy import EvictionPolicy, SimContext
from repro.sim.trace import Trace
from repro.util.validation import check_positive_int

_MASK64 = (1 << 64) - 1

PolicySpec = Union[str, EvictionPolicy, Callable[..., EvictionPolicy]]


def page_hash(page: int) -> int:
    """Splitmix64 finalizer — the shard-placement hash.

    Stable across processes and Python versions (unlike builtin
    ``hash``), so a trace replays onto the same shard layout anywhere.
    """
    x = (page + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def page_hash_array(pages: np.ndarray) -> np.ndarray:
    """Vectorized :func:`page_hash` over an integer array.

    Element-for-element identical to the scalar hash (test-enforced),
    so batch routing tables and per-request lookups always agree.
    """
    x = np.asarray(pages).astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        x += np.uint64(0x9E3779B97F4A7C15)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def shard_table(num_pages: int, num_shards: int) -> np.ndarray:
    """Shard id of every page in ``[0, num_pages)``: the placement
    ``page_hash(page) % num_shards`` as one ``int64`` array.

    The one placement table: :class:`ShardManager` routes through it
    and :class:`~repro.serve.workers.ShardWorkerPool` derives its
    page → worker table from it, so both always agree."""
    if num_shards == 1:
        return np.zeros(num_pages, dtype=np.int64)
    hashed = page_hash_array(np.arange(num_pages, dtype=np.int64))
    return (hashed % np.uint64(num_shards)).astype(np.int64)


def shard_slots(k: int, num_shards: int) -> List[int]:
    """Per-shard slot allocation: ``k // S`` each, the ``k % S``
    remainder going to low shard ids first (sums to ``k``)."""
    base, extra = divmod(int(k), int(num_shards))
    return [base + (1 if sid < extra else 0) for sid in range(num_shards)]


def make_policy_instance(
    factory: Callable[..., EvictionPolicy], seed: Optional[int]
) -> EvictionPolicy:
    """Instantiate *factory*, passing ``rng=seed`` when it accepts one.

    The same convention as the engine-equivalence suite and
    ``sim.driver``: deterministic policies ignore the seed, stochastic
    ones (random, rand-marking) draw their stream from it.
    """
    if seed is not None:
        try:
            params = inspect.signature(factory).parameters
        except (TypeError, ValueError):
            params = {}
        if "rng" in params:
            return factory(rng=seed)
    return factory()


class CacheShard:
    """One policy instance plus the engine's miss mechanics, stepwise.

    The shard owns residency (a ``set``) and capacity enforcement;
    the policy only picks victims — exactly the engine/policy split of
    :mod:`repro.sim.engine`, so any registered policy serves unchanged.
    """

    __slots__ = (
        "shard_id",
        "policy",
        "slots",
        "cache",
        "_ctx",
        "_validate",
        "evictions",
        "timing",
        "flight",
        "_fl_owners",
        "_fl_budgets",
    )

    def __init__(
        self,
        shard_id: int,
        policy: EvictionPolicy,
        slots: int,
        ctx: SimContext,
        validate: bool = True,
    ) -> None:
        self.shard_id = shard_id
        self.policy = policy
        self.slots = check_positive_int(slots, "slots")
        self.cache: set[int] = set()
        self._ctx = ctx
        self._validate = validate
        #: Lifetime evictions (observability counter; never read by the
        #: policy, so equivalence with the engine is untouched).
        self.evictions = 0
        #: ``[seconds, calls]`` accumulator for ``choose_victim`` when a
        #: server enables decision timing; ``None`` keeps the hot path
        #: branch-free beyond one identity check.
        self.timing: Optional[List[float]] = None
        #: Attached :class:`~repro.obs.flight.FlightRecorder`; ``None``
        #: keeps the hot path at a single identity check per request.
        self.flight: Optional[FlightRecorder] = None
        self._fl_owners: Optional[List[int]] = None
        self._fl_budgets = False
        policy.reset(ctx)

    def attach_flight(
        self,
        recorder: FlightRecorder,
        owners_list: Optional[List[int]] = None,
    ) -> None:
        """Start appending one decision event per served request.

        *owners_list* lets a server share one materialized
        ``owners.tolist()`` across shards instead of converting per
        shard.
        """
        self.flight = recorder
        self._fl_owners = (
            owners_list if owners_list is not None else self._ctx.owners.tolist()
        )
        recorder.bind(self._fl_owners)
        self._fl_budgets = has_budget_probe(self.policy)

    def detach_flight(self) -> None:
        """Stop recording (the recorder keeps its window)."""
        self.flight = None

    def reset(self) -> None:
        """Empty the shard and return the policy to its initial state."""
        self.cache.clear()
        self.evictions = 0
        if self.timing is not None:
            self.timing[0] = 0.0
            self.timing[1] = 0
        self.policy.reset(self._ctx)

    def serve(self, page: int, t: int) -> Tuple[bool, Optional[int]]:
        """Serve one request at (global) time *t*.

        Returns ``(hit, victim)`` where *victim* is the page evicted to
        admit *page* (``None`` on hits and on misses with free slots).
        Mechanics mirror the reference engine loop line for line.
        """
        cache = self.cache
        policy = self.policy
        fl = self.flight
        if page in cache:
            policy.on_hit(page, t)
            if fl is not None:
                fl.append((t, page, self.shard_id))
            return True, None
        if len(cache) < self.slots:
            cache.add(page)
            policy.on_insert(page, t)
            if fl is not None:
                record_miss(
                    fl.append, policy, self._fl_budgets,
                    self._fl_owners[page], t, page, self.shard_id, None, None,
                )
            return False, None
        timing = self.timing
        if timing is None:
            victim = policy.choose_victim(page, t)
        else:
            t0 = perf_counter()
            victim = policy.choose_victim(page, t)
            timing[0] += perf_counter() - t0
            timing[1] += 1
        if self._validate:
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
            if fl is not None and self._fl_budgets
            else None
        )
        cache.remove(victim)
        policy.on_evict(victim, t)
        cache.add(page)
        policy.on_insert(page, t)
        self.evictions += 1
        if fl is not None:
            record_miss(
                fl.append, policy, self._fl_budgets,
                self._fl_owners[page], t, page, self.shard_id, victim, b_before,
            )
        return False, victim

    @property
    def occupancy(self) -> int:
        return len(self.cache)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CacheShard(id={self.shard_id}, policy={self.policy.name!r}, "
            f"{len(self.cache)}/{self.slots})"
        )


class ShardManager:
    """Hash-partition pages across ``S`` independent policy shards.

    Parameters
    ----------
    policy:
        A registry name (``"lru"``), a policy factory, or — only with
        ``num_shards=1`` — an already-built :class:`EvictionPolicy`
        instance.
    num_shards:
        ``S >= 1``; requires ``k >= S`` so every shard has a slot.
    k:
        Total cache capacity; shard *i* gets ``k//S`` slots plus one of
        the ``k % S`` remainder slots (low shard ids first).
    owners:
        Page-ownership array (the trace's ``owners``), defining the
        page universe and tenant count.
    costs:
        Per-tenant cost functions; required by ``requires_costs``
        policies, optional otherwise.
    policy_seed:
        Base seed for stochastic policies: shard *i*'s instance is
        built with ``rng=policy_seed + i``.
    trace:
        Full trace, needed only by ``requires_future`` policies
        (Belady) — and those are restricted to ``num_shards=1``, since
        shard-local victim choices against global request times are
        only coherent when the shard sees the whole sequence.
    horizon:
        Upper bound on requests served (sizes ALG-CONT's dual ledger);
        pass the trace length when replaying.
    validate:
        Check victims are resident (disable in throughput benchmarks).
    shard_ids:
        The shards to build, in order (default: all ``S``).  A
        :class:`~repro.serve.workers.ShardWorkerPool` worker builds
        only the shards it owns; pages placed on any other shard must
        not be served here.
    """

    def __init__(
        self,
        policy: PolicySpec,
        num_shards: int,
        k: int,
        owners: np.ndarray,
        costs: Optional[Sequence[CostFunction]] = None,
        *,
        policy_seed: Optional[int] = None,
        trace: Optional[Trace] = None,
        horizon: int = 0,
        validate: bool = True,
        shard_ids: Optional[Sequence[int]] = None,
    ) -> None:
        self.num_shards = check_positive_int(num_shards, "num_shards")
        self.k = check_positive_int(k, "k")
        if self.k < self.num_shards:
            raise ValueError(
                f"k={k} cannot fill {num_shards} shards (need k >= num_shards)"
            )
        owners = np.ascontiguousarray(np.asarray(owners, dtype=np.int64))
        if owners.ndim != 1 or owners.size == 0:
            raise ValueError("owners must be a non-empty 1-D array")
        self.owners = owners
        self.num_pages = int(owners.size)
        self.num_users = int(owners.max()) + 1
        self.costs = costs
        ids = range(self.num_shards) if shard_ids is None else shard_ids
        self.shard_ids: Tuple[int, ...] = tuple(int(sid) for sid in ids)
        if not self.shard_ids or not (
            len(set(self.shard_ids)) == len(self.shard_ids)
            and all(0 <= sid < self.num_shards for sid in self.shard_ids)
        ):
            raise ValueError(
                f"shard_ids must be distinct ids in [0, {self.num_shards}), "
                f"got {shard_ids}"
            )

        instances = self._build_instances(policy, policy_seed)
        self.policy_name = instances[0].name
        if instances[0].requires_costs and costs is None:
            raise ValueError(f"{self.policy_name} requires cost functions")
        if costs is not None and len(costs) < self.num_users:
            raise ValueError(
                f"need {self.num_users} cost functions, got {len(costs)}"
            )
        if instances[0].requires_future:
            if trace is None:
                raise ValueError(
                    f"{self.policy_name} requires the full trace (offline policy)"
                )
            if self.num_shards != 1:
                raise ValueError(
                    "offline (requires_future) policies only serve with num_shards=1"
                )

        slots = shard_slots(self.k, self.num_shards)
        self.shards: List[CacheShard] = []
        for sid, inst in zip(self.shard_ids, instances):
            ctx = SimContext(
                k=slots[sid],
                owners=owners,
                num_users=self.num_users,
                costs=costs,
                trace=trace if inst.requires_future else None,
                num_pages=self.num_pages,
                horizon=horizon,
            )
            self.shards.append(
                CacheShard(sid, inst, ctx.k, ctx, validate=validate)
            )
        #: page → shard id over the whole universe.
        self._table = shard_table(self.num_pages, self.num_shards)
        #: page → the built :class:`CacheShard` serving it (``None`` for
        #: pages of shards this manager did not build).
        by_id = {shard.shard_id: shard for shard in self.shards}
        self._route: List[Optional[CacheShard]] = (
            [self.shards[0]] * self.num_pages
            if self.num_shards == 1
            else [by_id.get(sid) for sid in self._table.tolist()]
        )

    def _build_instances(
        self, policy: PolicySpec, policy_seed: Optional[int]
    ) -> List[EvictionPolicy]:
        """One policy instance per built shard: shard *i* of a stochastic
        policy draws from ``rng=policy_seed + i`` whichever process
        builds it."""
        if isinstance(policy, EvictionPolicy):
            if self.num_shards != 1:
                raise ValueError(
                    "a pre-built policy instance cannot be shared across "
                    "shards; pass a name or factory for num_shards > 1"
                )
            return [policy]
        if isinstance(policy, str):
            from repro.policies import POLICY_REGISTRY

            try:
                factory: Callable[..., EvictionPolicy] = POLICY_REGISTRY[policy]
            except KeyError:
                known = ", ".join(sorted(POLICY_REGISTRY))
                raise KeyError(
                    f"unknown policy {policy!r}; known: {known}"
                ) from None
        else:
            factory = policy
        return [
            make_policy_instance(
                factory, None if policy_seed is None else policy_seed + sid
            )
            for sid in self.shard_ids
        ]

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def shard_of(self, page: int) -> int:
        """Shard id owning *page* (stable splitmix64 placement)."""
        return int(self._table[page])

    def serve(self, page: int, t: int) -> Tuple[bool, Optional[int], int]:
        """Route one request; returns ``(hit, victim, shard_id)``."""
        shard = self._route[page]
        hit, victim = shard.serve(page, t)
        return hit, victim, shard.shard_id

    def serve_batch(self, pages: Sequence[int], ts: Sequence[int]) -> List[bool]:
        """Serve ``pages[i]`` at global time ``ts[i]``, in order; returns
        the hit flags.  The batched form of :meth:`serve`: one list
        lookup per request routes it, and no per-request tuple is
        built beyond the shard's own."""
        route = self._route
        return [route[p].serve(p, t)[0] for p, t in zip(pages, ts)]

    def reset(self) -> None:
        for shard in self.shards:
            shard.reset()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def occupancy(self) -> List[int]:
        """Resident pages per built shard."""
        return [shard.occupancy for shard in self.shards]

    def capacities(self) -> List[int]:
        """Slot allocation per built shard (sums to ``k`` when every
        shard is built)."""
        return [shard.slots for shard in self.shards]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardManager(policy={self.policy_name!r}, S={self.num_shards}, "
            f"k={self.k}, pages={self.num_pages})"
        )


class ShardGroup:
    """The serving core of one process: a :class:`ShardManager` over the
    shards it owns, a :class:`~repro.serve.accounting.CostLedger` slice,
    and an optional invariant monitor.

    Every serving back-end runs one: :class:`~repro.serve.server.
    CacheServer` at ``workers=1`` over its own shards and ledger, each
    :class:`~repro.serve.workers.ShardWorkerPool` worker over the
    shards it owns, and :func:`repro.obs.monitor.watch_simulation` over
    a single shard.  Requests carry their global clock value, so the
    ledger slices of a partition of the shards merge exactly
    (:meth:`~repro.serve.accounting.CostLedger.merge`).

    Parameters
    ----------
    shards:
        The manager to serve through.
    ledger:
        The accounting slice; sized for every tenant.
    monitor:
        :class:`~repro.obs.monitor.InvariantMonitor` sampled against
        ``shards``' policies every *monitor_every* served requests
        (``0``: never sampled, only reported by :meth:`snapshot`).
    on_drift:
        Called after a sample that raised a new drift flag (the server
        auto-dumps its flight ring from here).
    """

    def __init__(
        self,
        shards: ShardManager,
        ledger: CostLedger,
        monitor: Optional[InvariantMonitor] = None,
        monitor_every: int = 0,
        on_drift: Optional[Callable[[], None]] = None,
    ) -> None:
        if monitor_every < 0:
            raise ValueError(f"monitor_every must be >= 0, got {monitor_every}")
        self.shards = shards
        self.ledger = ledger
        self.monitor = monitor
        self.on_drift = on_drift
        #: ``owners.tolist()``, shared with the shards' flight recorders.
        self.owners_list: List[int] = shards.owners.tolist()
        self._policies = [shard.policy for shard in shards.shards]
        #: Requests between monitor samples (0: never sample).
        self._sample_every = monitor_every if monitor is not None else 0
        self._since_sample = 0
        self._flags_seen = 0 if monitor is None else len(monitor.flags)

    def apply(
        self, pages: Sequence[int], ts: Sequence[int], detail: bool = False
    ) -> list:
        """Serve one routed batch: ``pages[i]`` at global time ``ts[i]``.

        One batched call into the shards and one batched
        :meth:`~repro.serve.accounting.CostLedger.record` per stretch
        between monitor samples: a batch is cut wherever it crosses the
        sampling cadence, so the monitor samples every *monitor_every*
        requests however the stream is batched.  Returns the hit flags,
        or ``(hit, victim, shard_id)`` per request when *detail* is
        set."""
        every = self._sample_every
        if not every:
            return self._serve(pages, ts, detail)
        served: list = []
        while self._since_sample + len(pages) >= every:
            cut = every - self._since_sample
            served += self._serve(pages[:cut], ts[:cut], detail)
            self._since_sample = 0
            self.sample(ts[cut - 1] + 1)
            pages, ts = pages[cut:], ts[cut:]
        if len(pages):
            self._since_sample += len(pages)
            served += self._serve(pages, ts, detail)
        return served

    def _serve(self, pages: Sequence[int], ts: Sequence[int], detail: bool) -> list:
        shards = self.shards
        if detail:
            served = [shards.serve(p, t) for p, t in zip(pages, ts)]
            flags = [row[0] for row in served]
        else:
            served = flags = shards.serve_batch(pages, ts)
        owners = self.owners_list
        self.ledger.record([owners[p] for p in pages], flags, ts)
        return served

    def sample(self, t: int) -> None:
        """Sample the monitor at global time *t*; calls ``on_drift`` when
        the sample raised a new flag."""
        monitor = self.monitor
        monitor.sample(t, self.ledger.misses_by_user(), policies=self._policies)
        flags = len(monitor.flags)
        if flags > self._flags_seen:
            self._flags_seen = flags
            if self.on_drift is not None:
                self.on_drift()

    def snapshot(self) -> Dict[str, object]:
        """Ground truth for the scrape paths: the live ledger, one row
        per shard, and the monitor's flag and sample counts."""
        monitor = self.monitor
        return {
            "ledger": self.ledger,
            "shards": [
                {
                    "shard": s.shard_id,
                    "occupancy": s.occupancy,
                    "slots": s.slots,
                    "evictions": s.evictions,
                    "timing": list(s.timing) if s.timing is not None else None,
                }
                for s in self.shards.shards
            ],
            "monitor_flags": 0 if monitor is None else len(monitor.flags),
            "monitor_samples": 0 if monitor is None else len(monitor.samples),
        }


__all__ = [
    "CacheShard",
    "ShardGroup",
    "ShardManager",
    "page_hash",
    "page_hash_array",
    "make_policy_instance",
    "shard_slots",
    "shard_table",
]
