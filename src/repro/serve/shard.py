"""Shard management for the serving subsystem.

A :class:`CacheShard` is one policy instance and its slots, served
through the kernel every path shares
(:class:`~repro.sim.engine.CacheState`): a routed batch reaches each
shard as its subsequence of the global clock, and the shard applies it
with the engine's hit-run scanner and miss step.  A
:class:`ShardManager` hash-partitions the page universe across ``S``
independent shards, each owning a private policy instance and ``k/S``
slots, so victim choices never cross shard boundaries and per-shard
state stays small.  :meth:`ShardManager.serve_batch` groups a batch by
shard once, with numpy, and makes one kernel call per shard segment
(a batch of at most :data:`~repro.sim.engine.SMALL_BATCH` requests is
routed request by request instead, each miss through the kernel's miss
step); it returns the misses by position, and hit flags, replies and
the ledger's per-tenant counts are built from them.  A
:class:`ShardGroup` is what one process serves with: a manager over
the shards that process owns, a :class:`~repro.serve.accounting.
CostLedger` slice, and an optional invariant monitor.

Determinism contract (enforced by ``tests/test_serve_equivalence.py``
and ``tests/test_kernel.py``): with ``num_shards=1`` the manager IS
the engine — same victim choices, same per-tenant miss counts, request
for request — for every registered policy, because the single shard
sees the identical ``(page, t)`` sequence under an identical
:class:`~repro.sim.policy.SimContext` and applies it through the same
kernel.  Stochastic policies are seeded per shard as ``policy_seed +
shard_id`` so shard 0 reproduces a ``factory(rng=policy_seed)`` run
exactly.

Pages are assigned to shards by a splitmix64-style integer hash (not
``page % S``): workload builders allocate tenants contiguous page
ranges, and a modulo split would alias tenant locality into shard
imbalance.  The hash is evaluated once per page of the universe
(:func:`shard_table`), never per request.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.cost_functions import CostFunction
from repro.obs.flight import FlightRecorder
from repro.obs.monitor import InvariantMonitor
from repro.serve.accounting import CostLedger
from repro.sim.engine import SMALL_BATCH, CacheState, serve_each
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


def hit_flags(n: int, misses: Sequence[int]) -> List[bool]:
    """Per-request hit flags of an *n*-request batch whose requests at
    positions *misses* missed."""
    flags = [True] * n
    for i in misses:
        flags[i] = False
    return flags


class CacheShard(CacheState):
    """One shard: a policy instance and its ``k`` slots under the
    kernel's mechanics (:class:`~repro.sim.engine.CacheState`), so any
    registered policy serves unchanged.  ``timing`` is the server's
    per-shard decision timer; ``evictions`` counts for observability.
    """

    __slots__ = ("shard_id", "_ctx")

    def __init__(
        self,
        shard_id: int,
        policy: EvictionPolicy,
        slots: int,
        ctx: SimContext,
        validate: bool = True,
    ) -> None:
        super().__init__(
            policy, check_positive_int(slots, "slots"), ctx.num_pages,
            validate=validate, tag=shard_id,
        )
        self.shard_id = shard_id
        self._ctx = ctx
        policy.reset(ctx)

    def attach_flight(
        self, recorder: FlightRecorder, owners_list: Optional[List[int]] = None
    ) -> None:
        """:meth:`~repro.sim.engine.CacheState.attach_flight`, with
        *owners_list* defaulting to this shard's ``owners.tolist()``."""
        if owners_list is None:
            owners_list = self._ctx.owners.tolist()
        super().attach_flight(recorder, owners_list)

    def reset(self) -> None:
        """Empty the shard and return the policy to its initial state."""
        self.clear()
        if self.timing is not None:
            self.timing[0] = 0.0
            self.timing[1] = 0
        self.policy.reset(self._ctx)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CacheShard(id={self.shard_id}, policy={self.policy.name!r}, "
            f"{self.size}/{self.k})"
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
        #: page → index into :attr:`shards` (``len(shards)`` for pages
        #: of shards this manager did not build).
        local = np.full(
            self.num_shards, len(self.shards),
            dtype=np.uint8 if len(self.shards) < 255 else np.int64,
        )
        local[list(self.shard_ids)] = np.arange(len(self.shards))
        self._local = local[self._table]
        #: The same table as a list, for per-request routing.
        self._at: List[int] = self._local.tolist()

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
        shard = self.shards[self._at[page]]
        if not shard.res[page]:
            return False, shard.admit(page, t), shard.shard_id
        if not shard.policy.ignores_hits:
            shard.policy.on_hit(page, t)
        if shard.fl_append is not None:
            shard.fl_append((t, page, shard.tag))
        return True, None, shard.shard_id

    def serve_batch(self, pages: Sequence[int], ts: Sequence[int]) -> List[int]:
        """Serve ``pages[i]`` at global time ``ts[i]`` (strictly
        increasing); returns the positions of the misses, unordered.

        *pages* is a list of ints or an int64 array, *ts* a sequence of
        ints or an int array.  One built shard applies the batch in one
        kernel call.  Over several, a batch of at most
        :data:`~repro.sim.engine.SMALL_BATCH` requests, or any batch
        while a flight recorder is attached (its window must stay in
        global time order), is served request by request; a larger one
        is grouped by shard once, with numpy, and each shard applies its
        subsequence in one kernel call.  Every page must be placed on a
        shard this manager built."""
        shards = self.shards
        arr = pages if isinstance(pages, np.ndarray) else None
        ts_arr = ts if isinstance(ts, np.ndarray) else None
        if len(shards) == 1:
            return shards[0].apply(
                pages if arr is None else arr.tolist(),
                ts if ts_arr is None else ts_arr.tolist(),
                arr,
            )
        if len(pages) <= SMALL_BATCH or any(
            shard.fl_append is not None for shard in shards
        ):
            return serve_each(
                shards,
                self._at,
                pages if arr is None else arr.tolist(),
                ts if ts_arr is None else ts_arr.tolist(),
            )
        if arr is None:
            arr = np.array(pages, dtype=np.int64)
        if ts_arr is None:
            ts_arr = np.asarray(ts, dtype=np.int64)
        local = self._local[arr]
        ends = np.bincount(local, minlength=len(shards)).cumsum().tolist()
        if len(ends) > len(shards):
            raise ValueError("batch holds pages of shards this manager did not build")
        misses: List[int] = []
        order = local.argsort(kind="stable")
        seg_arr = arr[order]
        seg_req = seg_arr.tolist()
        seg_ts = ts_arr[order].tolist()
        lo = 0
        for shard, hi in zip(shards, ends):
            if hi > lo:
                missed = shard.apply(seg_req[lo:hi], seg_ts[lo:hi], seg_arr[lo:hi])
                if missed:
                    misses += order[lo:hi][missed].tolist()
            lo = hi
        return misses

    def reset(self) -> None:
        for shard in self.shards:
            shard.reset()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def occupancy(self) -> List[int]:
        """Resident pages per built shard."""
        return [shard.size for shard in self.shards]

    def capacities(self) -> List[int]:
        """Slot allocation per built shard (sums to ``k`` when every
        shard is built)."""
        return [shard.k for shard in self.shards]

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
        self._owners = shards.owners
        self._policies = [shard.policy for shard in shards.shards]
        #: Requests between monitor samples (0: never sample).
        self._sample_every = monitor_every if monitor is not None else 0
        self._since_sample = 0
        self._flags_seen = 0 if monitor is None else len(monitor.flags)

    def apply(self, pages: Sequence[int], ts: Sequence[int]) -> List[int]:
        """Serve one routed batch: ``pages[i]`` (a sequence of ints or an
        int64 array) at global time ``ts[i]``.

        One :meth:`ShardManager.serve_batch` and one
        :meth:`~repro.serve.accounting.CostLedger.record` per stretch
        between monitor samples: a batch is cut wherever it crosses the
        sampling cadence, so the monitor samples every *monitor_every*
        requests however the stream is batched.  Returns the positions
        of the misses (:func:`hit_flags` makes flags of them)."""
        every = self._sample_every
        if not every:
            return self._serve(pages, ts)
        misses: List[int] = []
        done = 0
        while self._since_sample + len(pages) >= every:
            cut = every - self._since_sample
            misses += self._serve(pages[:cut], ts[:cut], done)
            self._since_sample = 0
            self.sample(int(ts[cut - 1]) + 1)
            pages, ts = pages[cut:], ts[cut:]
            done += cut
        if len(pages):
            self._since_sample += len(pages)
            misses += self._serve(pages, ts, done)
        return misses

    def _serve(
        self, pages: Sequence[int], ts: Sequence[int], offset: int = 0
    ) -> List[int]:
        misses = self.shards.serve_batch(pages, ts)
        if len(pages) <= SMALL_BATCH:
            owners = self.owners_list
            tenants = [owners[p] for p in pages]
        else:
            tenants = self._owners.take(pages)
        self.ledger.record(tenants, misses, ts)
        return [offset + i for i in misses] if offset else misses

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
                    "occupancy": s.size,
                    "slots": s.k,
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
    "hit_flags",
    "page_hash",
    "page_hash_array",
    "make_policy_instance",
    "shard_slots",
    "shard_table",
]
