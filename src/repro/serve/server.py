"""The asyncio cache server.

:class:`CacheServer` turns any registered eviction policy into a live
multi-tenant serving process: requests arrive through an in-process
async API or a line-delimited-JSON TCP front end, flow through one
bounded ingress queue, and are applied to the shard set in strict
arrival order by a single consumer task (cache mutations stay
sequential, exactly like the engine, so results are reproducible and
policies need no locking).

Every submission is a batch of pages; a single request
(:meth:`CacheServer.request`, the TCP ``request`` op) is a batch of
one.  The consumer serves in **runs**: each time it wakes it takes
every submission already queued and applies consecutive ones in one
call (one framed exchange per worker at ``W > 1``), then completes
their futures in submission order.  A TCP connection **reads ahead**:
each ``batch`` or ``request`` line is submitted as soon as it is read
and answered from its future's done callback, so a pipelining client
keeps several submissions queued and the consumer sees them as one
run.  The replies of a run leave in one write per connection, so such
a client sends its next lines together too.

TCP carries only the data path — ``batch``, ``request`` and ``ping``.
Reads of the server's state (``/stats``, ``/metrics``, ``/audit``,
``/alerts``) are served by the HTTP admin plane
(:meth:`CacheServer.start_http`, :mod:`repro.obs.httpd`).

Flow control is two-level:

* **global** — the ingress queue is bounded (``queue_limit`` batches);
  producers block in ``await`` when the consumer falls behind;
* **per tenant** — a :class:`TenantGate` caps each tenant's queued
  requests (``tenant_inflight``), so one flooding tenant saturates its
  own gate instead of the shared queue (cf. the per-tenant guarantees
  that motivate *Caching with Reserves*-style systems).

Shutdown semantics: :meth:`CacheServer.stop` closes the ingress (new
submissions raise :class:`ServerClosed`), lets the consumer drain
everything already accepted, then stops.  The same guarantee holds
under fault injection — if the consumer task is *cancelled* mid-stream
it synchronously drains the queue before honouring the cancellation —
so an accepted request is always answered.  When applying raises (a
lost worker, or a policy error), the consumer closes the ingress and
fails every pending request with a :class:`ServerClosed` naming the
cause instead of dying silently.  Enforced by
``tests/test_serve_server.py`` and ``tests/test_serve_workers.py``.

The ``/stats`` snapshot (:meth:`CacheServer.stats`) is a plain dict:
totals, per-tenant hits/misses/cost/marginal quote, queue depth, and
per-shard occupancy.
"""

from __future__ import annotations

import asyncio
import json
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from time import monotonic, perf_counter
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.cost_functions import CostFunction
from repro.obs import Observability, RateWindow
from repro.obs.distrib import emit_span
from repro.obs.registry import CollectedFamily
from repro.obs.timeline import Timeline
from repro.serve.accounting import CostLedger
from repro.serve.shard import PolicySpec, ShardGroup, ShardManager, hit_flags
from repro.sim.trace import Trace
from repro.util.validation import check_positive_int


class ServerClosed(RuntimeError):
    """Raised when submitting to a server that is stopping/stopped."""


class ApplyFailed(ServerClosed):
    """Applying a run raised in this process (a policy or ledger
    error): the server closed its ingress and failed every pending
    request with this error, whose ``__cause__`` is the original."""


#: Shared no-op context manager for unsampled ingress spans —
#: ``nullcontext`` holds no state, so one instance is reusable.
_NULL_CM = nullcontext()


@dataclass(frozen=True)
class RequestOutcome:
    """Answer to one served request."""

    page: int
    tenant: int
    hit: bool
    t: int
    shard: int


@dataclass(frozen=True)
class BatchOutcome:
    """Answer to one pipelined batch; ``hit_flags[i]`` covers
    ``pages[i]`` in submission order."""

    t0: int
    hits: int
    misses: int
    hit_flags: List[bool]


#: What a malformed TCP line raises while it is decoded and checked.
_BAD_LINE = (KeyError, TypeError, ValueError, IndexError, OverflowError)

#: The longest TCP line the server reads, newline excluded: asyncio's
#: default stream limit.  A longer line is answered with an error and
#: discarded; the connection's later lines are served in order.
_LINE_LIMIT = 2 ** 16


def _batch_pages(msg: Dict[str, object]) -> list:
    """The pages of a ``batch`` op.  type() is exact: bools, floats and
    strings are refused."""
    pages = msg["pages"]
    if type(pages) is not list or not set(map(type, pages)) <= {int}:
        raise TypeError("pages must be a JSON array of integers")
    return pages


def _batch_reply(out: BatchOutcome, detail: object) -> Dict[str, object]:
    """The reply line of a served ``batch`` op."""
    resp: Dict[str, object] = {
        "ok": True, "hits": out.hits, "misses": out.misses, "t0": out.t0,
    }
    if detail:
        resp["hit_flags"] = out.hit_flags
    return resp


#: The reply to a TCP line longer than :data:`_LINE_LIMIT`.
_TOO_LONG = {"ok": False, "error": f"line longer than {_LINE_LIMIT} bytes"}


async def _read_line(reader: asyncio.StreamReader) -> Optional[bytes]:
    """The next line of *reader*, newline included (``b""`` at EOF; a
    last line without a newline is returned as it is), or ``None`` for
    a line longer than the reader's limit — read on to its newline and
    discarded, so the next call returns the line after it."""
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        return exc.partial
    except asyncio.LimitOverrunError as exc:
        scanned = exc.consumed
    while True:
        # Drop what was scanned, then look for the newline past it.
        await reader.readexactly(scanned)
        try:
            await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError:
            pass  # the stream ended inside the line
        except asyncio.LimitOverrunError as exc:
            scanned = exc.consumed
            continue
        return None


class TenantGate:
    """A counting gate: at most *capacity* queued requests per tenant.

    ``asyncio.Semaphore`` with n-credit acquire; batch submissions
    charge ``min(n, capacity)`` credits so a batch larger than the gate
    cannot deadlock itself (it still throttles: the next batch waits
    until those credits return).
    """

    __slots__ = ("capacity", "_available", "_waiters")

    def __init__(self, capacity: int) -> None:
        self.capacity = check_positive_int(capacity, "capacity")
        self._available = capacity
        self._waiters: Deque[Tuple[int, asyncio.Future]] = deque()

    async def acquire(self, n: int = 1) -> int:
        """Take ``min(n, capacity)`` credits, waiting if necessary;
        returns the number actually taken (to hand to :meth:`release`)."""
        n = min(n, self.capacity)
        if self._available >= n and not self._waiters:
            self._available -= n
            return n
        fut = asyncio.get_running_loop().create_future()
        self._waiters.append((n, fut))
        try:
            await fut
        except asyncio.CancelledError:
            if fut.done() and not fut.cancelled():
                # Credits were granted after the cancellation raced in;
                # hand them back.
                self.release(n)
            else:
                try:
                    self._waiters.remove((n, fut))
                except ValueError:
                    pass  # release() already discarded the cancelled entry
            raise
        return n

    def release(self, n: int) -> None:
        """Return *n* credits and wake whoever now fits (FIFO)."""
        self._available += n
        while self._waiters:
            need, fut = self._waiters[0]
            if fut.cancelled():
                self._waiters.popleft()
                continue
            if self._available < need:
                break
            self._waiters.popleft()
            self._available -= need
            fut.set_result(None)

    @property
    def queued(self) -> int:
        """Requests currently holding credits."""
        return self.capacity - self._available


#: Queue items: (pages, future, per-tenant credits to release, enqueue
#: timestamp for queue-wait accounting — 0.0 when obs is off, route
#: slot).  The route slot is a TCP submission's ``[trace_id, router
#: span id]``, filled when the submission is routed traced, so its
#: reply span links into the tree; ``None`` elsewhere.
_Item = Tuple[
    Sequence[int],
    "asyncio.Future",
    Optional[List[Tuple[int, int]]],
    float,
    Optional[List[int]],
]


class _Outbox:
    """A TCP connection's reply lines, written once per loop iteration.

    The consumer completes a run's futures together, so their reply
    callbacks run back to back; one write for all of them reaches the
    client as one segment, and a pipelining client answers with its
    next lines together, which the consumer then serves as one run."""

    __slots__ = ("writer", "lines")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.lines: List[bytes] = []

    def put(self, line: bytes) -> None:
        if not self.lines:
            asyncio.get_running_loop().call_soon(self.flush)
        self.lines.append(line)

    def flush(self) -> None:
        if self.lines and not self.writer.is_closing():
            self.writer.write(b"".join(self.lines))
        self.lines.clear()


class CacheServer:
    """Serve live per-tenant request streams against a sharded cache.

    Parameters
    ----------
    policy:
        Registry name, factory, or (``num_shards=1`` only) instance.
    k:
        Total cache capacity across shards.
    owners:
        Page-ownership array defining the page universe.
    costs:
        Per-tenant cost functions (required for cost-aware policies,
        and for cost/quote fields in ``/stats``).
    num_shards:
        Independent policy shards (see :class:`ShardManager`).
    queue_limit:
        Ingress queue bound, in *submissions* (single requests or
        batches).
    tenant_inflight:
        Per-tenant queued-request cap; ``None`` disables the gates.
    window:
        Optional request-count window for SLA accounting.
    policy_seed, trace, horizon, validate:
        Passed through to :class:`ShardManager`.
    workers:
        OS processes serving the shard set, this one included (clamped
        to ``num_shards``).  The default ``1`` serves in-process
        through one :class:`~repro.serve.shard.ShardGroup` over
        :attr:`shards`; with ``W > 1`` a
        :class:`~repro.serve.workers.ShardWorkerPool` is started
        alongside the consumer — shard *s* lives in worker ``s % W``,
        which serves it through a group of its own.  Worker 0 runs in
        this process and workers ``1 … W−1`` in ``W − 1`` child
        processes: the consumer routes each run of queued batches with
        the same splitmix64 placement, sends each child one framed pipe
        exchange, serves worker 0's share while the children serve
        theirs, and merges the replies back into submission order.
        Either way one consumer path builds the outcomes, so
        backpressure and drain semantics are the same and results are
        bit-identical for any ``W`` (the global clock is assigned
        before routing).  Scrape paths merge the workers' ledgers,
        keeping ``/stats`` and ``/metrics`` exact.
    obs:
        Telemetry bundle (:class:`~repro.obs.Observability`).  Defaults
        to a fresh, env-gated bundle per server so collector metric
        names never collide across servers.  When its registry is
        disabled (``REPRO_OBS=off``) the hot path takes a single extra
        boolean check; ``/metrics`` still renders ground-truth
        counters via scrape-time collectors.
    monitor_every:
        When ``obs.monitor`` is set, sample the invariant monitor every
        this many served requests (0 disables sampling).
    profile:
        Sampling profiler (:mod:`repro.obs.prof`): ``True`` installs
        one at the default interval in this process — which covers
        worker 0 — *and* in every worker process; a float sets the
        interval in seconds; ``None``/``False`` (default) disables it.
        Folded stacks are available from :meth:`profile_folded` after
        :meth:`stop` (worker profiles are gathered before the pool
        shuts down).
    trace_sample:
        Head-sampling rate for distributed traces: trace every *N*-th
        submission (default 1 = every submission).  Unsampled
        submissions carry ``trace_id=0`` on the worker wire — workers
        skip their span spills automatically — and emit no parent-side
        spans, so tracing cost scales with ``1/N`` while every sampled
        tree stays complete (ingress → route → worker applies).  A
        sampled submission is served in an apply call of its own, so
        its tree covers exactly its requests.  The wire format is
        identical either way.
    """

    def __init__(
        self,
        policy: PolicySpec,
        k: int,
        owners: np.ndarray,
        costs: Optional[Sequence[CostFunction]] = None,
        *,
        num_shards: int = 1,
        queue_limit: int = 1024,
        tenant_inflight: Optional[int] = None,
        window: Optional[int] = None,
        policy_seed: Optional[int] = None,
        trace: Optional[Trace] = None,
        horizon: int = 0,
        validate: bool = True,
        name: str = "serve",
        obs: Optional[Observability] = None,
        monitor_every: int = 1024,
        workers: int = 1,
        profile: object = None,
        trace_sample: int = 1,
        http_port: Optional[int] = None,
        http_host: str = "127.0.0.1",
        alerts: object = None,
    ) -> None:
        self.name = name
        self.shards = ShardManager(
            policy,
            num_shards,
            k,
            owners,
            costs,
            policy_seed=policy_seed,
            trace=trace,
            horizon=horizon,
            validate=validate,
        )
        #: Effective worker-process count (1 = in-process serving).
        self.workers = min(
            check_positive_int(workers, "workers"), self.shards.num_shards
        )
        # The pool rebuilds the shard set from the same spec, so keep it.
        self._policy_spec = policy
        self._policy_seed = policy_seed
        self._trace = trace
        self._horizon = horizon
        self._validate = validate
        self._window = window
        self._costs = costs
        self._pool = None
        self._pool_final: Optional[Dict[str, object]] = None
        self.owners = self.shards.owners
        self._queue_limit = check_positive_int(queue_limit, "queue_limit")
        self._tenant_inflight = (
            None
            if tenant_inflight is None
            else check_positive_int(tenant_inflight, "tenant_inflight")
        )
        self._gates: Optional[List[TenantGate]] = None
        self._queue: Optional[asyncio.Queue] = None
        self._consumer: Optional[asyncio.Task] = None
        self._tcp_server: Optional[asyncio.AbstractServer] = None
        self._t = 0
        self._closed = True
        from repro.obs.prof import profile_spec

        self._profile = profile_spec(profile)
        self.profiler = None
        self._pool_profiles: Dict[str, Dict[str, int]] = {}
        self._timeline_task: Optional[asyncio.Task] = None
        self._trace_sample = check_positive_int(trace_sample, "trace_sample")
        self._trace_seq = 0
        self._ingress_seq = 0

        # --- Telemetry --------------------------------------------------
        self.obs = obs if obs is not None else Observability()
        reg = self.obs.registry
        self._metrics_on = reg.enabled
        self._tracing_on = self.obs.tracer.enabled
        self._obs_active = self._metrics_on or self._tracing_on
        # Latency histograms cover the pipeline stages: queue wait
        # (enqueue -> the start of the apply call that serves it), one
        # observation per submission, and apply (shard dispatch + policy
        # decisions), one per apply call — a run of batches or a lone
        # submission — so its sum is busy time.  NULL_METRIC when off.
        self._h_queue = reg.histogram(
            "serve_queue_wait_seconds",
            "Time a submission spends in the ingress queue",
        )
        self._h_apply = reg.histogram(
            "serve_apply_seconds",
            "Time of one apply call (a run of batches, or one submission)",
        )
        # Ground-truth counters come from scrape-time collectors (the
        # ledger/shards are the source of truth), so the hot path never
        # double-books and `/metrics` stays exact under REPRO_OBS=off.
        reg.register_collector(self._collect_metrics)
        self._rates = RateWindow()
        #: The in-process serving core (idle at ``workers > 1``, where
        #: every worker runs its own): it samples ``obs.monitor`` every
        #: *monitor_every* requests and auto-dumps the flight ring on a
        #: new drift flag.
        self._group = ShardGroup(
            self.shards,
            CostLedger(self.shards.num_users, costs, window=window),
            self.obs.monitor,
            monitor_every,
            on_drift=partial(self._auto_dump, "invariant-drift"),
        )
        self._owners_list = self._group.owners_list
        self._monitor_every = monitor_every
        self._monitor_flags_seen = 0
        # Decision-level observability: the flight recorder attaches to
        # every shard (one tuple append per request); the auditor gets
        # one observe per request in _process.  Both default to None —
        # the common hot path keeps a single identity check.
        self._auditor = self.obs.auditor
        if self._auditor is not None:
            reg.register_collector(self._collect_audit)
        self._flight = self.obs.flight
        if self._flight is not None:
            for shard in self.shards.shards:
                shard.attach_flight(self._flight, self._owners_list)
            self._flight.note_config(
                policy=self.shards.policy_name,
                k=self.shards.k,
                num_shards=self.shards.num_shards,
                policy_seed=policy_seed,
                source=f"serve:{name}",
            )
        if self._obs_active:
            for shard in self.shards.shards:
                shard.timing = [0.0, 0]

        # --- Alerting + HTTP admin plane --------------------------------
        # Alert rules evaluate on the timeline tick (zero per-request
        # work).  ``http_port=`` auto-builds a default engine over the
        # serve rule pack when none was given; an explicit ``alerts=``
        # engine must read the same timeline the server ticks.
        self._http_port = http_port
        self._http_host = http_host
        self._httpd = None
        self.http_address: Optional[Tuple[str, int]] = None
        self._crashes = 0
        if alerts is None and http_port is not None:
            from repro.obs.alerts import AlertEngine, serve_rule_pack

            if self.obs.timeline is None:
                self.obs.timeline = Timeline()
            alerts = AlertEngine(
                self.obs.timeline,
                serve_rule_pack(queue_limit=self._queue_limit),
            )
        if alerts is not None:
            engine_timeline = alerts.timeline  # type: ignore[attr-defined]
            if self.obs.timeline is None:
                self.obs.timeline = engine_timeline
            elif engine_timeline is not self.obs.timeline:
                raise ValueError(
                    "alerts.timeline must be obs.timeline — the engine "
                    "reads the ring this server's timeline tick feeds"
                )
        self.alerts = alerts

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "CacheServer":
        """Create the ingress queue and start the consumer task."""
        if self._consumer is not None and not self._consumer.done():
            raise RuntimeError("server already started")
        if self.workers > 1 and self._pool is None:
            # Imported lazily: workers.py imports ServerClosed from here.
            from repro.serve.workers import ShardWorkerPool

            flight = self._flight
            self._pool = ShardWorkerPool(
                self._policy_spec,
                self.workers,
                self.shards.num_shards,
                self.shards.k,
                self.owners,
                self._costs,
                policy_seed=self._policy_seed,
                trace=self._trace,
                horizon=self._horizon,
                validate=self._validate,
                window=self._window,
                timing=self._obs_active,
                flight_capacity=flight.capacity if flight is not None else 0,
                flight_meta={
                    "policy": self.shards.policy_name,
                    "k": self.shards.k,
                    "num_shards": self.shards.num_shards,
                    "policy_seed": self._policy_seed,
                    "source": f"serve:{self.name}",
                },
                monitor=self.obs.monitor is not None
                and self._monitor_every > 0,
                monitor_every=self._monitor_every,
                name=self.name,
                # Workers spill spans next to the parent's JSONL trace
                # (sink path required: in-memory sinks cannot cross the
                # process boundary).
                trace_jsonl=(
                    getattr(self.obs.tracer.sink, "path", None)
                    if self._tracing_on
                    else None
                ),
                profile=self._profile,
            )
        if self._profile is not None and self.profiler is None:
            from repro.obs.prof import DEFAULT_INTERVAL, SamplingProfiler

            self.profiler = SamplingProfiler(
                float(self._profile.get("interval", DEFAULT_INTERVAL))
            ).start()
        if self.obs.timeline is not None and self._timeline_task is None:
            self._timeline_task = asyncio.create_task(
                self._timeline_loop(), name=f"{self.name}-timeline"
            )
        self._queue = asyncio.Queue(maxsize=self._queue_limit)
        if self._tenant_inflight is not None:
            self._gates = [
                TenantGate(self._tenant_inflight)
                for _ in range(self.shards.num_users)
            ]
        self._closed = False
        self._consumer = asyncio.create_task(self._run(), name=f"{self.name}-consumer")
        if self._http_port is not None and self._httpd is None:
            await self.start_http(self._http_host, self._http_port)
        return self

    async def stop(self) -> None:
        """Close the ingress, drain every accepted request, stop."""
        if self._queue is None:
            return
        self._closed = True
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
            self._tcp_server = None
        if self._consumer is not None and not self._consumer.done():
            await self._queue.put(None)  # drain sentinel
            await self._consumer
        self._consumer = None
        if self._timeline_task is not None:
            self._timeline_task.cancel()
            try:
                await self._timeline_task
            except asyncio.CancelledError:
                pass
            self._timeline_task = None
        if self._pool is not None:
            # Freeze the workers' ground truth so post-stop scrapes and
            # flight verification keep working, then shut them down.
            self._pool_snapshot(best_effort=True)
            self._sync_pool_flight(best_effort=True)
            if self._profile is not None:
                self._pool_profiles = self._pool.profile_gather(
                    best_effort=True
                )
            self._pool.close()
            self._pool = None
        if self.profiler is not None:
            self.profiler.stop()
        if self._auditor is not None:
            # End of stream: price the buffered tail so the final audit
            # covers every served request.
            self._auditor.finalize()
        # The admin plane goes away last: /ready served 503 from the
        # moment _closed flipped, through the whole drain, until here —
        # so load balancers see "draining" for the full shutdown.
        if self._httpd is not None:
            await self._httpd.stop()
            self._httpd = None

    async def drain(self) -> None:
        """Wait until everything currently queued has been served."""
        if self._queue is not None:
            await self._queue.join()

    @property
    def time(self) -> int:
        """Requests served so far (the global clock handed to policies)."""
        return self._t

    @property
    def queue_depth(self) -> int:
        """Submissions currently queued (requests + batches)."""
        return 0 if self._queue is None else self._queue.qsize()

    # ------------------------------------------------------------------
    # Submission API
    # ------------------------------------------------------------------
    def _check_pages(self, pages: Sequence[int]) -> None:
        if len(pages) == 0:
            return
        num_pages = self.shards.num_pages
        lo, hi = min(pages), max(pages)
        if lo < 0 or hi >= num_pages:
            raise ValueError(
                f"page {lo if lo < 0 else hi} outside the universe [0, {num_pages})"
            )

    def _ingress_span(self, n: int):
        """Ingress span for one submission, honouring ``trace_sample``.

        Sampling is decided per ingress (its own counter: submissions
        reach the consumer in the same order, but the spans are local
        to the parent, so the two counters need not be fused)."""
        if self._tracing_on and self._trace_sample > 1:
            self._ingress_seq += 1
            if self._ingress_seq % self._trace_sample:
                return _NULL_CM
        return self.obs.tracer.span("serve.ingress", n=n)

    async def _submit(
        self, pages: Sequence[int], route: Optional[List[int]] = None
    ) -> asyncio.Future:
        if self._closed or self._queue is None:
            raise ServerClosed(f"server {self.name!r} is not accepting requests")
        self._check_pages(pages)
        with self._ingress_span(len(pages)):
            credits: Optional[List[Tuple[int, int]]] = None
            if self._gates is not None:
                per_tenant: Dict[int, int] = {}
                for page in pages:
                    tenant = self._owners_list[page]
                    per_tenant[tenant] = per_tenant.get(tenant, 0) + 1
                credits = []
                for tenant, n in per_tenant.items():
                    taken = await self._gates[tenant].acquire(n)
                    credits.append((tenant, taken))
            fut = asyncio.get_running_loop().create_future()
            t_enq = perf_counter() if self._obs_active else 0.0
            await self._queue.put((pages, fut, credits, t_enq, route))
        return fut

    async def request(self, page: int) -> RequestOutcome:
        """Serve one page request — a batch of one; resolves once it
        has been applied."""
        return self._outcome(page, await (await self._submit((page,))))

    def _outcome(self, page: int, out: BatchOutcome) -> RequestOutcome:
        """A served batch of one, *page*, as a request's outcome."""
        return RequestOutcome(
            page=page,
            tenant=self._owners_list[page],
            hit=out.hit_flags[0],
            t=out.t0,
            shard=self.shards.shard_of(page),
        )

    async def submit_many(self, pages: Sequence[int]) -> asyncio.Future:
        """Enqueue a batch, returning the future of its
        :class:`BatchOutcome` — the pipelining primitive: submission
        order is serving order, so callers may keep several batches in
        flight and await the futures later."""
        return await self._submit(pages)

    async def request_many(self, pages: Sequence[int]) -> BatchOutcome:
        """Serve a batch and wait for its outcome."""
        fut = await self.submit_many(pages)
        return await fut

    # ------------------------------------------------------------------
    # Consumer
    # ------------------------------------------------------------------
    async def _run(self) -> None:
        queue = self._queue
        assert queue is not None
        try:
            while True:
                run = self._take(await queue.get())
                if not self._serve(run) or run[-1] is None:
                    return  # a dead worker, or the drain sentinel
        except asyncio.CancelledError:
            # Fault injection / hard shutdown: an accepted request is
            # still answered.  Serving is synchronous, so the cancel
            # can only land on the queue.get above — drain what was
            # accepted, then honour the cancellation.
            self._closed = True
            while not queue.empty():
                if not self._serve(self._take(queue.get_nowait())):
                    break
            self._auto_dump("fault-drain")
            raise

    def _take(self, first: Optional[_Item]) -> List[Optional[_Item]]:
        """A run: *first* and every submission already queued behind
        it, up to the drain sentinel."""
        queue = self._queue
        assert queue is not None
        run = [first]
        while run[-1] is not None and not queue.empty():
            run.append(queue.get_nowait())
        return run

    def _head_sample(self) -> bool:
        """Head sampling, decided once per submission in serving order."""
        if self._tracing_on and self._trace_sample > 1:
            self._trace_seq += 1
            return not self._trace_seq % self._trace_sample
        return self._tracing_on

    def _serve(self, run: List[Optional[_Item]]) -> bool:
        """Serve a run in submission order and mark it done on the queue.

        Consecutive submissions share one apply call; a head-sampled
        one gets a call of its own.
        Returns False when applying raised — a shard worker died or
        errored (``WorkerCrashed``), or a policy raised in this process:
        every request of the run not yet served and everything queued
        are answered with the error instead of hanging, and the consumer
        stops."""
        queue = self._queue
        assert queue is not None
        items = [item for item in run if item is not None]
        traced = [self._head_sample() for _ in items]
        ends = [i for i in range(1, len(items)) if traced[i] or traced[i - 1]]
        if items:
            ends.append(len(items))
        start = 0
        try:
            for end in ends:
                self._process(items[start:end], traced[start])
                start = end
        except Exception as exc:  # noqa: BLE001 - answered, never dropped
            self._on_apply_error(items[start:], exc)
            return False
        finally:
            for _ in run:
                queue.task_done()
        return True

    def _auto_dump(self, reason: str) -> None:
        """Persist the flight window when something went wrong (a new
        invariant flag, a fault-injected drain, a dead worker, an apply
        error) — best effort, never masking the triggering condition."""
        flight = self._flight
        if flight is None or not flight.dump_path:
            return
        if self._pool is not None:
            self._sync_pool_flight(best_effort=True)
        if not len(flight):
            return
        try:
            flight.dump_jsonl(reason=reason)
        except OSError:  # pragma: no cover - disk trouble must not cascade
            pass

    def _sync_pool_flight(self, best_effort: bool = False) -> None:
        """Load the workers' flight windows, k-way-merged by global
        time, into the parent recorder — after which dumps and
        :func:`~repro.obs.flight.verify_flight` behave exactly as in
        in-process mode.  The merged window is dense (every request is
        recorded by exactly one worker) unless a worker could not be
        gathered."""
        flight = self._flight
        pool = self._pool
        if flight is None or pool is None:
            return
        try:
            windows = pool.flight_windows(best_effort=best_effort)
        except ServerClosed:
            if not best_effort:
                raise
            return
        import heapq

        merged = list(
            heapq.merge(*(events for _meta, events in windows),
                        key=lambda ev: ev[0])
        )
        flight.ring.clear()
        flight.ring.extend(merged)
        flight.note_config(
            workers=self.workers,
            dense=len(windows) == pool.num_workers,
        )

    def _fail_item(self, item: Optional[_Item], exc: BaseException) -> None:
        if item is None:
            return
        _pages, fut, credits, _t_enq, _route = item
        if credits is not None and self._gates is not None:
            for tenant, n in credits:
                self._gates[tenant].release(n)
        if not fut.done():
            fut.set_exception(exc)

    def _on_apply_error(self, items: Sequence[_Item], exc: Exception) -> None:
        """Applying raised: close the ingress, fail the run's unserved
        submissions and everything still queued (an accepted request is
        always *answered*, here with a :class:`ServerClosed` naming the
        cause), and auto-dump the flight window — at ``W > 1`` the
        surviving workers' windows."""
        self._closed = True
        crashed = isinstance(exc, ServerClosed)  # WorkerCrashed
        if crashed:
            # The timeline tick and HTTP plane keep running after a
            # crash, so the crash-counter bump reaches the next snapshot
            # and the serve-worker-crashed alert fires within one tick.
            self._crashes += 1
        else:
            cause = exc
            exc = ApplyFailed(
                f"server {self.name!r} failed applying a run: "
                f"{type(cause).__name__}: {cause}"
            )
            exc.__cause__ = cause
        for item in items:
            self._fail_item(item, exc)
        queue = self._queue
        assert queue is not None
        while not queue.empty():
            try:
                self._fail_item(queue.get_nowait(), exc)
            finally:
                queue.task_done()
        self._auto_dump("worker-crash" if crashed else "apply-error")

    def _process(self, run: Sequence[_Item], traced: bool) -> None:
        """Serve consecutive submissions in one apply call, at any
        worker count.

        The in-process group, or the worker pool whose workers run the
        same group code, serves their requests with the global clock
        assigned up front: consecutive submissions carry consecutive
        clocks, so at ``W > 1`` the call is one framed exchange per
        worker.  The auditor (which consumes ``(page, tenant, hit)`` in
        submission order, so observing after the call is exact), the
        route span and the apply telemetry run once per call; outcome,
        credit release and future completion once per submission, in
        order.  A traced submission arrives alone; *traced* is its
        head-sampling decision."""
        obs_on = self._obs_active
        if obs_on:
            t_start = perf_counter()
        t0 = self._t
        pages = (
            run[0][0] if len(run) == 1 else [p for item in run for p in item[0]]
        )
        # Distributed span context (worker pool only): a deterministic
        # per-submission trace id (the global clock is unique and
        # nonzero after +1) and a router-side root span id that the
        # workers parent under.
        trace_id = root_span = 0
        pool = self._pool
        if traced and pool is not None:
            trace_id = t0 + 1
            root_span = next(self.obs.tracer._ids)
            t_route = perf_counter()
        if pool is None:
            flags = hit_flags(
                len(pages), self._group.apply(pages, range(t0, t0 + len(pages)))
            )
        else:
            flags = pool.apply(
                np.asarray(pages, dtype=np.int64), t0, trace_id, root_span
            ).astype(bool).tolist()
        self._t = t0 + len(pages)
        owners = self._owners_list
        auditor = self._auditor
        if auditor is not None:
            for page, hit in zip(pages, flags):
                auditor.observe(page, owners[page], hit)
        if trace_id:
            # Root of the merged request tree: router-side route+merge.
            emit_span(
                self.obs.tracer,
                "serve.route",
                perf_counter() - t_route,
                trace_id=trace_id,
                span_id=root_span,
                parent_id=None,
                n=len(pages),
                t0=t0,
                workers=self.workers,
            )
            route = run[0][4]
            if route is not None:  # a TCP submission: link its reply
                route[:] = (trace_id, root_span)
        if obs_on:
            self._account(run, len(pages), t_start, traced)
        gates = self._gates
        lo = 0
        for item_pages, fut, credits, _t_enq, _route in run:
            hi = lo + len(item_pages)
            item_flags = flags[lo:hi]
            hits = sum(item_flags)
            result = BatchOutcome(
                t0=t0 + lo, hits=hits, misses=hi - lo - hits,
                hit_flags=item_flags,
            )
            if credits is not None and gates is not None:
                for tenant, n in credits:
                    gates[tenant].release(n)
            if not fut.cancelled():
                fut.set_result(result)
            lo = hi

    def _account(
        self, run: Sequence[_Item], n: int, t_start: float, traced: bool
    ) -> None:
        """Post-apply telemetry for one apply call of *n* requests over
        the submissions in *run* (obs-active only): one apply
        observation, one queue wait per submission; *traced* is the
        head-sampling decision of a submission served alone."""
        dur = perf_counter() - t_start
        waits = [(t_start - item[3]) if item[3] else 0.0 for item in run]
        if self._metrics_on:
            self._h_apply.observe(dur)
            for wait in waits:
                self._h_queue.observe(wait)
        if traced:
            tracer = self.obs.tracer
            tracer.record_span("serve.queue_wait", waits[0], n=n)
            tracer.record_span("serve.apply", dur, n=n, t=self._t)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    async def _timeline_loop(self) -> None:
        """Tick ``obs.timeline`` on the event loop: one registry
        snapshot per interval, zero per-request work.  The first
        snapshot is taken at start, so a counter that moves within the
        first interval (a worker crash during a short replay) has a
        baseline to move from."""
        import time as _time

        timeline = self.obs.timeline
        assert timeline is not None
        while True:
            ts = _time.time()
            if timeline.snap(self.obs.registry, ts) and self.alerts is not None:
                # Alert rules read the snapshot that just landed — the
                # whole alerting pipeline rides this one timer.
                self.alerts.evaluate(ts)  # type: ignore[attr-defined]
            await asyncio.sleep(timeline.interval)

    def profile_folded(self) -> Dict[str, Dict[str, int]]:
        """Per-process folded stacks: ``{"parent": ..., "w1": ...}``.

        ``"parent"`` is this process, worker 0 included; ``"w1"`` …
        ``"w{W-1}"`` are the worker processes, whose entries appear
        after :meth:`stop` (or an explicit
        :meth:`~repro.serve.workers.ShardWorkerPool.profile_gather`);
        merge with :func:`repro.obs.prof.merge_folded`.
        """
        out: Dict[str, Dict[str, int]] = {}
        if self.profiler is not None:
            out["parent"] = self.profiler.folded()
        if self._pool is not None and self._profile is not None:
            out.update(self._pool.profile_gather(best_effort=True))
        else:
            out.update(self._pool_profiles)
        return out

    def _pool_snapshot(
        self, best_effort: bool = False
    ) -> Optional[Dict[str, object]]:
        """Gather-and-merge the workers' ground truth (cached as the
        final state once the pool is gone).  Worker-side invariant
        drift is detected here — the parallel counterpart of the
        in-process group's post-sample ``on_drift`` check."""
        pool = self._pool
        if pool is None:
            return self._pool_final
        try:
            snap = pool.snapshot(best_effort=best_effort)
        except ServerClosed:
            if not best_effort:
                raise
            return self._pool_final
        self._pool_final = snap
        if snap["monitor_flags"] > self._monitor_flags_seen:
            self._monitor_flags_seen = int(snap["monitor_flags"])
            self._auto_dump("invariant-drift")
        return snap

    def _serve_view(self):
        """Ground truth for every scrape path, as
        ``(ledger, shard_rows, monitor_counts)``: a group snapshot —
        the in-process group's live one, or at ``W > 1`` the workers'
        snapshots merged (best effort: a scrape must keep answering,
        with the survivors' truth, even after a worker crash) — so one
        rendering path emits the same document shapes at any ``W``."""
        view = self._pool_snapshot(best_effort=True) if self.workers > 1 else None
        if view is None:
            view = self._group.snapshot()
        counts = (
            (int(view["monitor_flags"]), int(view["monitor_samples"]))
            if self.obs.monitor is not None
            else None
        )
        return view["ledger"], view["shards"], counts

    @property
    def ledger(self) -> CostLedger:
        """Per-tenant accounting.  At ``workers=1`` this is the live
        ledger the in-process group records into; at ``W > 1`` it is
        the workers' slices merged — a scrape-path gather costing one
        control exchange per worker — and after :meth:`stop` the final
        gathered view."""
        return self._serve_view()[0]

    def _collect_metrics(self) -> List[CollectedFamily]:
        """Scrape-time export of ground-truth serve state.

        Reads the ledger and shards directly (merged across the worker
        pool in parallel mode), so per-tenant hit/miss counters are
        *exact* — bit-identical to an offline ``simulate()`` of the
        same request sequence (test-enforced) — and available even when
        the hot-path registry is disabled.
        """
        ledger, shard_rows, monitor_counts = self._serve_view()
        hits = ledger.hits_by_user()
        misses = ledger.misses_by_user()
        tenant_hits = [
            ({"tenant": str(i)}, float(h)) for i, h in enumerate(hits)
        ]
        tenant_misses = [
            ({"tenant": str(i)}, float(m)) for i, m in enumerate(misses)
        ]
        out: List[CollectedFamily] = [
            (
                "serve_requests_total",
                "counter",
                "Requests served",
                [({}, float(self._t))],
            ),
            (
                "serve_hits_total",
                "counter",
                "Cache hits served",
                [({}, float(hits.sum()))],
            ),
            (
                "serve_misses_total",
                "counter",
                "Cache misses served",
                [({}, float(misses.sum()))],
            ),
            (
                "serve_tenant_hits_total",
                "counter",
                "Cache hits per tenant",
                tenant_hits,
            ),
            (
                "serve_tenant_misses_total",
                "counter",
                "Cache misses per tenant (the paper's fetch count a_i)",
                tenant_misses,
            ),
            (
                "serve_queue_depth",
                "gauge",
                "Submissions currently queued",
                [({}, float(self.queue_depth))],
            ),
            (
                "serve_worker_crashes_total",
                "counter",
                "Worker processes lost (WorkerCrashed)",
                [({}, float(self._crashes))],
            ),
        ]
        if ledger.costs is not None:
            out.append(
                (
                    "serve_tenant_cost",
                    "gauge",
                    "Running objective term f_i(m_i) per tenant",
                    [
                        ({"tenant": str(i)}, ledger.cost_of(i))
                        for i in range(ledger.num_users)
                    ],
                )
            )
            out.append(
                (
                    "serve_tenant_marginal_quote",
                    "gauge",
                    "Fresh-budget marginal f_i'(m_i + 1) per tenant",
                    [
                        ({"tenant": str(i)}, ledger.marginal_quote(i))
                        for i in range(ledger.num_users)
                    ],
                )
            )
        occ_rows = [
            ({"shard": str(r["shard"])}, float(r["occupancy"]))
            for r in shard_rows
        ]
        slot_rows = [
            ({"shard": str(r["shard"])}, float(r["slots"])) for r in shard_rows
        ]
        evict_rows = [
            ({"shard": str(r["shard"])}, float(r["evictions"]))
            for r in shard_rows
        ]
        out.extend(
            [
                ("serve_shard_occupancy", "gauge", "Resident pages per shard", occ_rows),
                ("serve_shard_slots", "gauge", "Slot allocation per shard", slot_rows),
                (
                    "serve_shard_evictions_total",
                    "counter",
                    "Evictions per shard",
                    evict_rows,
                ),
            ]
        )
        timed = [r for r in shard_rows if r["timing"] is not None]
        if timed:
            out.append(
                (
                    "serve_policy_decision_seconds_total",
                    "counter",
                    "Cumulative choose_victim time per shard",
                    [
                        ({"shard": str(r["shard"])}, float(r["timing"][0]))
                        for r in timed
                    ],
                )
            )
            out.append(
                (
                    "serve_policy_decisions_total",
                    "counter",
                    "choose_victim calls per shard",
                    [
                        ({"shard": str(r["shard"])}, float(r["timing"][1]))
                        for r in timed
                    ],
                )
            )
        if monitor_counts is not None:
            flags, samples = monitor_counts
            out.append(
                (
                    "serve_invariant_drift_flags_total",
                    "counter",
                    "Invariant drift flags raised by the live monitor",
                    [({}, float(flags))],
                )
            )
            out.append(
                (
                    "serve_invariant_samples_total",
                    "counter",
                    "Invariant monitor sampling instants",
                    [({}, float(samples))],
                )
            )
        return out

    def prometheus_metrics(self) -> str:
        """Prometheus text exposition (``/metrics``)."""
        return self.obs.registry.render()

    # ------------------------------------------------------------------
    # Competitive-ratio audit
    # ------------------------------------------------------------------
    def audit(self) -> Dict[str, object]:
        """The live Theorem-1.1 audit snapshot (``/audit``).

        Requires an :class:`~repro.obs.audit.CompetitiveAuditor` on the
        bundle (``obs.auditor``); raises :class:`RuntimeError` otherwise.
        """
        if self._auditor is None:
            raise RuntimeError(
                "no auditor attached: build the server with "
                "obs=Observability(..., auditor=CompetitiveAuditor(...))"
            )
        return self._auditor.snapshot()

    def _collect_audit(self) -> List[CollectedFamily]:
        """Scrape-time export of the auditor gauges."""
        auditor = self._auditor
        assert auditor is not None  # registered only when attached
        snap = auditor.snapshot()
        tenant_online = [
            ({"tenant": str(i)}, float(m))
            for i, m in enumerate(snap["online_misses"])
        ]
        tenant_offline = [
            ({"tenant": str(i)}, float(b))
            for i, b in enumerate(snap["offline_misses"])
        ]
        return [
            (
                "audit_ratio",
                "gauge",
                "Audited competitive ratio: online cost / windowed-Belady cost",
                [({}, float(snap["audit_ratio"]))],
            ),
            (
                "audit_theorem11_bound",
                "gauge",
                "Live Theorem 1.1 right-hand side sum f_i(alpha*k*b_i)",
                [({}, float(snap["audit_theorem11_bound"]))],
            ),
            (
                "audit_online_cost",
                "gauge",
                "Online cost sum f_i(a_i) over the audited prefix",
                [({}, float(snap["audit_online_cost"]))],
            ),
            (
                "audit_offline_cost",
                "gauge",
                "Baseline cost sum f_i(b_i) over the audited prefix",
                [({}, float(snap["audit_offline_cost"]))],
            ),
            (
                "audit_processed_total",
                "counter",
                "Requests priced by the offline baseline",
                [({}, float(snap["processed"]))],
            ),
            (
                "audit_pending",
                "gauge",
                "Requests buffered awaiting baseline lookahead",
                [({}, float(snap["pending"]))],
            ),
            (
                "audit_tenant_online_misses",
                "gauge",
                "Audited online misses a_i per tenant",
                tenant_online,
            ),
            (
                "audit_tenant_offline_misses",
                "gauge",
                "Baseline fetches b_i per tenant",
                tenant_offline,
            ),
        ]

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """The ``/stats`` snapshot (JSON-able); in parallel mode the
        tenant/shard rows are merged from the workers' ground truth, so
        the document is schema-identical at any worker count."""
        ledger, shard_rows, _counts = self._serve_view()
        snap = ledger.snapshot()
        snap.update(
            {
                "server": self.name,
                "policy": self.shards.policy_name,
                "k": self.shards.k,
                "num_shards": self.shards.num_shards,
                "workers": self.workers,
                "time": self._t,
                "queue_depth": self.queue_depth,
                "shards": [
                    {
                        "shard": r["shard"],
                        "occupancy": r["occupancy"],
                        "slots": r["slots"],
                    }
                    for r in shard_rows
                ],
            }
        )
        if self._gates is not None:
            snap["tenant_queued"] = [g.queued for g in self._gates]
        # Windowed rates: totals are snapshotted at stats() time, so the
        # hot path pays nothing; rates warm up on the second call and
        # then cover up to the RateWindow horizon (~10 s).
        totals: Dict[str, float] = {
            "requests": float(self._t),
            "hits": float(ledger.hits),
            "misses": float(ledger.misses),
        }
        if ledger.costs is not None:
            totals["cost"] = ledger.total_cost()
        self._rates.push(monotonic(), **totals)
        rates = self._rates.rates()
        if not rates:
            # Zero-length window (first scrape, or two scrapes in the
            # same clock tick): report explicit zeros rather than an
            # empty/raising document, so scrapers need no special case.
            rates = {"window_seconds": 0.0}
            for key in totals:
                rates[f"{key}_per_sec"] = 0.0
        snap["rates"] = rates
        return snap

    # ------------------------------------------------------------------
    # TCP front end (line-delimited JSON)
    # ------------------------------------------------------------------
    async def start_tcp(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> Tuple[str, int]:
        """Expose the server over TCP; returns the bound ``(host, port)``
        (pass ``port=0`` for an ephemeral port)."""
        if self._queue is None or self._closed:
            raise RuntimeError("start() the server before start_tcp()")
        self._tcp_server = await asyncio.start_server(
            self._handle_connection, host, port, limit=_LINE_LIMIT
        )
        sock_host, sock_port = self._tcp_server.sockets[0].getsockname()[:2]
        return sock_host, sock_port

    async def start_http(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> Tuple[str, int]:
        """Expose the HTTP admin plane (``/metrics``, ``/health``,
        ``/ready``, ``/alerts``, ``/audit``, ``/timeline``, ``/stats``)
        on the event loop; returns the bound ``(host, port)``.

        ``/metrics`` serves the worker-merged scrape, ``/audit`` the
        auditor's snapshot (404 without an auditor); ``/ready`` is
        drain-aware (503 the moment :meth:`stop` begins, while accepted
        requests still drain).
        """
        if self._httpd is not None:
            raise RuntimeError("HTTP admin plane already started")
        from repro.obs.httpd import ObsHttpServer

        self._httpd = ObsHttpServer(
            metrics=self.prometheus_metrics,
            alerts=self.alerts,
            audit=self.audit if self._auditor is not None else None,
            timeline=self.obs.timeline,
            stats=self.stats,
            ready=lambda: not self._closed,
            name=self.name,
        )
        self.http_address = await self._httpd.start(host, port)
        return self.http_address

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one connection, reading ahead.

        Each line is decoded once (:meth:`_decode`).  A ``batch`` or
        ``request`` the server accepts is submitted as soon as it is
        read and answered from its future's done callback.  Futures
        complete in submission order and each reply callback is the
        first one added to its future, so those replies reach the
        outbox in line order.  Every other line — ``ping``, an unknown
        op, a malformed or over-long line, a submission refused with
        ``ServerClosed`` — is answered here once the newest submission's
        future is done and its reply queued, so ``ping``'s ``time``
        counts every line before it.  The connection is read only as
        fast as its replies drain, and at EOF the replies still owed are
        written before it closes."""
        newest: Optional[asyncio.Future] = None
        outbox = _Outbox(writer)
        try:
            while True:
                line = await _read_line(reader)
                if line is None:
                    decoded: object = _TOO_LONG
                elif not line:
                    break
                else:
                    decoded = await self._decode(line, outbox)
                if isinstance(decoded, asyncio.Future):
                    newest = decoded
                else:
                    if newest is not None:
                        # Not newest.done(): a done future's reply
                        # callback may not have run yet; wait() wakes
                        # after it.
                        await asyncio.wait((newest,))
                        newest = None
                    if decoded is None:  # ping
                        decoded = {"ok": True, "time": self._t}
                    self._write(outbox, decoded, None)  # type: ignore[arg-type]
                await writer.drain()
            if newest is not None:
                await asyncio.wait((newest,))
        except ConnectionError:
            pass  # the client went away; its accepted lines are still served
        finally:
            outbox.flush()
            writer.close()
            try:
                await writer.wait_closed()
            except (  # pragma: no cover - teardown races are benign
                asyncio.CancelledError,
                OSError,
            ):
                pass

    async def _decode(
        self, line: bytes, outbox: _Outbox
    ) -> Union[asyncio.Future, Dict[str, object], None]:
        """Decode one TCP line.

        A ``batch`` or ``request`` the server accepts is submitted, its
        reply queued from the future's done callback, and the future
        returned.  ``ping`` returns ``None``: the caller reads the clock
        once the lines before it are served.  Any other line gets its
        error reply, and malformed input — bad JSON, a JSON value that
        is not an object, bad fields — leaves the server and the
        connection as they were."""
        try:
            msg = json.loads(line)
            if type(msg) is not dict:
                raise TypeError(
                    f"expected a JSON object, got {type(msg).__name__}"
                )
            op = msg.get("op")
            if op == "batch":
                pages: Sequence[int] = _batch_pages(msg)
                encode = partial(_batch_reply, detail=msg.get("detail"))
            elif op == "request":
                page = msg["page"]
                if type(page) is not int:
                    raise TypeError(f"page must be a JSON integer, got {page!r}")
                pages = (page,)
                encode = partial(self._request_reply, page)
            elif op == "ping":
                return None
            else:
                return {"ok": False, "error": f"unknown op {op!r}"}
            route = [0, 0] if self._tracing_on else None
            fut = await self._submit(pages, route)
        except ServerClosed as exc:
            return {"ok": False, "error": str(exc)}
        except _BAD_LINE as exc:
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        fut.add_done_callback(partial(self._reply, outbox, encode, route))
        return fut

    def _request_reply(self, page: int, out: BatchOutcome) -> Dict[str, object]:
        """The reply line of a served ``request`` op."""
        o = self._outcome(page, out)
        return {"ok": True, "hit": o.hit, "tenant": o.tenant, "t": o.t, "shard": o.shard}

    def _reply(
        self,
        outbox: _Outbox,
        encode: Callable[[BatchOutcome], Dict[str, object]],
        route: Optional[List[int]],
        fut: asyncio.Future,
    ) -> None:
        """Done callback of a read-ahead submission: queue its reply line."""
        exc = fut.exception()  # retrieved even when the client is gone
        if exc is not None:
            self._write(outbox, {"ok": False, "error": str(exc)}, None)
        else:
            self._write(outbox, encode(fut.result()), route)

    def _write(
        self,
        outbox: _Outbox,
        response: Dict[str, object],
        route: Optional[List[int]],
    ) -> None:
        """Encode one reply line into *outbox*.  With tracing on, record
        its ``serve.reply`` span (the encode), linked under the
        submission's ``serve.route`` span when *route* holds one."""
        t_write = perf_counter() if self._tracing_on else 0.0
        payload = json.dumps(response).encode("utf-8") + b"\n"
        outbox.put(payload)
        if not t_write:
            return
        dur = perf_counter() - t_write
        tracer = self.obs.tracer
        if route is not None and route[0]:
            # Close the distributed tree: router -> worker apply ->
            # reply, all under one trace id.
            emit_span(
                tracer,
                "serve.reply",
                dur,
                trace_id=route[0],
                span_id=next(tracer._ids),
                parent_id=route[1],
                bytes=len(payload),
            )
        else:
            tracer.record_span("serve.reply", dur, bytes=len(payload))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CacheServer(name={self.name!r}, policy={self.shards.policy_name!r}, "
            f"k={self.shards.k}, S={self.shards.num_shards}, served={self._t})"
        )


__all__ = [
    "ApplyFailed",
    "BatchOutcome",
    "CacheServer",
    "RequestOutcome",
    "ServerClosed",
    "TenantGate",
]
