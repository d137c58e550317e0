"""Process-parallel shard workers with batched routing over framed pipes.

The single-consumer server (:mod:`repro.serve.server`) applies every
request sequentially, so the S-way page→shard split of
:class:`~repro.serve.shard.ShardManager` never uses more than one
core.  :class:`ShardWorkerPool` lifts the same shard set onto ``W``
workers: shard ``s`` is owned by worker ``s % W``, and each worker
serves through a :class:`~repro.serve.shard.ShardGroup` — the same
serving core an in-process server runs — over just the shards it
owns: their **policy instances** and per-shard decision timers, a
:class:`~repro.serve.accounting.CostLedger` **slice**, and an
optional **invariant monitor**.  Only the **flight recorder**, span
spill and profiler are the worker's own.

Worker 0 runs in the calling process and workers ``1 … W−1`` in
child processes, so ``W`` workers cost ``W − 1`` processes.  An
exchange sends every child its frame first, serves worker 0's share
in-process while the children serve theirs, and only then reads the
children's replies: the caller blocks only for the tail of the
slowest child, not for a whole round trip per worker.  Worker 0 keeps
its own group, ledger slice, monitor, flight ring and span spill,
exactly as a child does, behind the same two-call handle (post a
message, take its reply) — so every pool method is one loop over the
``W`` workers, and nothing of worker 0's state is shared with the
caller's own.  It starts no profiler: the calling process's sampler
covers its thread.

Determinism is by construction, not by luck: the ingress side assigns
every request its **global clock value** ``t`` before routing, and a
shard's subsequence is applied in submission order by exactly one
worker — so every policy sees the identical ``(page, t)`` stream it
would see in-process, and serving results are bit-for-bit independent
of ``W`` (test-enforced by ``tests/test_serve_equivalence.py``).

Routing is batched and buffer-flat.  A precomputed page→worker table
(:func:`~repro.serve.shard.shard_table` modulo ``W``) splits an
exchange into per-worker position/page arrays, and each child
receives **one frame per exchange** on its duplex pipe — never one
pickle per request, and on the data path never a pickle at all.  The
serve consumer makes one exchange per *run*: every batch queued when it
wakes, which carry consecutive clocks, so a run of any length is one
frame of ``t0`` plus positions.  Every message is one ``send_bytes``
frame whose first byte is its tag:

* ``b"p"`` — a data frame: tag + 7 pad bytes (8-aligning the payload),
  then ``t0``, ``n``, ``trace_id`` and ``parent_span`` as int64 words,
  then ``pages int64*n`` and ``pos int32*n`` (request *i* carries
  global time ``t0 + pos[i]``).  The parent frames it into a
  preallocated per-child staging buffer, so an exchange costs no
  allocation and no serialization once the buffer has grown to the
  working run size.  The child answers ``b"F"`` + one hit-flag byte
  per request, or ``b"E"`` + an error message.
* ``b"!"`` — a control frame: a pickled message for the construction
  handshake, snapshot/flight/profile gathers, and shutdown.

Exchanges are strictly synchronous request/reply per worker, and both
the serve consumer's apply call and the scrape paths run without
awaiting — under asyncio's single thread that means data and control
messages can never interleave on a pipe, so the protocol needs no
locks.  A failed exchange still reads every other reply it is owed
before it raises, so no reply is ever left in a pipe for the next
exchange to misread.  A child reads a whole frame before it writes
its reply, so frames larger than the socket buffer cannot deadlock
the parent's send-to-all-then-receive-from-all exchange.

Scrape-time merging mirrors the in-process design ("exactness via
scrape-time collectors", DESIGN.md): each worker reports its group's
:meth:`~repro.serve.shard.ShardGroup.snapshot` — ledger counters,
shard occupancy/evictions, decision timers, monitor counts — and
:meth:`ShardWorkerPool.snapshot` merges them into the document an
in-process group produces (one :meth:`~repro.serve.accounting.
CostLedger.merge` per worker), so ``/stats`` / ``/metrics`` / ``/audit``
output is schema-identical at any ``W``.  Windowed SLA rows stay exact
because every ledger bins misses by the *global* window index
``t // window``.

Failure is reported, not hung on: every reply wait polls the pipe with
a bounded timeout and checks the child, and a dead child, a broken
pipe, an undecodable frame or a child's ``b"E"`` reply raises
:class:`WorkerCrashed` (a :class:`~repro.serve.server.ServerClosed`),
so the consumer can fail pending futures and auto-dump the surviving
workers' flight windows.  An exception in worker 0's share propagates
as it is — as from an in-process server, since no process died — once
the children's replies of that exchange have been read.
"""

from __future__ import annotations

import heapq
import pickle
import struct
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cost_functions import CostFunction
from repro.serve.accounting import CostLedger
from repro.serve.server import ServerClosed
from repro.serve.shard import PolicySpec, ShardGroup, ShardManager, shard_table
from repro.sim.engine import SMALL_BATCH
from repro.sim.trace import Trace
from repro.util.validation import check_positive_int


class WorkerCrashed(ServerClosed):
    """A shard worker process died, broke its pipe, sent an undecodable
    frame, or reported an error."""


#: Seconds between liveness checks while waiting on a worker reply.
_POLL_INTERVAL = 0.1

#: Data frame header: tag byte + 7 pad (8-aligns the payload within the
#: frame) + t0 + n + trace_id + parent_span, then pages/pos.  The two
#: span-context words (repro.obs.distrib; trace_id 0 = unsampled) are
#: packed whether tracing is on or off, so the hot path never branches
#: on wire format.
_PIPE_HDR = 40


@dataclass
class WorkerSpec:
    """Everything a worker needs to rebuild its shard group.

    Picklable whenever the policy spec is (registry names always are),
    so the pool works under the ``spawn`` start method too; under
    ``fork`` the spec simply rides process inheritance.
    """

    worker_id: int
    num_workers: int
    shard_ids: Tuple[int, ...]
    policy: PolicySpec
    num_shards: int
    k: int
    owners: np.ndarray
    costs: Optional[Sequence[CostFunction]]
    policy_seed: Optional[int]
    trace: Optional[Trace]
    horizon: int
    validate: bool
    window: Optional[int]
    timing: bool = False
    flight_capacity: int = 0
    flight_meta: Dict[str, object] = field(default_factory=dict)
    monitor: bool = False
    monitor_every: int = 0
    #: Parent's --trace-jsonl base path; the worker spills its spans to
    #: ``distrib.spill_path(trace_jsonl, worker_id + 1)``.
    trace_jsonl: Optional[str] = None
    #: ``repro.obs.prof.profile_spec`` dict ({"interval": s}) or None.
    profile: Optional[Dict[str, object]] = None


class _WorkerState:
    """One worker's serving state — in a child process, or worker 0's
    in the calling one: a :class:`~repro.serve.shard.ShardGroup` over
    the worker's shards, plus what only a worker has — its flight ring,
    span spill and profiler."""

    def __init__(self, spec: WorkerSpec) -> None:
        self.spec = spec
        # Misconfiguration raises here and reaches the parent through
        # the construction handshake, not as a dead worker.
        shards = ShardManager(
            spec.policy,
            spec.num_shards,
            spec.k,
            spec.owners,
            spec.costs,
            policy_seed=spec.policy_seed,
            trace=spec.trace,
            horizon=spec.horizon,
            validate=spec.validate,
            shard_ids=spec.shard_ids,
        )
        if spec.timing:
            for shard in shards.shards:
                shard.timing = [0.0, 0]
        monitor = None
        if spec.monitor and spec.monitor_every > 0 and spec.costs is not None:
            from repro.obs.monitor import InvariantMonitor

            monitor = InvariantMonitor(spec.costs)
        # Each worker sees ~1/W of the stream, so sampling every
        # monitor_every / W of its own requests keeps the in-process
        # cadence.
        self.group = ShardGroup(
            shards,
            CostLedger(shards.num_users, spec.costs, window=spec.window),
            monitor,
            max(1, spec.monitor_every // spec.num_workers),
        )
        # Flight recorder for this worker's shards only: times are the
        # global clock, so windows are sparse (dense=False in meta)
        # unless the pool runs a single worker.
        self.flight = None
        if spec.flight_capacity > 0:
            from repro.obs.flight import FlightRecorder

            self.flight = FlightRecorder(capacity=spec.flight_capacity)
            for shard in shards.shards:
                shard.attach_flight(self.flight, self.group.owners_list)
            self.flight.note_config(
                worker=spec.worker_id,
                shard_ids=list(spec.shard_ids),
                dense=(spec.num_workers == 1),
                **spec.flight_meta,
            )
        # Distributed tracing: spans spill to a worker-local JSONL file
        # (namespaced ids, see repro.obs.distrib); the parent merges
        # the files after the run.
        self.tracer = None
        self._span_ids = None
        self._emit_span = None
        if spec.trace_jsonl:
            from repro.obs.distrib import emit_span, span_ids, spill_path
            from repro.obs.tracing import JsonlSink, Tracer

            self.tracer = Tracer(
                JsonlSink(spill_path(spec.trace_jsonl, spec.worker_id + 1))
            )
            self._span_ids = span_ids(spec.worker_id + 1)
            self._emit_span = emit_span
        self.profiler = None
        if spec.profile:
            from repro.obs.prof import DEFAULT_INTERVAL, SamplingProfiler

            self.profiler = SamplingProfiler(
                float(spec.profile.get("interval", DEFAULT_INTERVAL))
            ).start()

    # ------------------------------------------------------------------
    def apply(
        self,
        pages: np.ndarray,
        pos: np.ndarray,
        t0: int,
        trace_id: int = 0,
        parent: int = 0,
    ) -> bytearray:
        """Serve one routed batch through the group: ``pages[i]`` at
        global time ``t0 + pos[i]``.  Returns one hit-flag byte per
        request, and spills a ``worker.apply`` span when traced."""
        t_trace = 0
        if trace_id and self.tracer is not None:
            t_trace = time.perf_counter_ns()
        if len(pages) <= SMALL_BATCH:
            # A small batch is served from plain lists, without numpy.
            misses = self.group.apply(pages.tolist(), [t0 + p for p in pos.tolist()])
        else:
            # int64: a frame's positions are int32, the clock is not.
            misses = self.group.apply(pages, np.add(pos, t0, dtype=np.int64))
        flags = bytearray(b"\x01") * len(pages)
        for i in misses:
            flags[i] = 0
        if t_trace:
            self._emit_span(  # type: ignore[misc]
                self.tracer,
                "worker.apply",
                (time.perf_counter_ns() - t_trace) * 1e-9,
                trace_id=trace_id,
                span_id=next(self._span_ids),  # type: ignore[arg-type]
                parent_id=parent,
                w=self.spec.worker_id,
                n=len(pages),
            )
        return flags

    def control(self, msg: tuple) -> object:
        """The reply to one control message (the ``b"!"`` frames)."""
        op = msg[0]
        if op == "s":  # snapshot (scrape-time gather)
            return self.snapshot()
        if op == "f":  # flight window gather
            return self.flight_window()
        if op == "prof":  # folded-stack profile gather
            return self.profile_folded()
        if op == "c":  # close
            self.close()
            return ("bye", self.group.ledger.total_requests)
        return ("err", f"unknown op {op!r}")  # protocol bug guard

    def snapshot(self) -> Dict[str, object]:
        """The group's ground truth for the parent's scrape-time merge,
        with the ledger as plain counters (cost functions need not
        pickle)."""
        snap = self.group.snapshot()
        snap["ledger"] = self.group.ledger.counters()
        return snap

    def flight_window(self) -> Tuple[Dict[str, object], List[tuple]]:
        if self.flight is None:
            return {}, []
        return dict(self.flight.meta), list(self.flight.ring)

    def profile_folded(self) -> Optional[Dict[str, int]]:
        """This worker's folded-stack counts (None when not profiling)."""
        if self.profiler is None:
            return None
        return self.profiler.folded()

    def close(self) -> None:
        """Stop the profiler and flush/close the span spill (idempotent)."""
        if self.profiler is not None:
            self.profiler.stop()
        if self.tracer is not None:
            self.tracer.close()
            self.tracer = None


def _worker_main(conn, spec: WorkerSpec) -> None:
    """Child process entry point: build the shard group, serve the
    frame protocol until told to close.  Any build/serve exception is
    reported back (pickled ``"err"`` for control ops, a ``b"E"`` frame
    for data ops) instead of dying silently."""
    import signal

    try:  # the parent owns shutdown; workers ignore terminal SIGINT
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass
    try:
        state = _WorkerState(spec)
        conn.send(("ready", spec.worker_id))
    except Exception as exc:  # noqa: BLE001 - surfaced to the parent
        try:
            conn.send(("err", f"{type(exc).__name__}: {exc}"))
        finally:
            conn.close()
        return
    reply_kind = "pickle"
    try:
        while True:
            frame = conn.recv_bytes()
            tag = frame[:1]
            if tag == b"p":  # data frame
                reply_kind = "bytes"
                t0, m, trace_id, parent = struct.unpack_from("<qqqq", frame, 8)
                pages = np.frombuffer(
                    frame, dtype=np.int64, count=m, offset=_PIPE_HDR
                )
                pos = np.frombuffer(
                    frame, dtype=np.int32, count=m, offset=_PIPE_HDR + 8 * m
                )
                conn.send_bytes(b"F" + state.apply(pages, pos, t0, trace_id, parent))
            elif tag == b"!":  # control op (pickled)
                reply_kind = "pickle"
                msg = pickle.loads(frame[1:])
                conn.send(state.control(msg))
                if msg[0] == "c":
                    return
            else:  # pragma: no cover - protocol bug guard
                reply_kind = "bytes"
                conn.send_bytes(b"E" + f"unknown tag {tag!r}".encode())
    except (EOFError, KeyboardInterrupt):  # parent went away
        pass
    except Exception as exc:  # noqa: BLE001 - surfaced to the parent
        msg = f"{type(exc).__name__}: {exc}"
        try:
            if reply_kind == "bytes":
                conn.send_bytes(b"E" + msg.encode())
            else:
                conn.send(("err", msg))
        except (BrokenPipeError, OSError):
            pass
    finally:
        try:
            state.close()
        except Exception:  # pragma: no cover - teardown best effort
            pass
        conn.close()


# ----------------------------------------------------------------------
# Worker handles: post one message, then take its reply.  A data
# message is ("p", t0, pages, pos, trace_id, parent_span) and its reply
# the uint8 hit flags; anything else is a control message and its reply
# what _WorkerState.control returns.
# ----------------------------------------------------------------------
def _control_reply(label: str, reply: object) -> object:
    if isinstance(reply, tuple) and reply and reply[0] == "err":
        raise WorkerCrashed(f"{label} errored: {reply[1]}")
    return reply


class _LocalWorker:
    """Worker 0, served in the calling process: :meth:`post` only
    keeps the message, and :meth:`take` serves it — which the pool
    does after it has posted to every child, before it reads them.
    An exception while serving propagates as it is, as it would from an
    in-process group: no process died."""

    def __init__(self, label: str, state: _WorkerState) -> None:
        self.label = label
        self.state = state
        self.alive = True
        self._msg: Optional[tuple] = None

    def post(self, msg: tuple) -> None:
        self._msg = msg

    def take(self) -> object:
        msg, self._msg = self._msg, None
        if msg[0] != "p":
            return _control_reply(self.label, self.state.control(msg))
        _, t0, pages, pos, trace_id, parent = msg
        flags = self.state.apply(pages, pos, t0, trace_id, parent)
        return np.frombuffer(flags, dtype=np.uint8)

    def stop(self, graceful: bool) -> None:
        self.alive = False
        self.state.close()

    def join(self) -> None:
        pass


class _PipeWorker:
    """A worker in a child process, reached over its duplex pipe."""

    def __init__(self, label: str, conn, proc) -> None:
        self.label = label
        self.conn = conn
        self.proc = proc
        #: Data-frame staging buffer (reused, grown).
        self.staging = bytearray(0)
        #: Flags owed by the posted data frame; -1 after a control post.
        self._expect = -1
        #: Whether the close op went out (so a reply is owed).
        self._bye = False

    @property
    def alive(self) -> bool:
        return self.proc.is_alive()

    def post(self, msg: tuple) -> None:
        if msg[0] != "p":
            self._expect = -1
            self._send(b"!" + pickle.dumps(msg))
            return
        # Frame the exchange into the reusable staging buffer and send
        # it as a single payload — no pickling, no per-exchange
        # allocation once the buffer has grown to the working run size.
        _, t0, pages, pos, trace_id, parent = msg
        m = self._expect = int(pages.size)
        need = _PIPE_HDR + 12 * m
        buf = self.staging
        if len(buf) < need:
            buf = self.staging = bytearray(max(need, 4096))
        buf[0:1] = b"p"
        struct.pack_into("<qqqq", buf, 8, t0, m, trace_id, parent)
        np.frombuffer(buf, dtype=np.int64, count=m, offset=_PIPE_HDR)[:] = pages
        np.frombuffer(buf, dtype=np.int32, count=m, offset=_PIPE_HDR + 8 * m)[
            :
        ] = pos
        self._send(buf, need)

    def _send(self, buf, size: Optional[int] = None) -> None:
        try:
            self.conn.send_bytes(buf, 0, size)
        except (BrokenPipeError, OSError) as exc:
            raise WorkerCrashed(f"{self.label} is gone: {exc}") from exc

    def _recv_bytes(self) -> bytes:
        """Receive one frame, watching for the child's death."""
        conn = self.conn
        try:
            while not conn.poll(_POLL_INTERVAL):
                if not self.proc.is_alive():
                    raise WorkerCrashed(
                        f"{self.label} died (exitcode {self.proc.exitcode})"
                    )
            return conn.recv_bytes()
        except (EOFError, OSError) as exc:
            raise WorkerCrashed(f"{self.label} closed its pipe: {exc}") from exc

    def take(self) -> object:
        frame = self._recv_bytes()
        m = self._expect
        if m < 0:
            try:
                reply = pickle.loads(frame)
            except Exception as exc:  # noqa: BLE001 - any undecodable frame
                raise WorkerCrashed(
                    f"{self.label} sent a frame that is not a pickle: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
            return _control_reply(self.label, reply)
        tag = frame[:1]
        if tag == b"F" and len(frame) == 1 + m:
            return np.frombuffer(frame, dtype=np.uint8, offset=1)
        if tag == b"E":
            raise WorkerCrashed(
                f"{self.label} errored: {frame[1:].decode(errors='replace')}"
            )
        raise WorkerCrashed(
            f"{self.label} sent a {len(frame)}-byte frame tagged {tag!r} "
            f"for {m} hit flags"
        )

    def stop(self, graceful: bool) -> None:
        if graceful:
            try:
                self.post(("c",))
                self._bye = True
            except WorkerCrashed:
                pass

    def join(self) -> None:
        """Take the close reply if one is owed, then end the child: a
        closed pipe reads as EOF there, so a child sent no close op
        still exits; anything unresponsive is terminated."""
        try:
            if self._bye and self.conn.poll(1.0):
                self.conn.recv_bytes()
        except (EOFError, OSError):
            pass
        self.conn.close()
        self.proc.join(timeout=2.0)
        if self.proc.is_alive():  # pragma: no cover - stuck worker
            self.proc.terminate()
            self.proc.join(timeout=2.0)


class ShardWorkerPool:
    """Partition ``S`` shards across ``W`` workers: worker 0 in the
    calling process, workers ``1 … W−1`` in child processes.

    Each child is reached over its own duplex pipe, the only channel
    between the processes: :meth:`apply` posts every touched worker one
    data frame — worker 0 serves its share after the children's frames
    are sent — and merges the flag replies back into submission order
    (frame layout in the module docstring).

    Parameters mirror :class:`~repro.serve.shard.ShardManager` (the
    worker side rebuilds the identical shard set); pool-specific knobs:

    num_workers:
        Requested workers; clamped to ``num_shards`` (a shard is owned
        by exactly one worker).  ``W`` workers start ``W − 1`` child
        processes.
    timing:
        Enable per-shard ``choose_victim`` timers (obs-active servers).
    flight_capacity / flight_meta:
        Per-worker flight recorder ring size (0 = off) and the config
        noted on each window.
    monitor / monitor_every:
        Attach per-worker invariant monitors sampling each worker's own
        policies every ``monitor_every // W`` of its requests.
    start_method:
        ``multiprocessing`` start method; defaults to ``fork`` where
        available (policy factories need not pickle), else ``spawn``.
    profile:
        Sampling profiler spec for the child processes (one sampler per
        process); worker 0 runs on the caller's thread, which the
        caller's own profiler covers.
    """

    def __init__(
        self,
        policy: PolicySpec,
        num_workers: int,
        num_shards: int,
        k: int,
        owners: np.ndarray,
        costs: Optional[Sequence[CostFunction]] = None,
        *,
        policy_seed: Optional[int] = None,
        trace: Optional[Trace] = None,
        horizon: int = 0,
        validate: bool = True,
        window: Optional[int] = None,
        timing: bool = False,
        flight_capacity: int = 0,
        flight_meta: Optional[Dict[str, object]] = None,
        monitor: bool = False,
        monitor_every: int = 0,
        start_method: Optional[str] = None,
        name: str = "pool",
        trace_jsonl: Optional[str] = None,
        profile: Optional[Dict[str, object]] = None,
    ) -> None:
        import multiprocessing as mp

        num_workers = check_positive_int(num_workers, "num_workers")
        num_shards = check_positive_int(num_shards, "num_shards")
        self.name = name
        self.num_shards = num_shards
        #: Effective worker count (a shard is never split).
        self.num_workers = W = min(num_workers, num_shards)
        owners = np.ascontiguousarray(np.asarray(owners, dtype=np.int64))
        self.num_users = int(owners.max()) + 1
        self._costs = costs
        self._window = window
        #: page → worker routing table (uint8: W <= 255 by construction).
        self._page_worker = (shard_table(int(owners.size), num_shards) % W).astype(
            np.uint8
        )
        specs = [
            WorkerSpec(
                worker_id=w,
                num_workers=W,
                shard_ids=tuple(sid for sid in range(num_shards) if sid % W == w),
                policy=policy,
                num_shards=num_shards,
                k=k,
                owners=owners,
                costs=costs,
                policy_seed=policy_seed,
                trace=trace,
                horizon=horizon,
                validate=validate,
                window=window,
                timing=timing,
                flight_capacity=flight_capacity,
                flight_meta=dict(flight_meta or {}),
                monitor=monitor,
                monitor_every=monitor_every,
                trace_jsonl=trace_jsonl,
                profile=dict(profile) if profile else None,
            )
            for w in range(W)
        ]
        if start_method is None:
            start_method = (
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
        ctx = mp.get_context(start_method)
        #: Worker handles by worker id: worker 0 in process, then the
        #: children.
        self._workers: list = []
        #: The child processes (workers 1 … W−1).
        self._procs = []
        self._closed = False
        children: List[_PipeWorker] = []
        try:
            # Children first, so none inherits worker 0's open span
            # spill, and worker 0 builds while they build theirs.
            for spec in specs[1:]:
                parent_conn, child_conn = ctx.Pipe(duplex=True)
                proc = ctx.Process(
                    target=_worker_main,
                    args=(child_conn, spec),
                    name=f"{name}-worker-{spec.worker_id}",
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                children.append(
                    _PipeWorker(self._label(spec.worker_id), parent_conn, proc)
                )
                self._procs.append(proc)
            label = self._label(0)
            try:
                # One sampler per process: the caller's covers worker 0.
                state = _WorkerState(replace(specs[0], profile=None))
            except Exception as exc:  # noqa: BLE001 - as the handshake reports it
                raise WorkerCrashed(
                    f"{label} errored: {type(exc).__name__}: {exc}"
                ) from exc
            self._workers = [_LocalWorker(label, state)] + children
            # Handshake: surface child build errors (unknown policy,
            # missing costs, unpicklable spec under spawn) at
            # construction.
            for child in children:
                child.take()
        except BaseException:
            self._workers = self._workers or children
            self.close(graceful=False)
            raise

    def _label(self, w: int) -> str:
        return f"shard worker {w} of pool {self.name!r}"

    # ------------------------------------------------------------------
    # Exchanges
    # ------------------------------------------------------------------
    def _exchange(
        self, msgs: List[Tuple[int, tuple]], best_effort: bool = False
    ) -> List[Tuple[int, object]]:
        """Post ``(worker, message)`` pairs, then take each posted
        worker's reply in order — worker 0, served here, goes first, so
        it runs while the children serve theirs.  Returns ``(worker,
        reply)`` pairs.  A failure is raised only after every other
        reply of the exchange has been read, so no reply stays in a
        pipe — a lost worker ahead of an error in worker 0; with
        *best_effort* failed workers are skipped instead."""
        workers = self._workers
        error: Optional[Exception] = None
        posted: List[int] = []
        for w, msg in msgs:
            try:
                workers[w].post(msg)
                posted.append(w)
            except WorkerCrashed as exc:
                error = error or exc
        replies: List[Tuple[int, object]] = []
        for w in posted:
            try:
                replies.append((w, workers[w].take()))
            except Exception as exc:  # noqa: BLE001 - raised below
                if error is None or isinstance(exc, WorkerCrashed):
                    error = exc
        if error is not None and not best_effort:
            raise error
        return replies

    def _split(self, pages: np.ndarray) -> List[Tuple[int, np.ndarray]]:
        """``(worker, positions)`` for every worker the batch touches."""
        wids = self._page_worker[pages]
        parts = []
        for w in range(self.num_workers):
            pos = np.nonzero(wids == w)[0]
            if pos.size:
                parts.append((w, pos))
        return parts

    def apply(
        self,
        pages: np.ndarray,
        t0: int,
        trace_id: int = 0,
        parent: int = 0,
    ) -> np.ndarray:
        """Serve one exchange — a batch, or a run of consecutive
        batches — across the workers.

        *pages* are the requests in submission order; request *i*
        carries global time ``t0 + i``.  Returns the merged ``uint8`` hit-flag
        array, index-aligned with *pages*.  A non-zero *trace_id*
        propagates the distributed span context (*parent* is the
        router-side span id) to every worker touched by the batch.
        """
        pages = np.ascontiguousarray(pages, dtype=np.int64)
        parts = self._split(pages)
        replies = self._exchange(
            [(w, ("p", t0, pages[pos], pos, trace_id, parent)) for w, pos in parts]
        )
        flags = np.empty(int(pages.size), dtype=np.uint8)
        for (_w, pos), (_, reply) in zip(parts, replies):
            flags[pos] = reply
        return flags

    # ------------------------------------------------------------------
    # Scrape-time gather
    # ------------------------------------------------------------------
    def _gather(self, op: str, best_effort: bool = False) -> List[Tuple[int, object]]:
        """Control *op* to every worker: ``(worker, reply)`` in worker
        order.  With *best_effort* dead workers are skipped instead of
        raising."""
        return self._exchange(
            [(w, (op,)) for w in range(self.num_workers)], best_effort
        )

    def snapshot(self, best_effort: bool = False) -> Dict[str, object]:
        """The workers' group snapshots merged into one document of the
        shape :meth:`~repro.serve.shard.ShardGroup.snapshot` returns —
        ``ledger`` is a :class:`~repro.serve.accounting.CostLedger`
        merged from every worker's slice — plus ``workers``."""
        ledger = CostLedger(self.num_users, self._costs, window=self._window)
        merged: Dict[str, object] = {
            "workers": self.num_workers,
            "ledger": ledger,
            "shards": [],
            "monitor_flags": 0,
            "monitor_samples": 0,
        }
        for _w, snap in self._gather("s", best_effort):
            ledger.merge(snap["ledger"])
            merged["shards"].extend(snap["shards"])
            merged["monitor_flags"] += snap["monitor_flags"]
            merged["monitor_samples"] += snap["monitor_samples"]
        merged["shards"].sort(key=lambda row: row["shard"])
        return merged

    def flight_windows(
        self, best_effort: bool = False
    ) -> List[Tuple[Dict[str, object], List[tuple]]]:
        """Per-worker ``(meta, raw events)`` flight windows."""
        return [tuple(reply) for _w, reply in self._gather("f", best_effort)]

    def profile_gather(
        self, best_effort: bool = False
    ) -> Dict[str, Dict[str, int]]:
        """Folded-stack counts per profiled child process, keyed
        ``w<i>`` for ``i`` in ``1 … W−1``.

        Empty when the pool was built without ``profile=``.  Worker 0
        runs in the calling process, so its stacks are in that
        process's own profile; merge the two with
        :func:`repro.obs.prof.merge_folded`.
        """
        return {
            f"w{w}": folded
            for w, folded in self._gather("prof", best_effort)
            if folded is not None
        }

    def merged_flight_events(self, best_effort: bool = False) -> List[tuple]:
        """All workers' windows k-way-merged by global time.

        Every request appends exactly one event on exactly one worker,
        so as long as no per-worker ring wrapped, the merge is the
        *dense* global window — directly
        :func:`~repro.obs.flight.replay_verify`-able.
        """
        windows = self.flight_windows(best_effort=best_effort)
        return list(
            heapq.merge(*(events for _meta, events in windows),
                        key=lambda ev: ev[0])
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """All workers running and the pool not closed."""
        return (
            not self._closed
            and bool(self._workers)
            and all(worker.alive for worker in self._workers)
        )

    def close(self, graceful: bool = True) -> None:
        """Shut the workers down (idempotent).

        Graceful close sends each live child the close op and waits for
        it; anything unresponsive is terminated.  Worker 0's span spill
        is closed either way.
        """
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            worker.stop(graceful)
        for worker in self._workers:
            worker.join()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close(graceful=False)
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardWorkerPool(name={self.name!r}, W={self.num_workers}, "
            f"S={self.num_shards}, alive={self.alive})"
        )


__all__ = ["ShardWorkerPool", "WorkerCrashed", "WorkerSpec"]
