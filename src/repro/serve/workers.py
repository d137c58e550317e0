"""Process-parallel shard workers with batched routing over framed pipes.

The single-consumer server (:mod:`repro.serve.server`) applies every
request sequentially, so the S-way page→shard split of
:class:`~repro.serve.shard.ShardManager` never uses more than one
core.  :class:`ShardWorkerPool` lifts the same shard set onto ``W``
OS processes: shard ``s`` is owned by worker ``s % W``, and each
worker serves through a :class:`~repro.serve.shard.ShardGroup` — the
same serving core an in-process server runs — over just the shards it
owns: their **policy instances** and per-shard decision timers, a
:class:`~repro.serve.accounting.CostLedger` **slice**, and an
optional **invariant monitor**.  Only the **flight recorder**, span
spill and profiler are the worker's own.

Determinism is by construction, not by luck: the ingress side assigns
every request its **global clock value** ``t`` before routing, and a
shard's subsequence is applied in submission order by exactly one
worker — so every policy sees the identical ``(page, t)`` stream it
would see in-process, and serving results are bit-for-bit independent
of ``W`` (test-enforced by ``tests/test_serve_equivalence.py``).

Routing is batched and buffer-flat.  A precomputed page→worker table
(:func:`~repro.serve.shard.shard_table` modulo ``W``) splits an
exchange into per-worker position/page arrays, and each worker
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
  preallocated per-worker staging buffer, so an exchange costs no
  allocation and no serialization once the buffer has grown to the
  working run size.  The worker answers ``b"F"`` + one hit-flag byte
  per request, or ``b"E"`` + an error message.
* ``b"!"`` — a control frame: a pickled message for the construction
  handshake, detail/snapshot/flight/profile gathers, and shutdown.

Exchanges are strictly synchronous request/reply per worker, and both
the serve consumer's apply call and the scrape paths run without
awaiting — under asyncio's single thread that means data and control
messages can never interleave on a pipe, so the protocol needs no
locks.  A worker reads a whole frame before it writes its reply, so
frames larger than the socket buffer cannot deadlock the parent's
send-to-all-then-receive-from-all exchange.

Scrape-time merging mirrors the in-process design ("exactness via
scrape-time collectors", DESIGN.md): each worker reports its group's
:meth:`~repro.serve.shard.ShardGroup.snapshot` — ledger counters,
shard occupancy/evictions, decision timers, monitor counts — and
:meth:`ShardWorkerPool.snapshot` merges them into the document an
in-process group produces (one :meth:`~repro.serve.accounting.
CostLedger.merge` per worker), so ``stats`` / ``metrics`` / ``audit``
output is schema-identical at any ``W``.  Windowed SLA rows stay exact
because every ledger bins misses by the *global* window index
``t // window``.

Worker death is detected, not hung on: every reply wait polls the
pipe with a bounded timeout and checks the process, raising
:class:`WorkerCrashed` (a :class:`~repro.serve.server.ServerClosed`)
so the consumer can fail pending futures and auto-dump the surviving
workers' flight windows.
"""

from __future__ import annotations

import heapq
import pickle
import struct
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cost_functions import CostFunction
from repro.serve.accounting import CostLedger
from repro.serve.server import ServerClosed
from repro.serve.shard import PolicySpec, ShardGroup, ShardManager, shard_table
from repro.sim.trace import Trace
from repro.util.validation import check_positive_int


class WorkerCrashed(ServerClosed):
    """A shard worker process died (or its pipe broke) mid-protocol."""


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
    """The per-process serving state (lives only inside a worker): a
    :class:`~repro.serve.shard.ShardGroup` over the worker's shards,
    plus what only a worker process has — its flight ring, span spill
    and profiler."""

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
        pages: List[int],
        ts: List[int],
        trace_id: int = 0,
        parent: int = 0,
    ) -> List[bool]:
        """Serve one routed batch through the group; returns per-request
        hit flags, and spills a ``worker.apply`` span when traced."""
        t_trace = 0
        if trace_id and self.tracer is not None:
            t_trace = time.perf_counter_ns()
        flags = self.group.apply(pages, ts)
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
    """Worker process entry point: build the shard group, serve the
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
                ).tolist()
                pos = np.frombuffer(
                    frame, dtype=np.int32, count=m, offset=_PIPE_HDR + 8 * m
                ).tolist()
                flags = state.apply(
                    pages, [t0 + p for p in pos], trace_id, parent
                )
                conn.send_bytes(b"F" + bytes(flags))
            elif tag == b"!":  # control op (pickled)
                reply_kind = "pickle"
                msg = pickle.loads(frame[1:])
                op = msg[0]
                if op == "d":  # apply with per-request detail
                    _, t0, pos_b, pages_b = msg
                    pos = np.frombuffer(pos_b, dtype=np.int32).tolist()
                    pages = np.frombuffer(pages_b, dtype=np.int64).tolist()
                    conn.send(
                        state.group.apply(pages, [t0 + p for p in pos], True)
                    )
                elif op == "s":  # snapshot (scrape-time gather)
                    conn.send(state.snapshot())
                elif op == "f":  # flight window gather
                    conn.send(state.flight_window())
                elif op == "prof":  # folded-stack profile gather
                    conn.send(state.profile_folded())
                elif op == "c":  # close
                    state.close()
                    conn.send(("bye", state.group.ledger.total_requests))
                    return
                else:  # pragma: no cover - protocol bug guard
                    conn.send(("err", f"unknown op {op!r}"))
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


class ShardWorkerPool:
    """Partition ``S`` shards across ``W`` worker processes.

    Each worker is reached over its own duplex pipe, the only channel
    between the processes: :meth:`apply` sends every touched worker one
    data frame and merges the flag replies back into submission order
    (frame layout in the module docstring).

    Parameters mirror :class:`~repro.serve.shard.ShardManager` (the
    worker side rebuilds the identical shard set); pool-specific knobs:

    num_workers:
        Requested worker processes; clamped to ``num_shards`` (a shard
        is owned by exactly one worker).
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
        self.num_workers = min(num_workers, num_shards)
        owners = np.ascontiguousarray(np.asarray(owners, dtype=np.int64))
        self.num_users = int(owners.max()) + 1
        self._costs = costs
        self._window = window
        #: page → worker routing table (uint8: W <= 255 by construction).
        self._page_worker = (
            shard_table(int(owners.size), num_shards) % self.num_workers
        ).astype(np.uint8)

        if start_method is None:
            start_method = (
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
        ctx = mp.get_context(start_method)
        self._conns = []
        self._procs = []
        #: Per-worker data-frame staging buffers (reused, grown).
        self._staging: List[bytearray] = [
            bytearray(0) for _ in range(self.num_workers)
        ]
        self._closed = False
        specs = []
        for w in range(self.num_workers):
            specs.append(
                WorkerSpec(
                    worker_id=w,
                    num_workers=self.num_workers,
                    shard_ids=tuple(
                        sid for sid in range(num_shards)
                        if sid % self.num_workers == w
                    ),
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
            )
        try:
            for w, spec in enumerate(specs):
                parent_conn, child_conn = ctx.Pipe(duplex=True)
                proc = ctx.Process(
                    target=_worker_main,
                    args=(child_conn, spec),
                    name=f"{name}-worker-{w}",
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self._conns.append(parent_conn)
                self._procs.append(proc)
            # Handshake: surface build errors (unknown policy, missing
            # costs, unpicklable spec under spawn) at construction.
            for w in range(self.num_workers):
                reply = self._recv(w)
                if reply[0] != "ready":
                    raise RuntimeError(
                        f"shard worker {w} failed to start: {reply[1]}"
                    )
        except BaseException:
            self.close(graceful=False)
            raise

    # ------------------------------------------------------------------
    # Wire helpers
    # ------------------------------------------------------------------
    def _recv_bytes(self, w: int) -> bytes:
        """Receive one frame from worker *w*, watching for death."""
        conn = self._conns[w]
        try:
            while not conn.poll(_POLL_INTERVAL):
                if not self._procs[w].is_alive():
                    raise WorkerCrashed(
                        f"shard worker {w} of pool {self.name!r} died "
                        f"(exitcode {self._procs[w].exitcode})"
                    )
            return conn.recv_bytes()
        except (EOFError, OSError) as exc:
            raise WorkerCrashed(
                f"shard worker {w} of pool {self.name!r} closed its pipe: {exc}"
            ) from exc

    def _recv(self, w: int):
        """Receive one pickled control reply from worker *w*."""
        reply = pickle.loads(self._recv_bytes(w))
        if isinstance(reply, tuple) and reply and reply[0] == "err":
            raise WorkerCrashed(
                f"shard worker {w} of pool {self.name!r} errored: {reply[1]}"
            )
        return reply

    def _recv_flags(self, w: int) -> np.ndarray:
        """Receive one data reply frame: ``b"F"`` + the hit flags."""
        frame = self._recv_bytes(w)
        if frame[:1] == b"E":
            raise WorkerCrashed(
                f"shard worker {w} of pool {self.name!r} errored: "
                f"{frame[1:].decode(errors='replace')}"
            )
        return np.frombuffer(frame, dtype=np.uint8, offset=1)

    def _send_bytes(self, w: int, buf, size: Optional[int] = None) -> None:
        try:
            if size is None:
                self._conns[w].send_bytes(buf)
            else:
                self._conns[w].send_bytes(buf, 0, size)
        except (BrokenPipeError, OSError) as exc:
            raise WorkerCrashed(
                f"shard worker {w} of pool {self.name!r} is gone: {exc}"
            ) from exc

    def _send_control(self, w: int, msg: tuple) -> None:
        self._send_bytes(w, b"!" + pickle.dumps(msg))

    def _send_frame(
        self,
        w: int,
        t0: int,
        wpages: np.ndarray,
        pos: np.ndarray,
        trace_id: int,
        parent: int,
    ) -> None:
        """Frame one exchange into worker *w*'s reusable staging buffer
        and send it as a single payload — no pickling, no per-exchange
        allocation once the buffer has grown to the working run size."""
        m = int(wpages.size)
        need = _PIPE_HDR + 12 * m
        buf = self._staging[w]
        if len(buf) < need:
            buf = self._staging[w] = bytearray(max(need, 4096))
        buf[0:1] = b"p"
        struct.pack_into("<qqqq", buf, 8, t0, m, trace_id, parent)
        np.frombuffer(buf, dtype=np.int64, count=m, offset=_PIPE_HDR)[:] = wpages
        np.frombuffer(buf, dtype=np.int32, count=m, offset=_PIPE_HDR + 8 * m)[
            :
        ] = pos
        self._send_bytes(w, buf, need)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def route(self, pages: np.ndarray) -> np.ndarray:
        """Per-page worker ids (the precomputed splitmix64 table)."""
        return self._page_worker[pages]

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
        sends = self._split(pages)
        for w, pos in sends:
            self._send_frame(w, t0, pages[pos], pos, trace_id, parent)
        flags = np.empty(int(pages.size), dtype=np.uint8)
        for w, pos in sends:
            flags[pos] = self._recv_flags(w)
        return flags

    def apply_detail(
        self, pages: np.ndarray, t0: int
    ) -> List[Tuple[bool, Optional[int], int]]:
        """Serve one batch keeping per-request ``(hit, victim, shard)``.

        Detail exchanges ride the control plane (pickled): they return
        heterogeneous tuples, and the single-request path that uses
        them is not the throughput path."""
        pages = np.ascontiguousarray(pages, dtype=np.int64)
        sends = self._split(pages)
        for w, pos in sends:
            self._send_control(
                w,
                ("d", t0, pos.astype(np.int32).tobytes(), pages[pos].tobytes()),
            )
        out: List[Optional[Tuple[bool, Optional[int], int]]] = [None] * int(
            pages.size
        )
        for w, pos in sends:
            for i, tup in zip(pos.tolist(), self._recv(w)):
                out[i] = tuple(tup)
        return out  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Scrape-time gather
    # ------------------------------------------------------------------
    def _gather(self, op: str, best_effort: bool = False) -> List[Tuple[int, object]]:
        """Send control *op* to every worker, then collect the replies:
        ``(worker, reply)`` in worker order.  With *best_effort* dead
        workers are skipped instead of raising."""
        polled: List[int] = []
        for w in range(self.num_workers):
            try:
                self._send_control(w, (op,))
                polled.append(w)
            except WorkerCrashed:
                if not best_effort:
                    raise
        replies: List[Tuple[int, object]] = []
        for w in polled:
            try:
                replies.append((w, self._recv(w)))
            except WorkerCrashed:
                if not best_effort:
                    raise
        return replies

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
        """Folded-stack counts per profiled worker, keyed ``w<i>``.

        Empty when the pool was built without ``profile=``; merge with
        the parent's own profile via :func:`repro.obs.prof.merge_folded`.
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
            and bool(self._procs)
            and all(p.is_alive() for p in self._procs)
        )

    def close(self, graceful: bool = True) -> None:
        """Shut the workers down (idempotent).

        Graceful close sends each live worker the close op and joins
        it; anything unresponsive is terminated.
        """
        if self._closed:
            return
        self._closed = True
        if graceful:
            for w, conn in enumerate(self._conns):
                try:
                    conn.send_bytes(b"!" + pickle.dumps(("c",)))
                except (BrokenPipeError, OSError):
                    pass
            for w in range(len(self._conns)):
                try:
                    if self._conns[w].poll(1.0):
                        self._conns[w].recv()
                except (EOFError, OSError):
                    pass
        for proc in self._procs:
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=2.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass

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
