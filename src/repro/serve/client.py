"""Replay and load-generation clients for the serving subsystem.

Three feeding modes, all preserving request order (submission order is
serving order — the server's single consumer guarantees it):

* :func:`replay` — push a :class:`~repro.sim.trace.Trace` through a
  running :class:`~repro.serve.server.CacheServer`, either **closed
  loop** (``rate=None``: keep ``pipeline`` batches in flight, as fast
  as the server absorbs them — the benchmarking mode) or **open loop**
  (``rate=r``: pace submissions to *r* requests/second, modelling a
  fixed-rate arrival process).
* :func:`replay_stream` — generate requests *live* from any
  :class:`~repro.workloads.streams.PageStream` instead of a
  pre-materialized trace: the online setting proper, with no horizon
  materialised anywhere.
* :func:`replay_tcp` — the same closed-loop replay over the
  line-delimited JSON TCP front end, with four batch lines in flight on
  one connection; it returns the client's own totals, and the server's
  state is read over HTTP (``/stats``) or in process.

On-disk traces replay via :func:`load_trace_file`: ``page,tenant``
CSVs — including ``.gz``-compressed ones — route through
:mod:`repro.sim.trace_io` and materialize, while columnar trace
directories (:mod:`repro.sim.colstore`) open as a
:class:`~repro.sim.colstore.TraceReader` and **stream**:
:func:`replay` feeds reader batches straight off the mmap'd segments,
so a replay's client-side footprint is bounded by the batch size, not
the trace length.

:func:`serve_trace` is the one-call convenience wrapped in
``asyncio.run``: build a server, replay a trace, stop, return the
:class:`ReplayReport`.  With ``num_shards=1`` its report is
request-for-request identical to :func:`repro.sim.engine.simulate`
(hits, misses, per-user misses) for every registered policy — the
serve↔simulate equivalence enforced by
``tests/test_serve_equivalence.py``.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.cost_functions import CostFunction
from repro.obs import Observability
from repro.serve.server import CacheServer
from repro.serve.shard import PolicySpec
from repro.sim.colstore import TraceReader, is_columnar, open_trace
from repro.sim.trace import Trace
from repro.sim.trace_io import load_csv
from repro.util.rng import RandomSource, ensure_rng
from repro.util.validation import check_positive, check_positive_int
from repro.workloads.streams import PageStream

#: Batch lines :func:`replay_tcp` keeps in flight: :func:`replay`'s
#: default pipeline depth.
_TCP_PIPELINE = 4


@dataclass
class ReplayReport:
    """Client-side accounting of one replay.

    ``user_misses`` is rebuilt from per-request hit flags and the
    trace's ownership map — deliberately *not* read back from the
    server, so equivalence tests compare two independent accountings.
    """

    trace_name: str
    policy: str
    num_shards: int
    requests: int
    hits: int
    misses: int
    user_misses: np.ndarray
    elapsed: float
    stats: Dict[str, object] = field(default_factory=dict)
    #: Time spent starting the server (worker-pool spawn included) and
    #: stopping it (drain + pool shutdown) when the replay went through
    #: :func:`serve_trace`; both excluded from ``elapsed``, so
    #: ``requests_per_sec`` covers the replay window only.
    startup_seconds: float = 0.0
    drain_seconds: float = 0.0
    workers: int = 1

    @property
    def requests_per_sec(self) -> float:
        """Replay-window throughput: ``elapsed`` runs from the first
        submission to the last resolved outcome — server startup and
        drain are reported separately (``startup_seconds`` /
        ``drain_seconds``), never in the denominator."""
        return self.requests / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.requests if self.requests else 0.0

    def cost(self, costs: Sequence[CostFunction]) -> float:
        """The paper's objective :math:`\\sum_i f_i(a_i)` of this replay."""
        return float(
            sum(f.value(int(m)) for f, m in zip(costs, self.user_misses))
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReplayReport(policy={self.policy!r}, trace={self.trace_name!r}, "
            f"misses={self.misses}/{self.requests}, "
            f"rps={self.requests_per_sec:.0f})"
        )


async def replay(
    server: CacheServer,
    trace: Union[Trace, TraceReader],
    *,
    batch: int = 256,
    rate: Optional[float] = None,
    pipeline: int = 4,
) -> ReplayReport:
    """Feed *trace* through a started *server*, in order.

    *trace* may be an in-RAM :class:`~repro.sim.trace.Trace` or a
    columnar :class:`~repro.sim.colstore.TraceReader` — a reader is
    consumed batch-by-batch off its mmap'd segments, so the client
    never holds more than one segment resident.

    Parameters
    ----------
    batch:
        Requests per submission (amortises queue/future overhead; the
        server still applies them one by one).
    rate:
        Target requests/second (open loop); ``None`` = closed loop.
    pipeline:
        Closed-loop max batches in flight (submission stays ordered;
        this only overlaps client bookkeeping with serving).
    """
    batch = check_positive_int(batch, "batch")
    pipeline = check_positive_int(pipeline, "pipeline")
    if rate is not None:
        rate = check_positive(rate, "rate")
    owners = np.asarray(trace.owners)
    T = trace.length
    user_misses = np.zeros(max(trace.num_users, 1), dtype=np.int64)
    hits = 0

    def account(pages: np.ndarray, flags: List[bool]) -> int:
        missed = pages[~np.asarray(flags, dtype=bool)]
        if missed.size:
            np.add.at(user_misses, owners[missed], 1)
        return len(flags) - int(missed.size)

    start = time.perf_counter()
    inflight: List[tuple] = []  # (future, pages) in submission order
    sent = 0
    for _t0, pages in trace.batches(batch):
        if rate is not None:
            target = start + sent / rate
            delay = target - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
        fut = await server.submit_many(pages.tolist())
        inflight.append((fut, pages))
        sent += int(pages.size)
        if len(inflight) >= pipeline:
            done_fut, done_pages = inflight.pop(0)
            outcome = await done_fut
            hits += account(done_pages, outcome.hit_flags)
    for fut, pages in inflight:
        outcome = await fut
        hits += account(pages, outcome.hit_flags)
    elapsed = time.perf_counter() - start

    return ReplayReport(
        trace_name=trace.name,
        policy=server.shards.policy_name,
        num_shards=server.shards.num_shards,
        requests=T,
        hits=hits,
        misses=int(user_misses.sum()),
        user_misses=user_misses,
        elapsed=elapsed,
        stats=server.stats(),
    )


async def replay_stream(
    server: CacheServer,
    stream: PageStream,
    length: int,
    *,
    seed: RandomSource = None,
    batch: int = 256,
    rate: Optional[float] = None,
) -> ReplayReport:
    """Generate *length* requests live from *stream* and serve them.

    The stream draws pages in the server's global page space (build the
    server with ``owners`` covering ``stream.num_pages``).  Unlike
    :func:`replay` nothing is materialized up front — each batch is
    drawn only once the previous one has been accepted.
    """
    length = check_positive_int(length, "length")
    batch = check_positive_int(batch, "batch")
    if rate is not None:
        rate = check_positive(rate, "rate")
    if stream.num_pages > server.shards.num_pages:
        raise ValueError(
            f"stream pages ({stream.num_pages}) exceed the server universe "
            f"({server.shards.num_pages})"
        )
    rng = ensure_rng(seed)
    owners = server.owners
    user_misses = np.zeros(max(server.shards.num_users, 1), dtype=np.int64)
    hits = 0
    sent = 0
    start = time.perf_counter()
    while sent < length:
        n = min(batch, length - sent)
        pages = stream.sample(rng, n)
        if rate is not None:
            target = start + sent / rate
            delay = target - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
        outcome = await server.request_many(pages.tolist())
        missed = pages[~np.asarray(outcome.hit_flags, dtype=bool)]
        if missed.size:
            np.add.at(user_misses, owners[missed], 1)
        hits += outcome.hits
        sent += n
    elapsed = time.perf_counter() - start
    return ReplayReport(
        trace_name=f"{type(stream).__name__.lower()}[live]",
        policy=server.shards.policy_name,
        num_shards=server.shards.num_shards,
        requests=length,
        hits=hits,
        misses=int(user_misses.sum()),
        user_misses=user_misses,
        elapsed=elapsed,
        stats=server.stats(),
    )


async def replay_tcp(
    host: str,
    port: int,
    trace: Union[Trace, TraceReader],
    *,
    batch: int = 256,
) -> Dict[str, int]:
    """Replay *trace* (in-RAM or a streaming columnar reader) over the
    TCP front end, keeping as many batches in flight as :func:`replay`
    does by default, and end with a ``ping``.  Returns the totals of
    the replies: ``requests``, ``hits`` and ``misses`` summed over the
    batch replies, and the server's clock ``time`` from the ping, which
    counts every request served before it (other clients' included)."""
    batch = check_positive_int(batch, "batch")
    reader, writer = await asyncio.open_connection(host, port)

    async def reply() -> dict:
        resp = json.loads(await reader.readline())
        if not resp.get("ok"):
            raise RuntimeError(f"server error: {resp.get('error')}")
        return resp

    hits = misses = inflight = 0
    try:
        for _t0, chunk in trace.batches(batch):
            pages = chunk.tolist()
            writer.write(
                json.dumps({"op": "batch", "pages": pages}).encode() + b"\n"
            )
            await writer.drain()
            inflight += 1
            if inflight < _TCP_PIPELINE:
                continue
            resp = await reply()
            inflight -= 1
            hits += resp["hits"]
            misses += resp["misses"]
        writer.write(json.dumps({"op": "ping"}).encode() + b"\n")
        await writer.drain()
        for _ in range(inflight):
            resp = await reply()
            hits += resp["hits"]
            misses += resp["misses"]
        ping = await reply()
    finally:
        writer.close()
        await writer.wait_closed()
    return {
        "requests": hits + misses,
        "hits": hits,
        "misses": misses,
        "time": ping["time"],
    }


def load_trace_file(
    path: str, name: Optional[str] = None
) -> Union[Trace, TraceReader]:
    """Load a replayable trace from disk.

    A ``page,tenant`` CSV (``.gz`` ok) materializes to a
    :class:`~repro.sim.trace.Trace`; a columnar trace directory
    (:mod:`repro.sim.colstore`) opens as a streaming
    :class:`~repro.sim.colstore.TraceReader`.
    """
    if is_columnar(path):
        return open_trace(path)
    return load_csv(path, name=name or path).trace


def serve_trace(
    trace: Union[Trace, TraceReader, str],
    policy: PolicySpec,
    k: int,
    costs: Optional[Sequence[CostFunction]] = None,
    *,
    num_shards: int = 1,
    batch: int = 256,
    rate: Optional[float] = None,
    pipeline: int = 4,
    queue_limit: int = 1024,
    tenant_inflight: Optional[int] = None,
    window: Optional[int] = None,
    policy_seed: Optional[int] = None,
    validate: bool = True,
    obs: Optional["Observability"] = None,
    monitor_every: int = 1024,
    workers: int = 1,
    profile: object = None,
    trace_sample: int = 1,
    http_port: Optional[int] = None,
    http_host: str = "127.0.0.1",
    alerts: object = None,
) -> ReplayReport:
    """Build a server, replay *trace* (a :class:`Trace`, a columnar
    :class:`~repro.sim.colstore.TraceReader`, or a path to either)
    through it, stop it, and return the :class:`ReplayReport` — the
    serving counterpart of :func:`repro.sim.engine.simulate`.  A
    reader/columnar path streams: client-side memory is bounded by the
    batch size, not the trace length (offline ``requires_future``
    policies still need a materialized :class:`Trace`).  Pass ``obs``
    to run the replay under a specific telemetry bundle (the
    observability-overhead benchmarks do); ``workers > 1`` serves the
    shard set process-parallel (results are bit-identical for any
    worker count);
    ``profile`` installs the sampling profiler in the server process
    (which runs worker 0) and every worker process, and ``trace_sample`` head-samples distributed traces to
    every *N*-th submission (see :class:`CacheServer`).  Startup
    (worker spawn) and drain are timed into the report's
    ``startup_seconds``/``drain_seconds`` and excluded from the
    throughput window.  ``http_port``/``http_host``/``alerts`` expose
    the HTTP admin plane (and optionally a custom
    :class:`~repro.obs.alerts.AlertEngine`) for the replay's lifetime —
    see :class:`CacheServer`."""
    if isinstance(trace, str):
        trace = load_trace_file(trace)

    async def _run() -> ReplayReport:
        server = CacheServer(
            policy,
            k,
            np.asarray(trace.owners),
            costs,
            num_shards=num_shards,
            queue_limit=queue_limit,
            tenant_inflight=tenant_inflight,
            window=window,
            policy_seed=policy_seed,
            trace=trace if isinstance(trace, Trace) else None,
            horizon=trace.length,
            validate=validate,
            obs=obs,
            monitor_every=monitor_every,
            workers=workers,
            profile=profile,
            trace_sample=trace_sample,
            http_port=http_port,
            http_host=http_host,
            alerts=alerts,
        )
        t0 = time.perf_counter()
        await server.start()
        t_started = time.perf_counter()
        try:
            report = await replay(
                server, trace, batch=batch, rate=rate, pipeline=pipeline
            )
        finally:
            t_drain = time.perf_counter()
            await server.stop()
            drain_seconds = time.perf_counter() - t_drain
        report.startup_seconds = t_started - t0
        report.drain_seconds = drain_seconds
        report.workers = server.workers
        return report

    return asyncio.run(_run())


__all__ = [
    "ReplayReport",
    "replay",
    "replay_stream",
    "replay_tcp",
    "load_trace_file",
    "serve_trace",
]
