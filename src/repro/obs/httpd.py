"""HTTP admin plane: every read of a running owner's state.

The serve TCP front end carries only the data path (``batch``,
``request``, ``ping``); what the server knows about that stream — its
counters, per-tenant prices, Theorem 1.1 audit and alerts — is read
here.  :class:`ObsHttpServer` is a minimal stdlib-:mod:`asyncio`
HTTP/1.1 server (GET only, ``Connection: close``), so Prometheus,
``curl``, load balancers, ``python -m repro.obs scrape`` and ``dash``
all read it the standard way:

* ``/metrics`` — Prometheus text format 0.0.4 via the existing
  renderer (the provider callable; on :class:`CacheServer
  <repro.serve.server.CacheServer>` this is the worker-merged scrape,
  whose per-tenant counters equal ``simulate()`` — test-enforced);
* ``/health`` — liveness: 200 whenever the server is accepting;
* ``/ready`` — readiness: 200 while serving, 503 once draining or
  closed (drain-aware — wired to flip *before* the TCP listener goes
  away so rotations are hitless);
* ``/alerts`` — the :class:`~repro.obs.alerts.AlertEngine` snapshot
  (active + resolved alerts, rules, enabled flag) as JSON;
* ``/audit`` — the :class:`~repro.obs.audit.CompetitiveAuditor`
  snapshot (the live Theorem 1.1 audit, with its ``mode`` and
  ``window``) as JSON;
* ``/timeline`` — windowed series out of the metrics
  :class:`~repro.obs.timeline.Timeline` ring (``?name=&rate=1``);
* ``/stats`` — the owner's stats dict as JSON;
* ``/`` — JSON index of the routes that are actually wired.

Every provider is optional: endpoints whose provider is absent return
404 with a JSON error body, so one class serves :class:`CacheServer`,
``serve_trace`` and :class:`NetworkSim` with whatever subset each
owner has.  :class:`ObsHttpThread` runs the same server on a private
event loop in a daemon thread for synchronous owners (``NetworkSim``).
:func:`http_get` is the one GET client the readers share.
"""

from __future__ import annotations

import asyncio
import json
import threading
import urllib.parse
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.export import PROMETHEUS_CONTENT_TYPE

_JSON_CONTENT_TYPE = "application/json; charset=utf-8"

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Bound on the request line + headers we are willing to buffer.
_MAX_HEADER_BYTES = 16384

#: Seconds a client has to send its request line and headers; a slower
#: one gets 408 and a close, so it holds no handler and no ``stop()``.
_READ_TIMEOUT = 5.0


class ObsHttpServer:
    """Admin HTTP endpoint over pluggable providers.

    Parameters (all optional — unwired routes 404):

    * ``metrics``: zero-arg callable returning the Prometheus text
      exposition (e.g. ``CacheServer.prometheus_metrics``);
    * ``alerts``: an :class:`~repro.obs.alerts.AlertEngine` (anything
      with ``snapshot()``);
    * ``audit``: zero-arg callable returning the auditor's JSON-able
      snapshot (e.g. ``CacheServer.audit``);
    * ``timeline``: a :class:`~repro.obs.timeline.Timeline`;
    * ``stats``: zero-arg callable returning a JSON-able dict;
    * ``ready``: zero-arg callable returning truthy while the owner
      accepts work — ``/ready`` serves 503 when it returns falsy
      (drain-aware).  Without it ``/ready`` mirrors ``/health``.
    """

    def __init__(
        self,
        *,
        metrics: Optional[Callable[[], str]] = None,
        alerts: Optional[object] = None,
        audit: Optional[Callable[[], Dict[str, object]]] = None,
        timeline: Optional[object] = None,
        stats: Optional[Callable[[], Dict[str, object]]] = None,
        ready: Optional[Callable[[], bool]] = None,
        name: str = "obs",
    ) -> None:
        self.metrics = metrics
        self.alerts = alerts
        self.audit = audit
        self.timeline = timeline
        self.stats = stats
        self.ready = ready
        self.name = name
        self._server: Optional[asyncio.AbstractServer] = None
        self.address: Optional[Tuple[str, int]] = None
        self.requests = 0

    # -- lifecycle -----------------------------------------------------
    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> Tuple[str, int]:
        """Bind and serve; returns the bound ``(host, port)``."""
        if self._server is not None:
            raise RuntimeError("HTTP server already started")
        self._server = await asyncio.start_server(
            self._handle_connection, host=host, port=port
        )
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        return self.address

    async def stop(self) -> None:
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None

    # -- connection handling -------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                status, ctype, body = await self._respond(reader)
            except Exception as exc:  # noqa: BLE001 - admin plane must not
                # crash its owner on a provider error.
                status, ctype, body = self._json_response(
                    500, {"error": f"{type(exc).__name__}: {exc}"}
                )
            writer.write(_render_response(status, ctype, body))
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(
        self, reader: asyncio.StreamReader
    ) -> Tuple[int, str, bytes]:
        try:
            request = await asyncio.wait_for(
                self._read_request(reader), _READ_TIMEOUT
            )
        except asyncio.TimeoutError:
            return self._json_response(
                408, {"error": f"no complete request within {_READ_TIMEOUT:g} s"}
            )
        if request is None:
            return self._json_response(
                400, {"error": "malformed request; expected 'GET <path>'"}
            )
        method, target = request
        self.requests += 1
        if method != "GET":
            return self._json_response(
                405, {"error": f"method {method} not allowed; GET only"}
            )
        return self._route(target)

    @staticmethod
    async def _read_request(
        reader: asyncio.StreamReader,
    ) -> Optional[Tuple[str, str]]:
        """Parse ``METHOD target`` and drain headers to the blank line;
        ``None`` when the request line has no method and target, runs
        past the reader's limit, or the stream ends first."""
        try:
            line = await reader.readuntil(b"\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) < 2:
            return None
        read = len(line)
        while True:  # drain headers; GET requests carry no body
            try:
                header = await reader.readuntil(b"\r\n")
            except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
                return None
            read += len(header)
            if header in (b"\r\n", b"\n") or read > _MAX_HEADER_BYTES:
                break
        return parts[0], parts[1]

    # -- routing -------------------------------------------------------
    def _route(self, target: str) -> Tuple[int, str, bytes]:
        parsed = urllib.parse.urlsplit(target)
        path = parsed.path.rstrip("/") or "/"
        query = urllib.parse.parse_qs(parsed.query)
        if path == "/":
            return self._handle_index()
        if path == "/metrics":
            return self._handle_metrics()
        if path == "/health":
            return self._json_response(200, {"status": "ok", "name": self.name})
        if path == "/ready":
            return self._handle_ready()
        if path == "/alerts":
            return self._handle_alerts()
        if path == "/audit":
            return self._handle_audit()
        if path == "/timeline":
            return self._handle_timeline(query)
        if path == "/stats":
            return self._handle_stats()
        return self._json_response(404, {"error": f"no route {path!r}"})

    def _handle_index(self) -> Tuple[int, str, bytes]:
        routes: List[str] = ["/health", "/ready"]
        if self.metrics is not None:
            routes.append("/metrics")
        if self.alerts is not None:
            routes.append("/alerts")
        if self.audit is not None:
            routes.append("/audit")
        if self.timeline is not None:
            routes.append("/timeline")
        if self.stats is not None:
            routes.append("/stats")
        return self._json_response(
            200, {"name": self.name, "routes": sorted(routes)}
        )

    def _handle_metrics(self) -> Tuple[int, str, bytes]:
        if self.metrics is None:
            return self._json_response(404, {"error": "metrics not wired"})
        text = self.metrics()
        return 200, PROMETHEUS_CONTENT_TYPE, text.encode("utf-8")

    def _handle_ready(self) -> Tuple[int, str, bytes]:
        ok = True if self.ready is None else bool(self.ready())
        return self._json_response(
            200 if ok else 503,
            {"ready": ok, "name": self.name},
        )

    def _handle_alerts(self) -> Tuple[int, str, bytes]:
        if self.alerts is None:
            return self._json_response(404, {"error": "alerts not wired"})
        return self._json_response(200, self.alerts.snapshot())  # type: ignore[attr-defined]

    def _handle_audit(self) -> Tuple[int, str, bytes]:
        if self.audit is None:
            return self._json_response(404, {"error": "audit not wired"})
        return self._json_response(200, self.audit())

    def _handle_timeline(
        self, query: Dict[str, List[str]]
    ) -> Tuple[int, str, bytes]:
        timeline = self.timeline
        if timeline is None:
            return self._json_response(404, {"error": "timeline not wired"})
        names = query.get("name")
        if not names:
            return self._json_response(
                200,
                {
                    "len": len(timeline),  # type: ignore[arg-type]
                    "capacity": timeline.capacity,  # type: ignore[attr-defined]
                    "interval": timeline.interval,  # type: ignore[attr-defined]
                    "names": timeline.names(),  # type: ignore[attr-defined]
                },
            )
        name = names[0]
        rate = query.get("rate", ["0"])[0] not in ("", "0", "false", "no")
        series: List[Dict[str, object]] = []
        for labels in timeline.label_sets(name):  # type: ignore[attr-defined]
            label_dict = dict(labels)
            pts = (
                timeline.rate_series(name, label_dict)  # type: ignore[attr-defined]
                if rate
                else timeline.series(name, label_dict)  # type: ignore[attr-defined]
            )
            series.append({"labels": label_dict, "points": pts})
        return self._json_response(
            200, {"name": name, "rate": rate, "series": series}
        )

    def _handle_stats(self) -> Tuple[int, str, bytes]:
        if self.stats is None:
            return self._json_response(404, {"error": "stats not wired"})
        return self._json_response(200, self.stats())

    @staticmethod
    def _json_response(
        status: int, payload: Dict[str, object]
    ) -> Tuple[int, str, bytes]:
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        return status, _JSON_CONTENT_TYPE, body


def _render_response(status: int, content_type: str, body: bytes) -> bytes:
    reason = _STATUS_TEXT.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n"
        f"\r\n"
    )
    return head.encode("latin-1") + body


async def http_get(
    host: str, port: int, path: str
) -> Tuple[int, Dict[str, str], bytes]:
    """One ``GET path`` against an HTTP plane: ``(status, headers,
    body)`` with lower-cased header names.  It runs on the caller's
    event loop, so it can read a plane that loop serves; a refused
    connection raises :class:`OSError`, a reply without a status line
    :class:`ValueError`."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: {host}\r\n\r\n".encode("latin-1")
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = lines[0].split()
    if len(status) < 2 or not status[1].isdigit():
        raise ValueError(f"no HTTP status line in the reply to GET {path}")
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        key, _, value = line.partition(":")
        headers[key.strip().lower()] = value.strip()
    return int(status[1]), headers, body


class ObsHttpThread:
    """Run an :class:`ObsHttpServer` on a private loop in a daemon
    thread — the attachment point for synchronous owners
    (:class:`~repro.net.netsim.NetworkSim`).

    :meth:`start` blocks until the socket is bound (re-raising any bind
    error in the caller) and returns the bound address; :meth:`stop`
    shuts the loop down and joins the thread.
    """

    def __init__(
        self,
        server: ObsHttpServer,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.server = server
        self.host = host
        self.port = port
        self.address: Optional[Tuple[str, int]] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._error: Optional[BaseException] = None

    def start(self) -> Tuple[str, int]:
        if self._thread is not None:
            raise RuntimeError("HTTP thread already started")
        self._thread = threading.Thread(
            target=self._run, name=f"{self.server.name}-httpd", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._error is not None:
            self._thread.join()
            self._thread = None
            raise self._error
        assert self.address is not None
        return self.address

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            self.address = loop.run_until_complete(
                self.server.start(self.host, self.port)
            )
        except BaseException as exc:  # noqa: BLE001 - surfaced in start()
            self._error = exc
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(self.server.stop())
            loop.close()

    def stop(self) -> None:
        if self._thread is None:
            return
        assert self._loop is not None
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join()
        self._thread = None
        self._loop = None


__all__ = [
    "ObsHttpServer",
    "ObsHttpThread",
    "PROMETHEUS_CONTENT_TYPE",
    "http_get",
]
