"""The serve workloads' load generator: one process, one TCP connection.

    python bench/loadgen.py CACHE_DIR --port P --control C [--no-open]

Replays the cached request stream as ``batch`` ops of 256 pages on one
connection: an untimed closed-loop warm-up, then ``SLICES`` rounds of

* a closed-loop slice — 4 batches in flight for a fixed time; its rate
  is one throughput sample;
* an open-loop slice — batches sent on a fixed schedule at the
  workload's rate whatever the server does; each batch is timed from
  when it was due to its reply, so a stall also delays every batch
  queued behind it.

Interleaving the slices spreads both measurements over the whole run,
so a stall of the shared machine lands in a few slices of each rather
than in all of one.  Right before and after each closed-loop slice,
with nothing in flight, it has the launcher time the reference loop in
the server process over the control socket (``cal``); it reads the
machine's steal counters around every slice, and brackets the rounds
with ``mark`` and ``done``.  Prints one JSON line: hits per batch sent
(``-1`` where the op failed), each closed slice's requests, seconds
and scale factor to reference speed, each open slice's latencies, the
share of CPU time stolen during each slice, how late the generator
sent, and its own CPU time over the rounds.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import socket
import sys
import time
from typing import List, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as wl  # noqa: E402
from calib import factor  # noqa: E402
from layers import host_ticks, steal_pct  # noqa: E402

#: Closed-loop batches in flight on the connection.
DEPTH = 4

#: Seconds without any reply before the remaining batches count as
#: timed out.
TIMEOUT = 10.0


class Conn:
    """A non-blocking client connection with line framing."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=TIMEOUT)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.rbuf = b""
        self.wbuf = bytearray()
        #: Batches handed to the connection so far.
        self.sent = 0

    def send(self, line: bytes) -> None:
        self.wbuf += line
        self.sent += 1

    def pump(self, timeout: float) -> List[bytes]:
        """Send what the socket takes; wait up to *timeout* for reply
        lines and return the complete ones."""
        writers = [self.sock] if self.wbuf else []
        readable, writable, _ = select.select([self.sock], writers, [], timeout)
        if writable:
            sent = self.sock.send(self.wbuf)
            del self.wbuf[:sent]
        if not readable:
            return []
        data = self.sock.recv(1 << 20)
        if not data:
            raise ConnectionError("server closed the connection")
        *lines, self.rbuf = (self.rbuf + data).split(b"\n")
        return lines

    def close(self) -> None:
        self.sock.close()


class Control:
    """The launcher's control socket: one command, one JSON reply."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=TIMEOUT)
        self.reader = self.sock.makefile("rb")

    def ask(self, command: str) -> dict:
        self.sock.sendall(command.encode() + b"\n")
        line = self.reader.readline()
        if not line:
            raise ConnectionError("launcher closed the control socket")
        return json.loads(line)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def record(hits: List[int], index: int, line: bytes) -> bool:
    reply = json.loads(line)
    if not reply.get("ok"):
        return False
    hits[index] = int(reply["hits"])
    return True


def closed_loop(conn: Conn, lines, hits, first: int, count: int,
                seconds: float = float("inf")) -> Tuple[int, int]:
    """Keep DEPTH batches in flight until *count* have been sent or
    *seconds* have passed, then wait for their replies; returns the
    number sent and the number that failed."""
    sent = done = failed = 0
    last = time.perf_counter()
    until = last + seconds
    while True:
        if time.perf_counter() < until:
            while sent < count and sent - done < DEPTH:
                conn.send(lines[first + sent])
                sent += 1
        if done == sent:
            return sent, failed
        replies = conn.pump(TIMEOUT)
        now = time.perf_counter()
        if not replies and now - last > TIMEOUT:
            raise TimeoutError(f"no reply for {TIMEOUT:.0f} s")
        for line in replies:
            failed += not record(hits, first + done, line)
            done += 1
            last = now


def open_loop(conn: Conn, lines, hits, first: int, count: int, interval: float):
    """Send batch *i* at ``start + i * interval``; returns per-batch
    latency from due time to reply (``inf`` if it failed) and per-batch
    send lateness, in seconds."""
    latency = [float("inf")] * count
    lateness = [0.0] * count
    start = time.perf_counter() + 0.01
    sent = done = 0
    last = start
    while done < count:
        now = time.perf_counter()
        while sent < count and start + sent * interval <= now:
            conn.send(lines[first + sent])
            lateness[sent] = now - (start + sent * interval)
            sent += 1
        wait = start + sent * interval - now if sent < count else TIMEOUT
        replies = conn.pump(max(0.0, wait))
        now = time.perf_counter()
        if not replies and sent == count and now - last > TIMEOUT:
            raise TimeoutError(f"no reply for {TIMEOUT:.0f} s")
        for line in replies:
            if record(hits, first + done, line):
                latency[done] = now - (start + done * interval)
            done += 1
            last = now
    return latency, lateness


def share(total: int, r: int) -> int:
    """Batches of round *r* when *total* are split over the rounds."""
    return total * (r + 1) // wl.SLICES - total * r // wl.SLICES


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("cache")
    ap.add_argument("--port", type=int, required=True)
    ap.add_argument("--control", type=int, required=True)
    ap.add_argument("--no-open", action="store_true",
                    help="closed-loop slices only (the traced run's baseline)")
    args = ap.parse_args()

    import numpy as np

    meta = wl.read_meta(args.cache)
    w = wl.WORKLOADS[meta["workload"]]
    sizes = meta["sizes"]
    requests = np.load(os.path.join(args.cache, "requests.npy"))
    lines = [
        json.dumps({"op": "batch", "pages": requests[lo : lo + wl.BATCH].tolist()}).encode()
        + b"\n"
        for lo in range(0, requests.size, wl.BATCH)
    ]
    n_warm = sizes["warmup"] // wl.BATCH
    n_closed = sizes["closed"] // wl.BATCH
    n_open = 0 if args.no_open else sizes["open"] // wl.BATCH
    interval = wl.BATCH / w.open_rps
    hits = [-1] * len(lines)
    out = {"closed_n": [], "closed_s": [], "closed_scale": [], "closed_steal": [],
           "latency_s": [], "open_steal": [], "lateness_s": [], "interval_s": interval}
    conn = ctl = None
    try:
        conn = Conn(args.port)
        ctl = Control(args.control)
        nxt, _ = closed_loop(conn, lines, hits, 0, n_warm)
        ctl.ask("mark")
        cpu0, t0 = time.process_time(), time.perf_counter()
        for r in range(wl.SLICES):
            before = ctl.ask("cal")["cal_s"]
            ticks, t = host_ticks(), time.perf_counter()
            count, _ = closed_loop(conn, lines, hits, nxt, share(n_closed, r),
                                   sizes["closed_slice_s"])
            out["closed_s"].append(time.perf_counter() - t)
            out["closed_steal"].append(steal_pct(ticks, host_ticks()))
            out["closed_n"].append(count * wl.BATCH)
            out["closed_scale"].append(factor(before, ctl.ask("cal")["cal_s"]))
            nxt += count
            count = share(n_open, r)
            if count:
                ticks = host_ticks()
                latency, lateness = open_loop(conn, lines, hits, nxt, count, interval)
                out["open_steal"].append(steal_pct(ticks, host_ticks()))
                out["latency_s"].append(latency)
                out["lateness_s"] += lateness
                nxt += count
        ctl.ask("done")
        out["window_s"] = time.perf_counter() - t0
        out["client_busy_s"] = time.process_time() - cpu0
    except (OSError, TimeoutError, ValueError) as exc:
        out["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        for c in (conn, ctl):
            if c is not None:
                c.close()
    # Every batch sent counts as attempted; one with no good reply failed.
    sent = conn.sent if conn is not None else 0
    out["hits"] = hits[:sent]
    out["batches"] = sent
    out["failed"] = sum(1 for h in out["hits"] if h < 0)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
