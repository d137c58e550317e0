"""The server process of the serve workloads.

    python bench/launcher.py WORKLOAD CACHE_DIR [--traced SPILL_DIR]

Builds the workload's ``CacheServer`` with the program's defaults
(``validate=True``, the default worker transport, ``REPRO_OBS`` as the
parent left it) over the cached page universe and costs, serves TCP on
an ephemeral port, and prints one JSON ``ready`` line with that port,
the port of a control socket, and the pids of the server and its
workers.

The control socket belongs to the benchmark, not the program, and takes
one command per line, each answered with one JSON line:

* ``cal`` — time the reference loop (``calib.py``) here, in the server
  process, while the load generator holds back its requests;
* ``mark`` — the warm-up is over and the timed phases start: the layer
  totals restart, and the server processes' CPU time and the clock are
  read;
* ``done`` — the timed phases are over: CPU time and clock read again.

SIGTERM or SIGINT reads each process's peak RSS and the server's ledger
(requests served, per-tenant misses, cost), then stops the server through ``CacheServer.stop()`` — which
drains accepted requests and unlinks the workers' shared-memory rings —
and prints one JSON ``exit`` line with those readings, the server's CPU
use over the timed phases and, when traced, the per-layer metrics.  ``--traced`` wraps the server's layers
from this file and, with workers, records the program's own
``worker.apply`` spans head-sampled 1 in 64 into SPILL_DIR.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import multiprocessing
import os
import signal
import sys
import time
from multiprocessing import resource_tracker
from types import SimpleNamespace

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as wl  # noqa: E402
from calib import calibrate  # noqa: E402
from layers import Spans, pct, proc_usage  # noqa: E402

#: Head-sampling rate of the traced run's distributed spans.
TRACE_SAMPLE = 64

#: The server's own counters the traced run reads by scrape.
SCRAPED = (
    "serve_queue_wait_seconds_sum",
    "serve_apply_seconds_sum",
    "serve_policy_decision_seconds_total",
    "serve_policy_decisions_total",
)


def install_spans(spans: Spans) -> None:
    """Wrap the server's layers: JSON decode/encode as the server module
    calls them, ``request_many``, the W=1 shard and ledger calls, and
    the W>1 pool exchange."""
    import repro.serve.server as server_mod
    from repro.serve.accounting import CostLedger
    from repro.serve.server import CacheServer
    from repro.serve.shard import ShardManager
    from repro.serve.workers import ShardWorkerPool

    server_mod.json = SimpleNamespace(
        loads=spans.wrap("server.decode", json.loads),
        dumps=spans.wrap("server.encode", json.dumps),
    )
    CacheServer.request_many = spans.wrap_async(
        "server.request_many", CacheServer.request_many
    )
    ShardManager.serve = spans.wrap("shard.serve", ShardManager.serve)
    CostLedger.record = spans.wrap("ledger.record", CostLedger.record)
    ShardWorkerPool.apply = spans.wrap("workers.apply", ShardWorkerPool.apply)


def scraped(server) -> dict:
    """The server's own histograms and decision timers, by scrape,
    summed over shards."""
    from repro.obs import parse_prometheus

    totals = dict.fromkeys(SCRAPED, 0.0)
    for (name, _labels), value in parse_prometheus(server.prometheus_metrics()).items():
        if name in totals:
            totals[name] += value
    return totals


def worker_spans(paths) -> dict:
    """Sampled ``serve.route`` trees: total worker apply time, and route
    time and exchange time (route minus the slowest worker apply)."""
    from repro.obs import merge_traces

    sampled, apply_s, route_s, exchange_s = 0, 0.0, 0.0, 0.0
    for tree in merge_traces([p for p in paths if os.path.exists(p)]):
        for root in tree.roots:
            if root.name != "serve.route":
                continue
            applies = [c.dur for c in root.children if c.name == "worker.apply"]
            if not applies:
                continue
            sampled += 1
            apply_s += sum(applies)
            route_s += root.dur
            exchange_s += root.dur - max(applies)
    return {"sampled": sampled, "apply_s": apply_s, "route_s": route_s,
            "exchange_s": exchange_s}


def layer_metrics(spans: Spans, server, spill, scrape0: dict, window: float) -> dict:
    """Per-layer busy shares of the timed phases, from the wrappers and
    the server's own counters read since ``mark``."""
    scrape = {k: v - scrape0[k] for k, v in scraped(server).items()}
    queue_wait = scrape["serve_queue_wait_seconds_sum"]
    apply = scrape["serve_apply_seconds_sum"]
    request_many = spans.seconds("server.request_many")
    out = {
        "trace.window_s": window,
        "server.decode_pct": pct(spans.seconds("server.decode"), window),
        "server.encode_pct": pct(spans.seconds("server.encode"), window),
        "server.request_many_pct": pct(request_many, window),
        "server.queue_wait_pct": pct(queue_wait, window),
        "server.apply_pct": pct(apply, window),
        "server.other_pct": pct(request_many - queue_wait - apply, window),
        "shard.serve_pct": pct(spans.seconds("shard.serve"), window),
        "ledger.record_pct": pct(spans.seconds("ledger.record"), window),
        "workers.apply_pct": pct(spans.seconds("workers.apply"), window),
        "workers.worker_apply_pct": 0.0,
        "workers.exchange_pct": 0.0,
        **spans.policy_metrics(window),
    }
    if server.workers > 1:
        # The policies live in the workers, out of the wrappers' reach;
        # the program's own per-shard decision timer covers choose_victim.
        out["policy.choose_victim.pct"] = pct(
            scrape["serve_policy_decision_seconds_total"], window
        )
        out["policy.choose_victim.calls"] = scrape["serve_policy_decisions_total"]
    if spill is not None:
        from repro.obs.distrib import spill_path

        base = os.path.join(spill, "trace.jsonl")
        paths = [base] + [spill_path(base, w + 1) for w in range(server.workers)]
        traced = worker_spans(paths)
        if traced["sampled"]:
            per_batch = traced["apply_s"] / traced["sampled"]
            out["workers.worker_apply_pct"] = pct(
                per_batch * spans.calls("workers.apply"), window
            )
            out["workers.exchange_pct"] = pct(traced["exchange_s"], traced["route_s"])
    return out


def ledger(server) -> dict:
    """Requests served so far, and the per-tenant misses and total cost
    Σ f_i(m_i) the server's own ledger shows for them."""
    stats = server.stats()
    return {"served": server.time,
            "tenant_misses": [t["misses"] for t in stats["tenants"]],
            "tenant_cost": stats["total_cost"]}


def cpu_of(pids) -> float:
    total = 0.0
    for pid in pids:
        try:
            total += proc_usage(pid)["cpu_s"]
        except OSError:  # a worker that already died
            pass
    return total


async def serve(args) -> int:
    w = wl.WORKLOADS[args.workload]
    wl.use_src()
    from repro.obs import JsonlSink, Observability
    from repro.serve.server import CacheServer

    meta, owners, costs = wl.load(args.cache)
    # The pool forks its workers before it creates the first ring.  A
    # resource tracker started only then is this process's alone: each
    # worker starts its own on attach, and at exit those trackers report
    # the rings — already unlinked by stop() — as leaked.  Started here,
    # one tracker is shared by every worker.
    resource_tracker.ensure_running()
    spans = None
    obs = None
    spill = None
    sample = 1
    if args.traced is not None:
        spans = Spans()
        install_spans(spans)
        if w.workers > 1:
            spill = args.traced
            obs = Observability.enabled(sink=JsonlSink(os.path.join(spill, "trace.jsonl")))
            sample = TRACE_SAMPLE
    server = CacheServer(
        w.policy, meta["k"], owners, costs,
        num_shards=w.shards, workers=w.workers, obs=obs, trace_sample=sample,
    )
    if spans is not None:
        for shard in server.shards.shards:
            spans.wrap_policy(shard.policy)
    await server.start()
    _host, port = await server.start_tcp("127.0.0.1", 0)
    pids = [os.getpid()] + [p.pid for p in multiprocessing.active_children()]

    phase = {}

    async def control(reader, writer):
        try:
            while line := (await reader.readline()).strip():
                if line == b"cal":
                    reply = {"cal_s": calibrate()}
                elif line == b"mark":
                    if spans is not None:
                        spans.reset()
                        phase["scrape"] = scraped(server)
                    phase.update(cpu0=cpu_of(pids), t0=time.perf_counter())
                    reply = {"ok": True}
                elif line == b"done":
                    phase.update(cpu1=cpu_of(pids), t1=time.perf_counter())
                    reply = {"ok": True}
                else:
                    reply = {"error": f"unknown command {line!r}"}
                writer.write(json.dumps(reply).encode() + b"\n")
                await writer.drain()
        except ConnectionError:  # the load generator died
            pass
        finally:
            writer.close()

    ctl = await asyncio.start_server(control, "127.0.0.1", 0)
    ctl_port = ctl.sockets[0].getsockname()[1]
    print(json.dumps({"event": "ready", "port": port, "control": ctl_port,
                      "pids": pids}), flush=True)

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, stop.set)
    await stop.wait()
    ctl.close()
    procs = {}
    for pid in pids:
        try:
            procs[pid] = proc_usage(pid)
        except OSError:  # a worker that already died
            procs[pid] = None
    final = ledger(server)
    await server.stop()
    # The workers are gone, so the tracker can end too; wait for it
    # rather than leave it running past this process.
    resource_tracker._resource_tracker._stop()
    report = {"event": "exit", "procs": procs, "final": final}
    if "t1" in phase:
        window = phase["t1"] - phase["t0"]
        report["cpu_util"] = (phase["cpu1"] - phase["cpu0"]) / window
        if spans is not None:
            server.obs.tracer.close()
            report["layers"] = layer_metrics(spans, server, spill, phase["scrape"], window)
            report["layers"]["program.cpu_util"] = report["cpu_util"]
    print(json.dumps(report), flush=True)
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=sorted(
        name for name, w in wl.WORKLOADS.items() if w.kind == "serve"))
    ap.add_argument("cache")
    ap.add_argument("--traced", metavar="SPILL_DIR", default=None)
    return asyncio.run(serve(ap.parse_args()))


if __name__ == "__main__":
    sys.exit(main())
