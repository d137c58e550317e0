"""Command-line entry point: ``python -m repro.serve``.

Two subcommands::

    # Serve a TCP cache (line-delimited JSON protocol) until killed:
    python -m repro.serve serve --policy alg-discrete --k 256 \\
        --tenants 4 --pages-per-tenant 500 --beta 2 --port 9731

    # Replay a CSV (.gz ok) or columnar trace against a running server
    # (prints the client's totals; read the server's over --http):
    python -m repro.serve replay --host 127.0.0.1 --port 9731 trace.csv.gz

The ``serve`` universe is ``tenants * pages-per-tenant`` pages owned in
contiguous blocks, each tenant billed :math:`f_i(m) = m^\\beta`.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import List, Optional

import numpy as np

from repro.core.cost_functions import MonomialCost
from repro.obs import (
    CompetitiveAuditor,
    FlightRecorder,
    InvariantMonitor,
    JsonlSink,
    Observability,
)
from repro.serve.client import load_trace_file, replay_tcp
from repro.serve.server import CacheServer


async def _serve(args: argparse.Namespace) -> int:
    owners = np.repeat(
        np.arange(args.tenants, dtype=np.int64), args.pages_per_tenant
    )
    costs = [MonomialCost(args.beta) for _ in range(args.tenants)]
    obs = Observability()
    if args.trace_jsonl:
        obs = Observability.enabled(
            sink=JsonlSink(args.trace_jsonl),
            monitor=InvariantMonitor(costs) if args.monitor else None,
        )
    elif args.monitor:
        obs.monitor = InvariantMonitor(costs)
    if args.flight:
        obs.flight = FlightRecorder(
            capacity=args.flight, dump_path=args.flight_dump
        )
    if args.audit:
        obs.auditor = CompetitiveAuditor(
            costs, args.k, window=args.audit_window
        )
    alerts = None
    if args.http is not None or args.alerts_jsonl:
        from repro.obs.alerts import AlertEngine, serve_rule_pack
        from repro.obs.timeline import Timeline

        if obs.timeline is None:
            obs.timeline = Timeline(interval=args.timeline_interval)
        sinks = []
        if args.alerts_jsonl:
            sinks.append(
                JsonlSink(args.alerts_jsonl, max_bytes=args.alerts_max_bytes)
            )
        alerts = AlertEngine(
            obs.timeline,
            serve_rule_pack(queue_limit=args.queue_limit),
            sinks,
        )
    server = CacheServer(
        args.policy,
        args.k,
        owners,
        costs,
        num_shards=args.shards,
        queue_limit=args.queue_limit,
        tenant_inflight=args.tenant_inflight,
        window=args.window,
        policy_seed=args.seed,
        horizon=args.horizon,
        obs=obs,
        monitor_every=args.monitor_every,
        workers=args.workers,
        profile=args.profile,
        trace_sample=args.trace_sample,
        http_port=args.http,
        http_host=args.host,
        alerts=alerts,
    )
    await server.start()
    host, port = await server.start_tcp(args.host, args.port)
    print(
        f"serving policy={args.policy} k={args.k} shards={args.shards} "
        f"workers={server.workers} on {host}:{port} (ctrl-c to stop)",
        flush=True,
    )
    if server.http_address is not None:
        http_host, http_port = server.http_address
        print(
            f"http admin plane on http://{http_host}:{http_port} "
            f"(/metrics /health /ready /alerts /timeline /stats)",
            flush=True,
        )
    try:
        await asyncio.Event().wait()
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass
    finally:
        await server.stop()
        print(json.dumps(server.stats(), indent=2))
        if args.profile:
            profiles = server.profile_folded()
            counts = " ".join(
                f"{name}={sum(folded.values())}"
                for name, folded in sorted(profiles.items())
            )
            print(f"profile samples: {counts}", flush=True)
            if args.profile_out:
                from repro.obs.prof import merge_folded, render_folded

                with open(args.profile_out, "w", encoding="utf-8") as fh:
                    for line in render_folded(merge_folded(profiles)):
                        fh.write(line + "\n")
                print(f"merged folded stacks -> {args.profile_out}")
        if obs.auditor is not None:
            print(json.dumps({"audit": server.audit()}, indent=2))
        if obs.monitor is not None:
            print(f"invariant monitor: {obs.monitor.summary()}", flush=True)
        if obs.flight is not None and args.flight_dump:
            path = obs.flight.dump_jsonl(reason="shutdown")
            print(f"flight recorder: {len(obs.flight)} events -> {path}",
                  flush=True)
        if server.alerts is not None:
            print(
                json.dumps({"alerts": server.alerts.snapshot()}), flush=True
            )
            server.alerts.close()
        obs.tracer.close()
    return 0


async def _replay(args: argparse.Namespace) -> int:
    trace = load_trace_file(args.trace)
    totals = await replay_tcp(args.host, args.port, trace, batch=args.batch)
    print(json.dumps(totals, indent=2))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve_p = sub.add_parser("serve", help="run a TCP cache server")
    serve_p.add_argument("--policy", default="alg-discrete")
    serve_p.add_argument("--k", type=int, default=256)
    serve_p.add_argument("--shards", type=int, default=1)
    serve_p.add_argument(
        "--workers", type=int, default=1,
        help="processes serving the shard set, the server's own "
        "included (clamped to --shards; 1 = in-process; N starts N-1 "
        "worker processes)",
    )
    serve_p.add_argument("--tenants", type=int, default=4)
    serve_p.add_argument("--pages-per-tenant", type=int, default=500)
    serve_p.add_argument("--beta", type=int, default=2, help="cost exponent")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=0)
    serve_p.add_argument("--queue-limit", type=int, default=1024)
    serve_p.add_argument("--tenant-inflight", type=int, default=None)
    serve_p.add_argument("--window", type=int, default=None)
    serve_p.add_argument("--seed", type=int, default=0)
    serve_p.add_argument(
        "--horizon", type=int, default=10_000_000,
        help="max requests served (sizes ALG-CONT's ledger)",
    )
    serve_p.add_argument(
        "--trace-jsonl", default=None, metavar="PATH",
        help="write pipeline span traces to this JSONL file "
        "(aggregate with `python -m repro.obs summary PATH`)",
    )
    serve_p.add_argument(
        "--trace-sample", type=int, default=1, metavar="N",
        help="head-sample distributed traces: trace every Nth "
        "submission (default 1 = all; higher N cuts tracing cost)",
    )
    serve_p.add_argument(
        "--profile", nargs="?", const=True, default=None, type=float,
        metavar="INTERVAL",
        help="sampling profiler in the server process (which runs "
        "worker 0) and every worker process (optional interval, "
        "seconds; default 0.005)",
    )
    serve_p.add_argument(
        "--profile-out", default=None, metavar="PATH",
        help="write the merged folded stacks here on shutdown "
        "(inspect with `python -m repro.obs prof PATH`)",
    )
    serve_p.add_argument(
        "--monitor", action="store_true",
        help="attach a live InvariantMonitor (budget/KKT drift flags)",
    )
    serve_p.add_argument(
        "--monitor-every", type=int, default=1024,
        help="requests between invariant monitor samples",
    )
    serve_p.add_argument(
        "--flight", type=int, default=0, metavar="N",
        help="attach a flight recorder with an N-event ring (0 = off)",
    )
    serve_p.add_argument(
        "--flight-dump", default=None, metavar="PATH",
        help="JSONL dump path for the flight recorder (written on "
        "invariant drift, fault drain, and shutdown)",
    )
    serve_p.add_argument(
        "--audit", action="store_true",
        help="attach a streaming Theorem-1.1 competitive-ratio auditor "
        "(adds /audit and the audit_* gauges to the --http plane)",
    )
    serve_p.add_argument(
        "--audit-window", type=int, default=None,
        help="auditor lookahead window (default 2*k)",
    )
    serve_p.add_argument(
        "--http", type=int, default=None, metavar="PORT",
        help="expose the HTTP admin plane on this port (0 = ephemeral): "
        "/metrics /health /ready /alerts /timeline /stats (and /audit "
        "with --audit); attaches a default alert engine over the serve "
        "rule pack",
    )
    serve_p.add_argument(
        "--alerts-jsonl", default=None, metavar="PATH",
        help="write alert transitions (fired/resolved) to this JSONL "
        "file; implies the alert engine even without --http",
    )
    serve_p.add_argument(
        "--alerts-max-bytes", type=int, default=None, metavar="N",
        help="rotate the alerts JSONL at N bytes (to PATH.1, same "
        "scheme as --trace-jsonl rotation)",
    )
    serve_p.add_argument(
        "--timeline-interval", type=float, default=1.0, metavar="SECONDS",
        help="timeline snapshot period — also the alert evaluation "
        "cadence (default 1.0)",
    )

    replay_p = sub.add_parser(
        "replay", help="replay a CSV or columnar trace over TCP"
    )
    replay_p.add_argument(
        "trace",
        help="page,tenant CSV path (.gz accepted) or a columnar trace "
        "directory (streamed, never materialized)",
    )
    replay_p.add_argument("--host", default="127.0.0.1")
    replay_p.add_argument("--port", type=int, required=True)
    replay_p.add_argument("--batch", type=int, default=256)

    args = parser.parse_args(argv)
    runner = _serve if args.command == "serve" else _replay
    try:
        return asyncio.run(runner(args))
    except KeyboardInterrupt:  # pragma: no cover - interactive
        return 130


if __name__ == "__main__":
    sys.exit(main())
