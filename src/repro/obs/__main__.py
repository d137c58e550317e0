"""Command-line telemetry tooling: ``python -m repro.obs``.

Six subcommands::

    # Aggregate a JSONL trace into a per-span latency table:
    python -m repro.obs summary trace.jsonl

    # Print the last N events of a JSONL trace, human-readable:
    python -m repro.obs tail trace.jsonl -n 20

    # Merge distributed span files (parent + worker spills) into
    # request trees and report link integrity:
    python -m repro.obs trace trace.jsonl trace.jsonl.w0 trace.jsonl.w1

    # Merge folded-stack profiles and print the hottest stacks:
    python -m repro.obs prof server.folded server.folded.w0

    # Scrape Prometheus metrics from an HTTP admin plane (the port
    # of `python -m repro.serve serve --http PORT`):
    python -m repro.obs scrape --host 127.0.0.1 --port 9732

    # Live terminal dashboard (stats + metrics + Theorem-1.1 audit),
    # read from the same plane:
    python -m repro.obs dash --port 9732 --interval 1.0

``summary`` renders count / total / mean / p50 / p95 / p99 / max per
span name; ``trace`` rebuilds cross-process request trees from the
``trace`` ids the worker transports propagate (see
:mod:`repro.obs.distrib`); ``prof`` merges per-process folded stacks
(:mod:`repro.obs.prof`) into the fleet view; ``scrape`` GETs
``/metrics`` from an HTTP admin plane (:mod:`repro.obs.httpd`, a
``CacheServer``'s or a ``NetworkSim``'s) and prints the exposition
text (``--parse`` validates it and prints sorted samples instead);
``dash`` reads ``/stats``, ``/metrics``, ``/audit`` and ``/alerts``
from the same plane and re-renders per-tenant cost/miss curves, the
audited competitive ratio against the live Theorem 1.1 bound, queue
depth, latency/trend sparklines, per-node rows and active alerts every
interval.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import List, Optional

from repro.obs.export import parse_prometheus, read_jsonl, summarize_spans


def _cmd_summary(args: argparse.Namespace) -> int:
    from repro.analysis.report import ascii_table

    events = read_jsonl(args.trace)
    rows = summarize_spans(events)
    if not rows:
        print("no span events found")
        return 1
    print(
        ascii_table(
            rows,
            title=f"{args.trace}: {len(events)} events, {len(rows)} span names",
        )
    )
    return 0


def _format_event(event: dict) -> str:
    kind = event.get("type", "?")
    name = event.get("name", "?")
    attrs = event.get("attrs") or {}
    attr_text = " ".join(f"{k}={v}" for k, v in attrs.items())
    if kind == "span":
        dur_us = float(event.get("dur", 0.0)) * 1e6
        return f"span  {name:24s} {dur_us:10.1f}us  {attr_text}"
    return f"event {name:24s} {'':>12s}  {attr_text}"


def _cmd_tail(args: argparse.Namespace) -> int:
    events = read_jsonl(args.trace)
    for event in events[-args.n :]:
        print(_format_event(event))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.distrib import format_trace_tree, merge_traces, trace_report

    trees = merge_traces(args.traces)
    if not trees:
        print("no distributed spans found (no 'trace' field in events)")
        return 1
    report = trace_report(trees)
    shown = trees if args.all else trees[: args.n]
    for tree in shown:
        print(format_trace_tree(tree))
        print()
    if len(shown) < len(trees):
        print(f"... {len(trees) - len(shown)} more trees (use --all)")
    print(
        f"{report['traces']} traces, {report['spans']} spans, "
        f"{report['complete']} complete, "
        f"{report['orphan_spans']} orphan spans, "
        f"{report['multi_root']} multi-root"
    )
    return 0 if report["orphan_spans"] == 0 else 2


def _cmd_prof(args: argparse.Namespace) -> int:
    from repro.obs.prof import merge_folded, read_folded, top_stacks

    per_proc = {path: read_folded(path) for path in args.folded}
    merged = (
        merge_folded(per_proc)
        if len(per_proc) > 1
        else next(iter(per_proc.values()))
    )
    if not merged:
        print("no samples")
        return 1
    total = sum(merged.values())
    print(f"{total} samples across {len(per_proc)} file(s)")
    for stack, count, frac in top_stacks(merged, args.n):
        leaf = stack.rsplit(";", 2)
        print(f"{frac * 100:6.2f}%  {count:8d}  {';'.join(leaf[-2:])}")
    if args.out:
        from repro.obs.prof import render_folded

        with open(args.out, "w", encoding="utf-8") as fh:
            for line in render_folded(merged):
                fh.write(line + "\n")
        print(f"merged folded stacks -> {args.out}")
    return 0


def _cmd_scrape(args: argparse.Namespace) -> int:
    from repro.obs.httpd import http_get

    status, _headers, body = asyncio.run(
        http_get(args.host, args.port, "/metrics")
    )
    if status != 200:
        raise RuntimeError(f"GET /metrics answered {status}: {body.decode()}")
    text = body.decode("utf-8")
    if args.parse:
        samples = parse_prometheus(text)
        for (name, labels), value in sorted(samples.items()):
            label_text = ",".join(f"{k}={v}" for k, v in labels)
            print(f"{name}{{{label_text}}} = {value}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_dash(args: argparse.Namespace) -> int:
    from repro.obs.dash import run_dash

    return run_dash(
        args.host,
        args.port,
        interval=args.interval,
        iterations=args.iterations,
        clear=not args.no_clear,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-obs", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    summary_p = sub.add_parser("summary", help="aggregate a JSONL span trace")
    summary_p.add_argument("trace", help="JSONL trace path")

    tail_p = sub.add_parser("tail", help="print the last N trace events")
    tail_p.add_argument("trace", help="JSONL trace path")
    tail_p.add_argument("-n", type=int, default=20, help="events to show")

    trace_p = sub.add_parser(
        "trace", help="merge distributed span files into request trees"
    )
    trace_p.add_argument(
        "traces", nargs="+", help="JSONL span files (parent + worker spills)"
    )
    trace_p.add_argument("-n", type=int, default=5, help="trees to render")
    trace_p.add_argument(
        "--all", action="store_true", help="render every merged tree"
    )

    prof_p = sub.add_parser(
        "prof", help="merge folded-stack profiles, print hottest stacks"
    )
    prof_p.add_argument("folded", nargs="+", help="folded-stack files")
    prof_p.add_argument("-n", type=int, default=10, help="stacks to show")
    prof_p.add_argument(
        "--out", default=None, help="write the merged folded stacks here"
    )

    scrape_p = sub.add_parser(
        "scrape", help="fetch /metrics from an HTTP admin plane"
    )
    scrape_p.add_argument("--host", default="127.0.0.1")
    scrape_p.add_argument(
        "--port", type=int, required=True, help="the HTTP admin plane's port"
    )
    scrape_p.add_argument(
        "--parse", action="store_true",
        help="validate the exposition format and print parsed samples",
    )

    dash_p = sub.add_parser("dash", help="live terminal dashboard")
    dash_p.add_argument("--host", default="127.0.0.1")
    dash_p.add_argument(
        "--port", type=int, required=True, help="the HTTP admin plane's port"
    )
    dash_p.add_argument(
        "--interval", type=float, default=1.0, help="seconds between scrapes"
    )
    dash_p.add_argument(
        "--iterations", type=int, default=None,
        help="stop after N frames (default: run until Ctrl-C)",
    )
    dash_p.add_argument(
        "--no-clear", action="store_true",
        help="append frames instead of clearing the screen (for logs/CI)",
    )

    args = parser.parse_args(argv)
    handler = {
        "summary": _cmd_summary,
        "tail": _cmd_tail,
        "trace": _cmd_trace,
        "prof": _cmd_prof,
        "scrape": _cmd_scrape,
        "dash": _cmd_dash,
    }[args.command]
    try:
        return handler(args)
    except BrokenPipeError:  # e.g. `... summary trace.jsonl | head`
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    sys.exit(main())
