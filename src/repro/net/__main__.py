"""Command-line cache-network runner: ``python -m repro.net``.

Two subcommands::

    # Simulate a 3-level path hierarchy over a synthetic Zipf trace:
    python -m repro.net run --topology path --depth 3 --k 64 \\
        --zipf 0.9 --pages 4096 --length 200000 --policy lru --strategy lcd

    # Same topology over an on-disk trace (colstore dir or CSV),
    # streamed batch by batch:
    python -m repro.net run --topology path --depth 3 --k 64 \\
        --trace traces/day1.cols

    # Emit a topology JSON for editing / reuse via --topology-file:
    python -m repro.net topology --topology tree --branching 2 --depth 3 \\
        --k 32 --save tree.json

``run`` prints the per-node ledger table, the end-to-end latency
summary (mean / p50 / p99 / max), and origin traffic; ``--json PATH``
additionally dumps the full result (rows + latency mass) for scripts.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.net.strategies import ROUTING_REGISTRY, STRATEGY_REGISTRY
from repro.net.topology import (
    Topology,
    edge_origin_topology,
    path_topology,
    single_node_topology,
    tree_topology,
)


def _parse_k(text: str, n: int):
    """``"64"`` broadcasts; ``"64,32,16"`` is per level/edge."""
    parts = [int(p) for p in text.split(",")]
    if len(parts) == 1:
        return parts[0]
    if len(parts) != n:
        raise SystemExit(f"--k needs 1 or {n} values, got {len(parts)}")
    return parts


def _build_topology(args: argparse.Namespace) -> Topology:
    if args.topology_file:
        return Topology.load(args.topology_file)
    kind = args.topology
    if kind == "path":
        return path_topology(
            args.depth,
            _parse_k(args.k, args.depth),
            read_delay=args.read_delay,
            write_delay=args.write_delay,
            origin_delay=args.origin_delay,
        )
    if kind == "tree":
        return tree_topology(
            args.branching,
            args.depth,
            _parse_k(args.k, args.depth),
            read_delay=args.read_delay,
            write_delay=args.write_delay,
            origin_delay=args.origin_delay,
        )
    if kind == "star":
        return edge_origin_topology(
            args.edges,
            _parse_k(args.k, args.edges),
            read_delay=args.origin_delay,
            write_delay=args.write_delay,
        )
    return single_node_topology(
        _parse_k(args.k, 1), origin_delay=args.origin_delay
    )


def _add_topology_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--topology",
        choices=("path", "tree", "star", "single"),
        default="path",
        help="topology family (ignored with --topology-file)",
    )
    p.add_argument(
        "--topology-file", default=None, help="load a topology JSON instead"
    )
    p.add_argument("--depth", type=int, default=3, help="cache levels")
    p.add_argument(
        "--branching", type=int, default=2, help="tree fan-in per level"
    )
    p.add_argument("--edges", type=int, default=4, help="star edge count")
    p.add_argument(
        "--k", default="64", help="per-node capacity (int, or comma list)"
    )
    p.add_argument("--read-delay", type=float, default=1.0)
    p.add_argument("--write-delay", type=float, default=0.0)
    p.add_argument(
        "--origin-delay",
        type=float,
        default=10.0,
        help="read delay of the link into the origin",
    )


def _resolve_cli_trace(args: argparse.Namespace):
    if args.trace:
        from repro.sim.driver import resolve_trace

        return resolve_trace(args.trace)
    from repro.workloads import zipf_trace

    return zipf_trace(
        num_pages=args.pages,
        length=args.length,
        skew=args.zipf,
        seed=args.seed,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.analysis.report import ascii_table
    from repro.net.netsim import NetworkSim

    topo = _build_topology(args)
    if args.queue_capacity is not None:
        topo = topo.with_queues(args.queue_capacity, args.drain_rate)
    trace = _resolve_cli_trace(args)
    obs = None
    if args.trace_jsonl:
        from repro.obs import JsonlSink, Observability

        obs = Observability.enabled(sink=JsonlSink(args.trace_jsonl))
    elif args.http is not None:
        from repro.obs import Observability

        # The admin plane needs its own registry/timeline to export.
        obs = Observability.enabled()
    sim = NetworkSim(
        topo,
        args.policy,
        strategy=args.strategy,
        routing=args.routing,
        policy_seed=args.seed,
        seed=args.seed,
        obs=obs,
        profile=args.profile,
        http_port=args.http,
    )
    result = sim.run(trace)
    result.check_conservation()
    if sim.http_address is not None:
        h, p = sim.http_address
        print(
            f"http admin plane on http://{h}:{p} "
            f"(/metrics /alerts /timeline)",
            flush=True,
        )
        if sim.alerts is not None:
            active = sim.alerts.active()
            if active:
                print(f"alerts active: {[a.rule for a in active]}", flush=True)
        if args.http_hold:
            import time as _time

            print(f"holding for {args.http_hold:.0f}s (ctrl-c to stop)")
            try:
                _time.sleep(args.http_hold)
            except KeyboardInterrupt:
                pass
        sim.stop_http()
    if obs is not None:
        obs.tracer.close()

    print(repr(topo))
    print(
        ascii_table(
            result.summary_rows(),
            title=(
                f"{result.trace_name}: policy={args.policy} "
                f"strategy={result.strategy} routing={result.routing}"
            ),
        )
    )
    lat = result.latency
    print(
        f"requests={result.total_requests}  "
        f"net_hit_ratio={result.network_hit_ratio:.4f}  "
        f"origin={result.origin_total}  rejected={result.rejected_total}"
    )
    print(
        f"latency: mean={lat.mean():.3f}  p50={lat.quantile(0.5):.3f}  "
        f"p99={lat.quantile(0.99):.3f}  max={lat.max():.3f}  "
        f"write_cost={result.write_cost:.1f}"
    )
    if sim.profiles:
        counts = " ".join(
            f"{name}={sum(folded.values())}"
            for name, folded in sorted(sim.profiles.items())
        )
        print(f"profile samples: {counts}")
        if args.profile_out:
            from repro.obs.prof import merge_folded, render_folded

            merged = merge_folded(sim.profiles)
            with open(args.profile_out, "w", encoding="utf-8") as fh:
                for line in render_folded(merged):
                    fh.write(line + "\n")
            print(f"merged folded stacks -> {args.profile_out}")
    if args.trace_jsonl:
        print(
            f"spans -> {args.trace_jsonl}  "
            f"(summary: python -m repro.obs summary {args.trace_jsonl})"
        )
    if args.json:
        doc = {
            "topology": repr(topo),
            "strategy": result.strategy,
            "routing": result.routing,
            "trace": result.trace_name,
            "total_requests": result.total_requests,
            "network_hit_ratio": result.network_hit_ratio,
            "origin_fetches": result.origin_fetches.tolist(),
            "rejected": result.rejected_total,
            "write_cost": result.write_cost,
            "latency_mean": lat.mean(),
            "latency_p99": lat.quantile(0.99),
            "latency_mass": lat.to_rows(),
            "nodes": result.summary_rows(),
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
        print(f"wrote {args.json}")
    return 0


def _cmd_topology(args: argparse.Namespace) -> int:
    topo = _build_topology(args)
    text = topo.to_json()
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.save}: {topo!r}")
    else:
        print(text)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-net", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate a cache network")
    _add_topology_args(run_p)
    run_p.add_argument("--policy", default="lru", help="eviction policy name")
    run_p.add_argument(
        "--strategy",
        choices=sorted(STRATEGY_REGISTRY),
        default="lce",
        help="admission strategy",
    )
    run_p.add_argument(
        "--routing",
        choices=sorted(ROUTING_REGISTRY),
        default="to-origin",
        help="routing strategy",
    )
    run_p.add_argument(
        "--trace", default=None, help="on-disk trace (colstore dir or CSV)"
    )
    run_p.add_argument("--zipf", type=float, default=0.9, help="Zipf skew")
    run_p.add_argument("--pages", type=int, default=4096)
    run_p.add_argument("--length", type=int, default=200_000)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument(
        "--queue-capacity",
        type=int,
        default=None,
        help="bounded ingress queue at every cache (reject = bypass)",
    )
    run_p.add_argument("--drain-rate", type=float, default=1.0)
    run_p.add_argument("--json", default=None, help="dump full result JSON")
    run_p.add_argument(
        "--trace-jsonl", default=None, metavar="PATH",
        help="JSONL span sink (one net.run span per run)",
    )
    run_p.add_argument(
        "--profile", nargs="?", const=True, default=None, type=float,
        metavar="INTERVAL",
        help="sampling profiler around the run (optional interval, seconds)",
    )
    run_p.add_argument(
        "--profile-out", default=None, metavar="PATH",
        help="write the merged folded stacks here",
    )
    run_p.add_argument(
        "--http", type=int, default=None, metavar="PORT",
        help="expose the HTTP admin plane during the run (0 = "
        "ephemeral): /metrics /alerts /timeline, with the per-node "
        "net alert rule pack attached",
    )
    run_p.add_argument(
        "--http-hold", type=float, default=0.0, metavar="SECONDS",
        help="keep the admin plane up this long after the run so the "
        "endpoints can be scraped (default 0 = stop immediately)",
    )

    topo_p = sub.add_parser("topology", help="emit a topology JSON")
    _add_topology_args(topo_p)
    topo_p.add_argument("--save", default=None, help="write to this path")

    args = parser.parse_args(argv)
    handler = {"run": _cmd_run, "topology": _cmd_topology}[args.command]
    try:
        return handler(args)
    except BrokenPipeError:  # e.g. `... topology | head`
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    sys.exit(main())
