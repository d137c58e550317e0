"""The measured process of the sim and net workloads.

    python bench/child.py WORKLOAD CACHE_DIR --seconds S [--traced] [--setup-only]

Prints ``READY`` once the program is set up — the store is open and
the policy or ``NetworkSim`` is built — so the parent can time set-up
from process start, then times the reference loop (``calib.py``).
With ``--setup-only`` it prints that reference time and exits.
Otherwise it runs whole passes over the input, timing the reference
loop again after each, and prints one JSON line: per-pass CPU and wall
times, the reference times, the fingerprint of every pass, peak RSS
(VmHWM), and the last pass's miss ratio and tenant cost.  ``--traced``
spends a third of the time on plain passes for the untraced baseline
and the rest on passes with every layer wrapped, and adds the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from time import perf_counter, process_time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as wl  # noqa: E402
from calib import calibrate, scaled  # noqa: E402
from layers import Spans, pct, proc_usage  # noqa: E402

#: Fewest passes an untraced run makes, however short ``--seconds``.
MIN_PASSES = 3

#: The traced run spends this share of ``--seconds`` on plain passes, the
#: overhead baseline, and the rest on wrapped passes, whose layer shares
#: are reported; at least this many of each.
BASELINE_SHARE = 1 / 3
BASELINE_PASSES = 2
TRACED_PASSES = 3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=sorted(wl.WORKLOADS))
    ap.add_argument("cache")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    w = wl.WORKLOADS[args.workload]
    wl.use_src()

    import numpy as np
    from repro.policies import POLICY_REGISTRY
    from repro.sim import Trace, open_trace, simulate

    meta, owners, costs = wl.load(args.cache)
    k = meta["k"]
    store = os.path.join(args.cache, "store")
    if w.kind == "net":
        from repro.net import NetworkSim

        trace = open_trace(store)

        def build_net(policy):
            return NetworkSim(wl.net_topology(), policy, strategy="lcd")

        net = build_net(w.policy)

        def run_pass(sim=net):
            result = sim.run(trace)
            result.check_conservation()
            return result

        fingerprint = wl.net_fingerprint
    else:
        if w.stream:
            trace = open_trace(store)
        else:
            requests = np.load(os.path.join(args.cache, "requests.npy"))
            trace = Trace(requests, owners, name=w.source)
        policy = POLICY_REGISTRY[w.policy]()

        def run_pass():
            return simulate(trace, policy, k, costs)

        fingerprint = wl.sim_fingerprint
    print("READY", flush=True)
    cal = [calibrate()]
    if args.setup_only:
        print(json.dumps({"cal_s": cal}), flush=True)
        return 0

    def passes(count, deadline, run=run_pass):
        """Whole passes until *count* are done and *deadline* is past;
        ``(cpu, wall)`` seconds of each, a reference time after each."""
        times, fps, last = [], {}, None
        while len(times) < count or perf_counter() < deadline:
            c0, t0 = process_time(), perf_counter()
            last = run()
            times.append((process_time() - c0, perf_counter() - t0))
            cal.append(calibrate())
            key = json.dumps(fingerprint(last))
            fps[key] = fps.get(key, 0) + 1
        return times, fps, last

    out = {"length": trace.length}
    if not args.traced:
        times, fps, last = passes(MIN_PASSES, perf_counter() + args.seconds)
    else:
        wrapped_s = args.seconds * (1.0 - BASELINE_SHARE)
        base, fps, last = passes(
            BASELINE_PASSES, perf_counter() + args.seconds * BASELINE_SHARE
        )
        spans = Spans()
        if w.stream or w.kind == "net":
            trace.batches = spans.wrap_iter("colstore.read", trace.batches)
        if w.kind == "net":
            def wrapped_policy():
                p = POLICY_REGISTRY[w.policy]()
                spans.wrap_policy(p)
                return p

            traced_net = build_net(wrapped_policy)
            traced_net.strategy.admit = spans.wrap("net.admit", traced_net.strategy.admit)
            times, fps2, last = passes(
                TRACED_PASSES, perf_counter() + wrapped_s, run=lambda: run_pass(traced_net)
            )
        else:
            spans.wrap_policy(policy)
            times, fps2, last = passes(TRACED_PASSES, perf_counter() + wrapped_s)
        for key, n in fps2.items():
            fps[key] = fps.get(key, 0) + n
        out["layers"] = layer_metrics(w, spans, times, last)
        plain = scaled([c for c, _ in base], cal[: len(base) + 1])
        wrapped = scaled([c for c, _ in times], cal[len(base) :])
        out["layers"]["trace.overhead_pct"] = 100.0 * (
            1.0 - statistics.median(plain) / statistics.median(wrapped)
        )
        times = base + times
    out.update(
        pass_cpu_s=[c for c, _ in times],
        pass_wall_s=[t for _, t in times],
        cal_s=cal,
        fingerprints=fps,
        # VmHWM, not ru_maxrss: Linux carries ru_maxrss across exec, so
        # it would report the parent's peak whenever that was larger.
        rss_mb=proc_usage(os.getpid())["hwm_mb"],
    )
    if w.kind == "net":
        out["miss_ratio"] = last.origin_total / last.total_requests
        out["tenant_cost"] = float(
            sum(f.value(int(m)) for f, m in zip(costs, last.origin_fetches))
        )
    else:
        out["miss_ratio"] = last.miss_ratio
        out["tenant_cost"] = last.cost(costs)
    print(json.dumps(out), flush=True)
    return 0


def layer_metrics(w, spans: Spans, times, last):
    """Per-layer metrics over the traced passes: each layer's busy share
    of their wall time, and its work counts."""
    window = sum(t for _, t in times)
    read = spans.seconds("colstore.read")
    policy = spans.policy_seconds()
    out = {
        "trace.window_s": window,
        "program.cpu_util": sum(c for c, _ in times) / window,
        "colstore.read_pct": pct(read, window),
        "colstore.batches": spans.calls("colstore.read"),
        **spans.policy_metrics(window),
    }
    if w.kind == "net":
        admit = spans.seconds("net.admit")
        probes = sum(n.hits + n.misses + n.rejected for n in last.nodes)
        out.update({
            "net.admit_pct": pct(admit, window),
            "net.self_pct": pct(window - read - admit - policy, window),
            "net.hops_per_request": probes / last.total_requests,
        })
    else:
        batches = spans.calls("policy.on_hit_batch")
        out.update({
            "engine.self_pct": pct(window - read - policy, window),
            "engine.hit_run_mean": (
                spans.items("policy.on_hit_batch") / batches if batches else 0.0
            ),
            "engine.scalar_hits": spans.calls("policy.on_hit"),
        })
    return out


if __name__ == "__main__":
    sys.exit(main())
