"""Run the repo benchmark: end-to-end metrics, or per-layer ones traced.

    python bench/run.py --seed S [--workload NAME] [--seconds N]
                        [--traced | --trace 0|1] [--out FILE.json]

Each workload runs in fresh child processes with the program's
defaults (``validate=True``, ``REPRO_OBS`` cleared).  The sim and net
workloads run ``bench/child.py``; the serve workloads run the server in
``bench/launcher.py`` and drive it from ``bench/loadgen.py`` over one
TCP connection.  Every output is checked against a reference: the sim
fingerprint against ``simulate(engine="reference")``, served hits per
batch against ``simulate()`` run per shard, and the network's ledger
conservation and pass-to-pass agreement.

Timings are reported at reference speed (``calib.py``): each is scaled
by a reference loop timed in the same process just before and after
it, which takes the shared machine's drifting speed out of them.  The
report prints the raw throughput and latencies beside them.

The report prints every metric by name and unit; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics untraced, the
per-layer metrics with ``--traced``.  The exit code is 0 only when every
check passed and no request failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as wl  # noqa: E402
from calib import REF_S, scaled  # noqa: E402
from layers import host_ticks, steal_pct  # noqa: E402

PYTHON = sys.executable
CHILD = os.path.join(wl.BENCH, "child.py")
LAUNCHER = os.path.join(wl.BENCH, "launcher.py")
LOADGEN = os.path.join(wl.BENCH, "loadgen.py")

#: Name -> unit of the end-to-end metrics (``--trace 0``).
END_TO_END = {
    "throughput_rps": "req/s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "miss_ratio": "ratio",
    "tenant_cost": "cost",
}

#: Name -> unit of the per-layer metrics (``--trace 1``).  Layer times
#: are busy shares of the measured window ``trace.window_s``; a layer
#: that is not on a workload's path reads 0%.
PER_LAYER = {
    "trace.window_s": "s",
    "trace.overhead_pct": "%",
    "program.cpu_util": "cores",
    "colstore.read_pct": "%",
    "colstore.batches": "count",
    "engine.self_pct": "%",
    "engine.hit_run_mean": "req/call",
    "engine.scalar_hits": "count",
    **{
        f"policy.{hook}.{kind}": unit
        for hook in ("choose_victim", "on_hit_batch", "on_hit", "on_insert", "on_evict")
        for kind, unit in (("pct", "%"), ("calls", "count"))
    },
    "server.decode_pct": "%",
    "server.encode_pct": "%",
    "server.request_many_pct": "%",
    "server.queue_wait_pct": "%",
    "server.apply_pct": "%",
    "server.other_pct": "%",
    "shard.serve_pct": "%",
    "ledger.record_pct": "%",
    "workers.apply_pct": "%",
    "workers.worker_apply_pct": "%",
    "workers.exchange_pct": "%",
    "net.admit_pct": "%",
    "net.self_pct": "%",
    "net.hops_per_request": "hops/req",
    "client.busy_pct": "%",
    "client.lateness_p99_pct": "%",
}

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3

#: Every run must end within this many seconds.
RUN_LIMIT = 175.0


class RunError(RuntimeError):
    """A child process failed; the run is reported as failed."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("REPRO_OBS", None)
    return env


def log(name: str, msg: str) -> None:
    print(f"[{name}] {msg}", file=sys.stderr, flush=True)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: a sample value, so a failed request's
    ``inf`` latency counts without interpolating through it."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def last_json(text: str) -> dict:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise RunError("child printed no result")
    return json.loads(lines[-1])


# ----------------------------------------------------------------------
# sim and net
# ----------------------------------------------------------------------
def child_result(proc: subprocess.Popen, deadline: float) -> dict:
    """The last JSON line of a child, once it has exited cleanly."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError("child timed out") from None
    if proc.returncode != 0:
        raise RunError(f"child exited with {proc.returncode}")
    return last_json(out)


def run_child(w: wl.Workload, cache: str, seconds: float, traced: bool, deadline: float):
    setups: List[float] = []
    count = 1 if traced else SETUPS
    for i in range(count):
        cmd = [PYTHON, CHILD, w.name, cache, "--seconds", repr(seconds)]
        if traced:
            cmd.append("--traced")
        if i < count - 1:
            cmd.append("--setup-only")
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env())
        ready = proc.stdout.readline().strip()
        setups.append(time.perf_counter() - t0)
        if ready != "READY":
            proc.kill()
            proc.wait()
            raise RunError(f"child failed during set-up (exit {proc.returncode})")
        res = child_result(proc, deadline)
        # Scaled by the reference time the child took right after set-up.
        setups[-1] *= REF_S / res["cal_s"][0]

    meta = wl.read_meta(cache)
    length = res["length"]
    fps = res["fingerprints"]
    if w.kind == "sim":
        correct = set(fps) == {json.dumps(meta["reference"])}
    else:
        correct = len(fps) == 1  # conservation was checked in the child
    times = scaled(res["pass_cpu_s"], res["cal_s"])
    metrics = {
        "throughput_rps": length * len(times) / sum(times),
        "latency_p50_ms": 1e3 * statistics.median(times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["rss_mb"],
        "miss_ratio": res["miss_ratio"],
        "tenant_cost": res["tenant_cost"],
    }
    report = {
        "latency_p90_ms": 1e3 * percentile(times, 90),
        "passes": len(times),
        "requests_per_pass": length,
        "fingerprints_distinct": len(fps),
        "raw_throughput_rps": length * len(times) / sum(res["pass_wall_s"]),
        "reference_ms_median": 1e3 * statistics.median(res["cal_s"]),
    }
    return {
        "correct": correct,
        "attempted": length * len(times),
        "failed": 0,
        "metrics": metrics,
        "layers": res.get("layers", {}),
        "report": report,
    }


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def ask(port: int, line: bytes) -> dict:
    """Send one line on a fresh connection; the JSON reply line."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(line + b"\n")
        reply = sock.makefile("rb").readline()
    if not reply:
        raise RunError(f"no reply to {line!r}")
    return json.loads(reply)


class Server:
    """One launcher process; ``setup_s`` runs from spawn to the first
    ``ping`` reply, scaled by the reference time the server process
    takes right after."""

    def __init__(self, w: wl.Workload, cache: str, spill: Optional[str]) -> None:
        cmd = [PYTHON, LAUNCHER, w.name, cache]
        if spill is not None:
            cmd += ["--traced", spill]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env())
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait()
            raise RunError(f"server failed to start (exit {self.proc.returncode})")
        ready = json.loads(line)
        self.port = ready["port"]
        self.control = ready["control"]
        self.pids = ready["pids"]
        if not ask(self.port, b'{"op": "ping"}').get("ok"):
            raise RunError("ping failed")
        self.setup_s = time.perf_counter() - t0
        self.setup_s *= REF_S / ask(self.control, b"cal")["cal_s"]
        log(w.name, f"server pid {self.proc.pid} port {self.port} workers {self.pids[1:]}")

    def stop(self) -> Optional[dict]:
        """SIGTERM the launcher; its exit report, or None if it died."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            return None
        try:
            report = last_json(out)
        except (RunError, ValueError):
            return None
        return report if report.get("event") == "exit" else None

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.communicate()


def drive(server: Server, cache: str, no_open: bool, deadline: float) -> dict:
    cmd = [PYTHON, LOADGEN, cache, "--port", str(server.port),
           "--control", str(server.control)]
    if no_open:
        cmd.append("--no-open")
    try:
        out = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, env=child_env(), check=True,
            timeout=max(1.0, deadline - time.time()),
        ).stdout
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        raise RunError(f"load generator failed: {exc}") from None
    return last_json(out)


def closed_rates(gen: dict, scale: bool = True) -> List[float]:
    """Each closed-loop slice's rate, at reference speed unless not
    *scale*."""
    return [
        n / (s * (f if scale else 1.0))
        for n, s, f in zip(gen["closed_n"], gen["closed_s"], gen["closed_scale"])
    ]


def open_latencies_ms(gen: dict) -> List[List[float]]:
    """Each open-loop slice's latencies in ms."""
    return [[1e3 * x for x in lat] for lat in gen["latency_s"]]


def both_running(steal_pct: float) -> float:
    """Share of a slice's wall time during which both vCPUs ran, given
    the share of the machine's CPU time stolen over it.  A served batch
    moves through the server, its workers and the client, so it advances
    only while both run; with steal on either vCPU independent of the
    other that share is (1 - s1)(1 - s2), about 1 - 2s.  Floored at 0.5:
    a slice stolen harder than that says little either way."""
    return max(0.5, 1.0 - 2.0 * steal_pct / 100.0)


def serve_throughput(gen: dict) -> float:
    """Median over the closed-loop slices of each one's rate at reference
    speed per second both vCPUs ran."""
    rates = [r / both_running(s) for r, s in zip(closed_rates(gen), gen["closed_steal"])]
    return statistics.median(rates) if rates else 0.0


def serve_p50_ms(gen: dict) -> float:
    """Median over the open-loop slices of each one's median latency,
    counting only time both vCPUs ran.  Not scaled to reference speed:
    a batch's latency runs through the client's vCPU as much as the
    server's, and the reference loop, timed in the server process,
    made it noisier (README, "Reference speed and stolen time")."""
    rounds = open_latencies_ms(gen)
    return statistics.median(
        percentile(r, 50) * both_running(s) for r, s in zip(rounds, gen["open_steal"])
    ) if rounds else math.nan


def run_serve(w: wl.Workload, cache: str, traced: bool, deadline: float):
    import numpy as np

    meta = wl.read_meta(cache)
    ref = np.load(os.path.join(cache, "reference_hits.npy"))
    ref_tenant_misses = np.load(os.path.join(cache, "reference_tenant_misses.npy"))

    def matches(gen) -> bool:
        """Every answered batch's hits equal the per-shard reference."""
        hits = np.array(gen["hits"])
        ok = hits >= 0
        return bool((hits[ok] == ref[: hits.size][ok]).all())

    def ledger_matches(entry, batches: int) -> bool:
        """The server's ledger after *batches* batches shows the
        reference's per-tenant misses over them."""
        return (
            entry is not None
            and entry["served"] == batches * wl.BATCH
            and entry["tenant_misses"] == ref_tenant_misses[:batches].sum(axis=0).tolist()
        )

    servers: List[Server] = []
    spill = tempfile.mkdtemp(prefix="spill-", dir=wl.CACHE) if traced else None
    try:
        baseline = None
        if traced:
            servers.append(Server(w, cache, None))
            base = drive(servers[-1], cache, True, deadline)
            servers[-1].stop()
            if "error" in base:
                raise RunError(f"baseline load failed: {base['error']}")
            baseline = serve_throughput(base)
        setups = []
        for i in range(1 if traced else SETUPS):
            servers.append(Server(w, cache, spill))
            setups.append(servers[-1].setup_s)
            if i < (0 if traced else SETUPS - 1):
                servers[-1].stop()
        gen = drive(servers[-1], cache, False, deadline)
        exit_report = servers[-1].stop()
    finally:
        for s in servers:
            s.kill()
        if spill is not None:
            shutil.rmtree(spill, ignore_errors=True)

    # Only a prefix of the stream is served, as far as the time-boxed
    # closed loop got; the server's ledger over it must equal the
    # reference's.  The miss ratio and cost reported are then the
    # reference's over the whole stream: exact for the seed, whatever
    # the speed.
    correct = (
        matches(gen)
        and (baseline is None or matches(base))
        and exit_report is not None
        and ledger_matches(exit_report["final"], gen["batches"])
    )
    raw = [x for r in open_latencies_ms(gen) for x in r]
    raw_rates = closed_rates(gen, scale=False)
    metrics = {
        "throughput_rps": serve_throughput(gen),
        "latency_p50_ms": serve_p50_ms(gen),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": (
            sum(p["hwm_mb"] for p in exit_report["procs"].values() if p)
            if exit_report else 0.0
        ),
        "miss_ratio": meta["miss_ratio"] if correct else 1.0,
        "tenant_cost": meta["tenant_cost"] if correct else 0.0,
    }
    report = {
        "raw_throughput_rps": statistics.median(raw_rates) if raw_rates else 0.0,
        "raw_latency_p50_ms": percentile(raw, 50),
        "raw_latency_p90_ms": percentile(raw, 90),
        "raw_latency_p99_ms": percentile(raw, 99),
        "latency_samples": len(raw),
        "server_cpu_util": exit_report.get("cpu_util", 0.0) if exit_report else 0.0,
        "server_exit": "clean" if exit_report else "missing (server died)",
    }
    if "error" in gen:
        report["client_error"] = gen["error"]
    layers = {}
    if traced and exit_report and "layers" in exit_report:
        layers = dict(exit_report["layers"])
        layers["client.busy_pct"] = 100.0 * gen["client_busy_s"] / gen["window_s"]
        layers["client.lateness_p99_pct"] = (
            100.0 * percentile(gen["lateness_s"], 99) / gen["interval_s"]
        )
        layers["trace.overhead_pct"] = 100.0 * (1.0 - metrics["throughput_rps"] / baseline)
    # A server that died fails at least one batch, sent or not.
    failed = gen["failed"] if exit_report else max(gen["failed"], 1)
    return {
        "correct": correct,
        "attempted": max(gen["batches"], failed) * wl.BATCH,
        "failed": failed * wl.BATCH,
        "metrics": metrics,
        "layers": layers,
        "report": report,
    }


# ----------------------------------------------------------------------
# Running and reporting
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, traced: bool, deadline: float) -> dict:
    w = wl.WORKLOADS[name]
    cache = wl.prepare(name, seed, seconds)
    ticks = host_ticks()
    try:
        if w.kind == "serve":
            res = run_serve(w, cache, traced, deadline)
        else:
            res = run_child(w, cache, seconds, traced, deadline)
    except RunError as exc:
        log(name, f"FAILED: {exc}")
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                "layers": {}, "report": {"error": str(exc)}}
    if traced:
        res["metrics"] = {}  # timed with the wrappers installed
    res["report"]["host_steal_pct"] = steal_pct(ticks, host_ticks())
    res["report"]["error_rate"] = (
        1.0 if not res["correct"] else res["failed"] / res["attempted"]
    )
    return res


def contract(res: dict, traced: bool) -> dict:
    """The result line: every end-to-end (or per-layer) metric."""
    names = PER_LAYER if traced else END_TO_END
    source = res["layers"] if traced else res["metrics"]
    return {
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {
            name: {"value": finite(source.get(name, 0.0)), "unit": unit}
            for name, unit in names.items()
        },
    }


def finite(value) -> Optional[float]:
    value = float(value)
    return value if math.isfinite(value) else None


def print_report(name: str, res: dict, traced: bool) -> None:
    print(f"== {name} ==")
    values, units = (res["layers"], PER_LAYER) if traced else (res["metrics"], END_TO_END)
    for key, unit in units.items():
        print(f"  {key:<30} {values.get(key, 0.0):>16.6g} {unit}")
    for key, value in res["report"].items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"  {key:<30} {shown:>16}")
    print(f"  {'correct':<30} {str(res['correct']):>16}")
    print(f"  {'attempted / failed':<30} {res['attempted']:>9} / {res['failed']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workload", choices=sorted(wl.WORKLOADS), default=None,
                    help="one workload (default: all five in turn)")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="measured seconds per workload run")
    ap.add_argument("--traced", action="store_true",
                    help="per-layer run (same as --trace 1)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="also write the results to this JSON file")
    args = ap.parse_args(argv)
    traced = args.traced or args.trace == 1
    wl.use_src()
    os.makedirs(wl.CACHE, exist_ok=True)

    names = [args.workload] if args.workload else list(wl.WORKLOADS)
    deadline = time.time() + RUN_LIMIT * len(names)
    print(f"bench: seed {args.seed}, {args.seconds:g} s per workload, "
          f"{'traced' if traced else 'untraced'}, nproc {os.cpu_count()}")
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, traced,
                                     min(deadline, time.time() + RUN_LIMIT))
        print_report(name, results[name], traced)
    if args.out:
        doc = {"seed": args.seed, "seconds": args.seconds, "traced": traced,
               "nproc": os.cpu_count(), "workloads": results}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
    lines = {name: contract(res, traced) for name, res in results.items()}
    if len(names) == 1:
        line = lines[names[0]]
    else:
        line = {
            "correct": all(v["correct"] for v in lines.values()),
            "attempted": sum(v["attempted"] for v in lines.values()),
            "failed": sum(v["failed"] for v in lines.values()),
            "metrics": {f"{n}.{m}": v for n, r in lines.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] and line["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
