"""Tests of the benchmark itself: ``pytest bench/``."""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import calib  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

wl.use_src()

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def benchmark_json():
    with open(os.path.join(wl.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def served_hits_per_batch(requests, owners, costs, policy, k, shards):
    """Hits per 256-request op straight from ``ShardManager.serve``."""
    from repro.serve.shard import ShardManager

    mgr = ShardManager(policy, shards, k, owners, costs)
    hits = []
    for lo in range(0, requests.size, wl.BATCH):
        hits.append(sum(
            mgr.serve(int(p), lo + i)[0]
            for i, p in enumerate(requests[lo : lo + wl.BATCH])
        ))
    return np.array(hits)


@pytest.mark.parametrize("workload", ["serve-hot", "serve-sqlvm"])
def test_shard_reference_equals_shard_manager(workload):
    w = wl.WORKLOADS[workload]
    trace, costs, k = wl.GENERATORS[w.source](7, 50_000)
    k = w.k if w.k is not None else k
    miss = wl.shard_miss_flags(trace.requests, trace.owners, costs, w.policy, k, w.shards)
    ref = wl.batch_hits(miss)
    got = served_hits_per_batch(trace.requests, trace.owners, costs, w.policy, k, w.shards)
    assert ref.tolist() == got.tolist()


def test_miss_flags_from_eviction_log():
    from repro.policies import POLICY_REGISTRY
    from repro.sim import Trace, simulate

    pages = np.array([0, 1, 2, 0, 3, 1, 0, 2, 3, 3, 1])
    trace = Trace(pages, np.zeros(4, dtype=np.int64))
    result = simulate(trace, POLICY_REGISTRY["lru"](), 2, record_events=True)
    expected, resident = [], []
    for p in pages.tolist():  # LRU by hand
        expected.append(p not in resident)
        if p in resident:
            resident.remove(p)
        elif len(resident) == 2:
            resident.pop(0)
        resident.append(p)
    assert wl.miss_flags(pages, result.events).tolist() == expected


def test_metric_names_match_benchmark_json():
    spec = benchmark_json()
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    for name in list(run.END_TO_END) + list(run.PER_LAYER) + list(wl.WORKLOADS):
        assert NAME_RE.fullmatch(name), name


def run_bench(*args, timeout=170):
    proc = subprocess.run(
        [sys.executable, os.path.join(wl.BENCH, "run.py"), *args],
        capture_output=True, text=True, timeout=timeout, cwd=wl.ROOT,
    )
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_emits_every_metric(trace):
    proc, line = run_bench("--workload", "sim-sqlvm", "--seed", "3",
                           "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    names = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert set(line["metrics"]) == set(names)
    for name, value in line["metrics"].items():
        assert value["unit"] == names[name]
        assert isinstance(value["value"], float)
    if trace == "0":
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    v = compare.verdict
    assert v(base, base, "higher", 0.08)["verdict"] == "same"
    assert v(base, [x * 1.05 for x in base], "higher", 0.08)["verdict"] == "gain"
    assert v(base, [x * 0.85 for x in base], "higher", 0.08)["verdict"] == "regression"
    assert v(base, [x * 1.05 for x in base], "lower", 0.10)["verdict"] == "same"
    assert v(base, [x * 1.15 for x in base], "lower", 0.10)["verdict"] == "regression"
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert v(noisy, base, "higher", 0.08)["verdict"] == "unresolved"
    # 8 wins in 10 pairs is short of the 9-in-10 a gain needs.
    mixed = [x * 1.05 for x in base[:8]] + [x * 0.99 for x in base[8:]]
    assert v(base, mixed, "higher", 0.08)["verdict"] == "same"
    assert v(base, [x * 0.5 for x in base], "lower", None)["verdict"] == "gain"
    assert v(base, [x * 2.0 for x in base], "lower", None)["verdict"] == "same"
    # Five pairs, all won: too few to rest a gain on.
    assert v(base[:5], [x * 1.05 for x in base[:5]], "higher", 0.08)["verdict"] == "same"


def test_compare_reads_run_outputs(tmp_path):
    def out(path, rps):
        doc = {"workloads": {"sim-hot": {"metrics": {"throughput_rps": rps}, "layers": {}}}}
        path.write_text(json.dumps(doc))
        return str(path)

    a = [out(tmp_path / f"a{i}.json", 100.0 + i) for i in range(3)]
    b = [out(tmp_path / f"b{i}.json", 50.0 + i) for i in range(3)]
    rows = compare.compare(a, b, {"throughput_rps": ("higher", 0.08)})
    assert [(r["workload"], r["metric"], r["verdict"]) for r in rows] == [
        ("sim-hot", "throughput_rps", "regression")
    ]
    assert compare.main(a + ["--"] + b) == 1


def test_scaled_pairs_each_timing_with_the_references_around_it():
    ref = calib.REF_S
    assert calib.scaled([1.0, 2.0], [ref, ref, 3 * ref]) == [1.0, 1.0]
    with pytest.raises(ValueError):
        calib.scaled([1.0, 2.0], [ref, ref])


def test_launcher_stops_cleanly_on_sigterm():
    """The control socket answers; SIGTERM drains through
    CacheServer.stop(): no leaked rings, and the exit report covers the
    server and both workers."""
    cache = wl.prepare("serve-hot", 5, 1)
    proc = subprocess.Popen(
        [sys.executable, run.LAUNCHER, "serve-hot", cache],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=run.child_env(),
    )
    try:
        ready = json.loads(proc.stdout.readline())
        assert run.ask(ready["control"], b"mark") == {"ok": True}
        batch = json.dumps({"op": "batch", "pages": list(range(256))}).encode()
        assert run.ask(ready["port"], batch)["ok"]
        assert run.ask(ready["control"], b"cal")["cal_s"] > 0
        assert run.ask(ready["control"], b"done") == {"ok": True}
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, err
    assert "leaked" not in err, err
    report = json.loads(out.strip().splitlines()[-1])
    assert report["event"] == "exit" and report["final"]["served"] == 256
    assert len(report["procs"]) == 3
    assert all(p["hwm_mb"] > 0 for p in report["procs"].values())
    assert report["cpu_util"] > 0


def test_killed_server_fails_the_run():
    proc = subprocess.Popen(
        [sys.executable, os.path.join(wl.BENCH, "run.py"), "--workload", "serve-sqlvm",
         "--seed", "5", "--seconds", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=wl.ROOT,
    )
    try:
        launched = 0
        for line in proc.stderr:
            match = re.search(r"server pid (\d+)", line)
            if match:
                launched += 1
                if launched == run.SETUPS:  # the server the load runs against
                    time.sleep(0.5)
                    os.kill(int(match.group(1)), signal.SIGKILL)
                    break
        out, _ = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert launched == run.SETUPS
    assert proc.returncode != 0
    line = json.loads(out.strip().splitlines()[-1])
    assert line["failed"] > 0
    assert "error_rate" in out
