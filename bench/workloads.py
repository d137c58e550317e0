"""The five benchmark workloads: their inputs, made from a seed and
cached, and the references their outputs are checked against.

The program never sees a seed.  Each workload's inputs are generated
here from ``--seed`` and handed over as files: a columnar store, an
in-RAM request array, or the request stream a load generator replays.
Inputs and references are cached in ``bench/.cache`` under a key of
(workload, seed, run length, hash of ``src/repro`` and this file), so
a change to the program or to the generators never reuses a stale
reference.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(BENCH, ".cache")

#: Cache entries kept; older ones are pruned after each prepare.
CACHE_KEEP = 12

#: Requests per ``batch`` op sent by the serve load generator.
BATCH = 256

#: Rounds of a serve run, each a closed-loop and an open-loop slice.
#: Rates and percentiles are taken per slice and the median across
#: slices is reported, so a stall of the shared machine moves a few
#: slices rather than the result.
SLICES = 20


@dataclass(frozen=True)
class Workload:
    """One workload: what runs, on what input.  Why each was chosen is
    in BENCHMARK.json and bench/README.md."""

    name: str
    kind: str  # "sim", "serve" or "net"
    source: str  # "hot", "sqlvm" or "zipf"
    policy: str
    k: Optional[int] = None  # None: the scenario's own k
    length: int = 0  # sim/net: requests per pass
    stream: bool = False  # sim: stream a columnar store instead of RAM
    shards: int = 1
    workers: int = 1
    warmup: int = 0  # serve: untimed requests before the closed loop
    max_rps: float = 0.0  # serve: the closed loop's cap; sizes the stream
    open_rps: float = 0.0  # serve: open-loop offered rate


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("sim-hot", "sim", "hot", "alg-discrete", k=1024,
                 length=1_000_000, stream=True),
        Workload("sim-sqlvm", "sim", "sqlvm", "alg-discrete", length=50_000),
        Workload("serve-hot", "serve", "hot", "lru", k=1024, shards=4, workers=2,
                 warmup=200_000, max_rps=900_000, open_rps=50_000),
        Workload("serve-sqlvm", "serve", "sqlvm", "alg-discrete",
                 warmup=50_000, max_rps=200_000, open_rps=20_000),
        Workload("net-tree", "net", "zipf", "lru", length=100_000),
    )
}

#: Share of ``--seconds`` given to the serve closed loop; the open loop
#: gets the rest.
CLOSED_SHARE = 0.4

#: Requests per SQLVM epoch; the bursting tenant rotates every epoch.
SQLVM_EPOCH = 5_000

#: Seed of the SQLVM tenant mix (page counts, priorities, classes).
SQLVM_MIX_SEED = 0


# ----------------------------------------------------------------------
# Paths and cache
# ----------------------------------------------------------------------
def use_src() -> None:
    """Make ``import repro`` resolve to this checkout's ``src``."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"bench: no program sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def source_hash() -> str:
    """Hash of every program source file plus this generator module."""
    h = hashlib.sha256()
    files = [os.path.abspath(__file__)]
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "repro")):
        dirnames.sort()
        files.extend(
            os.path.join(dirpath, f) for f in sorted(filenames) if f.endswith(".py")
        )
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def serve_sizes(w: Workload, seconds: float) -> Dict[str, float]:
    """The serve phases: request counts in whole batches — the closed
    loop's is its cap at ``max_rps``, so the stream has room for it on
    a fast machine — with at least one batch per slice, and the seconds
    each closed-loop slice runs."""
    least = BATCH * SLICES
    warmup = w.warmup // BATCH * BATCH
    closed = int(w.max_rps * seconds * CLOSED_SHARE) // BATCH * BATCH
    open_ = int(w.open_rps * seconds * (1.0 - CLOSED_SHARE)) // BATCH * BATCH
    return {"warmup": warmup, "closed": max(closed, least), "open": max(open_, least),
            "closed_slice_s": seconds * CLOSED_SHARE / SLICES}


def prepare(name: str, seed: int, seconds: float) -> str:
    """Build (or reuse) the workload's inputs and reference; returns the
    cache directory holding them."""
    w = WORKLOADS[name]
    use_src()
    tag = f"s{seconds:g}" if w.kind == "serve" else "any"
    key = f"{name}-seed{seed}-{tag}-{source_hash()}"
    path = os.path.join(CACHE, key)
    if os.path.isfile(os.path.join(path, "meta.json")):
        os.utime(path)
        return path
    tmp = f"{path}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    try:
        _build(w, seed, seconds, tmp)
        os.replace(tmp, path)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    _prune()
    return path


def _prune() -> None:
    entries = [
        os.path.join(CACHE, d)
        for d in os.listdir(CACHE)
        if os.path.isfile(os.path.join(CACHE, d, "meta.json"))
    ]
    entries.sort(key=os.path.getmtime, reverse=True)
    for old in entries[CACHE_KEEP:]:
        shutil.rmtree(old, ignore_errors=True)


def read_meta(path: str) -> dict:
    """The ``meta.json`` of a prepared cache entry: workload, seed, k,
    serve phase sizes and the references that fit in JSON."""
    with open(os.path.join(path, "meta.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load(path: str):
    """``(meta, owners, costs)`` of a prepared cache entry."""
    meta = read_meta(path)
    owners = np.load(os.path.join(path, "owners.npy"))
    with open(os.path.join(path, "costs.pkl"), "rb") as fh:
        costs = pickle.load(fh)  # written by _build in this checkout
    return meta, owners, costs


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
def hot_trace(seed: int, length: int):
    """4 tenants x 500 pages, Zipf skew 2.0: a hot working set."""
    from repro.core.cost_functions import MonomialCost
    from repro.workloads.builders import random_multi_tenant_trace

    trace = random_multi_tenant_trace(4, 500, length, skew=2.0, seed=seed, name="hot")
    return trace, [MonomialCost(2.0) for _ in range(4)], None


def sqlvm_trace(seed: int, length: int):
    """The SQLVM scenario's 8 tenants with their SLA costs and k.

    The tenant mix comes from ``sqlvm_scenario`` under a fixed seed and
    the bursting tenant rotates every epoch; ``seed`` draws only the
    arrivals and pages.  With the mix drawn from ``seed`` as well, k and
    the miss ratio swing about 10% between seeds and hide a change.
    """
    from repro.sim.trace import Trace
    from repro.workloads.sqlvm import sqlvm_scenario

    mix, k = sqlvm_scenario(num_tenants=8, length=1_000, seed=SQLVM_MIX_SEED)
    tenants = mix.tenants
    owners = mix.trace.owners
    offsets = np.searchsorted(owners, np.arange(len(tenants)))
    base = np.array([t.base_weight for t in tenants])
    rng = np.random.default_rng(seed)
    requests = np.empty(length, dtype=np.int64)
    for t in tenants:
        t.stream.reset()
    for e, lo in enumerate(range(0, length, SQLVM_EPOCH)):
        hi = min(lo + SQLVM_EPOCH, length)
        weights = base.copy()
        weights[e % len(tenants)] *= 4.0
        arrivals = rng.choice(len(tenants), size=hi - lo, p=weights / weights.sum())
        for i, t in enumerate(tenants):
            slots = np.flatnonzero(arrivals == i)
            if slots.size:
                requests[lo + slots] = t.stream.sample(rng, slots.size) + offsets[i]
    trace = Trace(requests, owners, name="sqlvm")
    counts = trace.per_user_request_counts()
    costs = [t.sla_cost(0.2 * float(counts[i])) for i, t in enumerate(tenants)]
    return trace, costs, k


def zipf_trace(seed: int, length: int):
    """One tenant, Zipf(0.9) over 20,000 pages."""
    from repro.core.cost_functions import MonomialCost
    from repro.workloads.builders import zipf_trace as build

    trace = build(20_000, length, skew=0.9, seed=seed, name="zipf")
    return trace, [MonomialCost(2.0)], None


GENERATORS = {"hot": hot_trace, "sqlvm": sqlvm_trace, "zipf": zipf_trace}


def net_topology():
    """Binary tree, 3 levels: 4 x 256 leaves, 2 x 512, one 1024 root."""
    from repro.net.topology import tree_topology

    return tree_topology(2, 3, [256, 512, 1024])


# ----------------------------------------------------------------------
# References
# ----------------------------------------------------------------------
def sim_fingerprint(result) -> List[int]:
    """Per-tenant misses then total hits: equal iff two runs agree on
    every tenant's hits and misses over the same trace."""
    return [int(m) for m in result.user_misses] + [int(result.hits)]


def net_fingerprint(result) -> List[int]:
    """Per-node hits/misses/rejections, then per-tenant origin fetches."""
    out: List[int] = []
    for node in result.nodes:
        out += [node.hits, node.misses, node.rejected]
    return out + [int(x) for x in result.origin_fetches]


def miss_flags(pages: np.ndarray, events) -> np.ndarray:
    """Per-request miss flags of one cache run, from its eviction log.

    A request misses iff it is its page's first request or the first
    request after an eviction of that page: residency only changes on
    misses, so everything else hits.
    """
    n = int(pages.size)
    miss = np.zeros(n, dtype=bool)
    _, first = np.unique(pages, return_index=True)
    miss[first] = True
    if events:
        keys = np.sort(pages.astype(np.int64) * n + np.arange(n))
        ev = np.array([(e.victim, e.t) for e in events], dtype=np.int64)
        j = np.searchsorted(keys, ev[:, 0] * n + ev[:, 1], side="right")
        ok = j < n
        nxt = keys[j[ok]]
        same = nxt // n == ev[ok, 0]
        miss[nxt[same] % n] = True
    return miss


def shard_miss_flags(
    requests: np.ndarray, owners: np.ndarray, costs, policy: str, k: int,
    num_shards: int,
) -> np.ndarray:
    """Per-request miss flags when *requests* is served by a
    ``num_shards``-shard server: ``simulate()`` run on each shard's
    subsequence, split with the server's splitmix64 placement."""
    from repro.policies import POLICY_REGISTRY
    from repro.serve.shard import page_hash_array, shard_slots
    from repro.sim import Trace, simulate

    requests = np.asarray(requests, dtype=np.int64)
    shard = (
        page_hash_array(requests) % np.uint64(num_shards)
        if num_shards > 1
        else np.zeros(requests.size, dtype=np.uint64)
    )
    out = np.empty(requests.size, dtype=bool)
    for sid, slots in enumerate(shard_slots(k, num_shards)):
        idx = np.flatnonzero(shard == sid)
        pages = requests[idx]
        result = simulate(
            Trace(pages, owners), POLICY_REGISTRY[policy](), slots, costs,
            record_events=True,
        )
        miss = miss_flags(pages, result.events)
        if int(miss.sum()) != result.misses:
            raise RuntimeError(f"shard {sid}: eviction log disagrees with misses")
        out[idx] = miss
    return out


def batch_hits(miss: np.ndarray, batch: int = BATCH) -> np.ndarray:
    """Hits per ``batch``-request op, from per-request miss flags."""
    return np.add.reduceat(~miss, np.arange(0, miss.size, batch)).astype(np.int64)


def batch_tenant_misses(
    miss: np.ndarray, tenants: np.ndarray, num_tenants: int, batch: int = BATCH
) -> np.ndarray:
    """Misses per (``batch``-request op, tenant): summed over the batches
    a server was sent, the per-tenant misses its ledger must show."""
    out = np.zeros(((miss.size + batch - 1) // batch, num_tenants), dtype=np.int64)
    idx = np.flatnonzero(miss)
    np.add.at(out, (idx // batch, tenants[idx]), 1)
    return out


def _build(w: Workload, seed: int, seconds: float, out: str) -> None:
    from repro.policies import POLICY_REGISTRY
    from repro.sim import simulate, write_columnar

    if w.kind == "serve":
        sizes = serve_sizes(w, seconds)
        length = int(sizes["warmup"] + sizes["closed"] + sizes["open"])
    else:
        sizes, length = {}, w.length
    trace, costs, k = GENERATORS[w.source](seed, length)
    k = w.k if w.k is not None else k
    meta = {"workload": w.name, "seed": seed, "k": k, "sizes": sizes}
    np.save(os.path.join(out, "owners.npy"), trace.owners)
    with open(os.path.join(out, "costs.pkl"), "wb") as fh:
        pickle.dump(costs, fh)
    if w.kind == "sim":
        ref = simulate(trace, POLICY_REGISTRY[w.policy](), k, costs, engine="reference")
        meta["reference"] = sim_fingerprint(ref)
    elif w.kind == "serve":
        miss = shard_miss_flags(trace.requests, trace.owners, costs, w.policy, k, w.shards)
        np.save(os.path.join(out, "reference_hits.npy"), batch_hits(miss))
        per_batch = batch_tenant_misses(miss, trace.owners[trace.requests], len(costs))
        np.save(os.path.join(out, "reference_tenant_misses.npy"), per_batch)
        meta["miss_ratio"] = float(miss.mean())
        meta["tenant_cost"] = float(
            sum(f.value(int(m)) for f, m in zip(costs, per_batch.sum(axis=0)))
        )
    if w.stream or w.kind == "net":
        write_columnar(trace, os.path.join(out, "store"), name=w.source)
    else:
        np.save(os.path.join(out, "requests.npy"), trace.requests.astype(np.int32))
    with open(os.path.join(out, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh)
