"""Cache-network throughput benchmarks.

The network engine wraps the same miss mechanics as the simulator, so
its per-node cost should track the reference engine's per-request
loop; these cases keep the hierarchy paths (to-origin on a path,
nearest-copy on a tree) timed under pytest-benchmark. Measured numbers
are snapshotted to BENCH_PR7.json by ``perf_trajectory.py``.
"""

import pytest

from repro.core.cost_functions import MonomialCost
from repro.net import NetworkSim, path_topology, tree_topology

DEPTH = 3


def _run_net(trace, topo, strategy, routing="to-origin"):
    sim = NetworkSim(
        topo, "lru", strategy=strategy, routing=routing, validate=False
    )
    result = sim.run(trace)
    assert result.network_hits + result.origin_total == trace.length
    return result


@pytest.mark.parametrize("strategy", ["lce", "lcd"])
def test_bench_net_path3_hot(benchmark, zipf_hot_50k, strategy):
    topo = path_topology(DEPTH, 341)
    benchmark.pedantic(
        _run_net, args=(zipf_hot_50k, topo, strategy), rounds=3
    )


def test_bench_net_path3_edge_mixed(benchmark, zipf_50k):
    """Miss-heavy shape: every request walks the whole path."""
    topo = path_topology(DEPTH, 85)
    benchmark.pedantic(_run_net, args=(zipf_50k, topo, "edge"), rounds=3)


def test_bench_net_tree_nearest_copy(benchmark, zipf_50k):
    topo = tree_topology(2, 2, 128)
    benchmark.pedantic(
        _run_net, args=(zipf_50k, topo, "lcd", "nearest-copy"), rounds=3
    )


def test_bench_net_hierarchy_cost(benchmark, zipf_50k):
    """Cost aggregation on top of the run: Σ f_i(origin fetches)."""
    topo = path_topology(DEPTH, 85)
    costs = [MonomialCost(2)] * zipf_50k.num_users

    def run():
        result = _run_net(zipf_50k, topo, "lcd")
        return result.hierarchy_cost(costs)

    cost = benchmark.pedantic(run, rounds=3)
    assert cost > 0
