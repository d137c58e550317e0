"""Trace I/O throughput: columnar store vs CSV, streamed vs in-RAM.

The columnar path exists so trace length is a disk problem, not a RAM
problem; these cases keep its constant factors honest.  Write/read
throughput of the store itself, the CSV converters (the slow,
vocabulary-building path), and the end-to-end cost of streaming a
simulation from disk instead of RAM — snapshotted with RSS numbers by
``perf_trajectory.py`` into BENCH_PR6.json.
"""

import io

import numpy as np
import pytest

from repro.policies import POLICY_REGISTRY
from repro.sim import convert_csv, open_trace, save_csv, simulate, write_columnar
from repro.sim.trace_io import load_csv


@pytest.fixture(scope="session")
def hot_store(tmp_path_factory, zipf_hot_50k):
    path = str(tmp_path_factory.mktemp("col") / "hot")
    write_columnar(zipf_hot_50k, path)
    return path


@pytest.fixture(scope="session")
def hot_csv(zipf_hot_50k):
    buf = io.StringIO()
    save_csv(zipf_hot_50k, buf)
    return buf.getvalue()


def test_bench_write_columnar(benchmark, zipf_hot_50k, tmp_path):
    def write(i=[0]):
        i[0] += 1
        return write_columnar(zipf_hot_50k, str(tmp_path / f"w{i[0]}"))

    reader = benchmark.pedantic(write, rounds=3)
    assert reader.length == zipf_hot_50k.length


def test_bench_stream_read(benchmark, hot_store, zipf_hot_50k):
    def read():
        reader = open_trace(hot_store)
        total = 0
        for _t0, chunk in reader.batches():
            total += int(chunk.size)
        return total

    total = benchmark.pedantic(read, rounds=3)
    assert total == zipf_hot_50k.length


def test_bench_simulate_in_ram(benchmark, zipf_hot_50k):
    r = benchmark.pedantic(
        simulate,
        args=(zipf_hot_50k, POLICY_REGISTRY["lru"](), 1024),
        rounds=3,
    )
    assert r.hits + r.misses == zipf_hot_50k.length


def test_bench_simulate_reader(benchmark, hot_store, zipf_hot_50k):
    def run():
        return simulate(open_trace(hot_store), POLICY_REGISTRY["lru"](), 1024)

    r = benchmark.pedantic(run, rounds=3)
    assert r.hits + r.misses == zipf_hot_50k.length


def test_bench_load_csv(benchmark, hot_csv, zipf_hot_50k):
    loaded = benchmark.pedantic(
        lambda: load_csv(io.StringIO(hot_csv)), rounds=3
    )
    assert loaded.trace.length == zipf_hot_50k.length


def test_bench_convert_csv(benchmark, hot_csv, zipf_hot_50k, tmp_path):
    def convert(i=[0]):
        i[0] += 1
        return convert_csv(
            io.StringIO(hot_csv), str(tmp_path / f"c{i[0]}"),
            store_labels=False,
        )

    reader = benchmark.pedantic(convert, rounds=3)
    assert reader.length == zipf_hot_50k.length
    np.testing.assert_array_equal(
        reader.owners[reader.materialize().requests[:100]],
        zipf_hot_50k.owners[zipf_hot_50k.requests[:100]],
    )
