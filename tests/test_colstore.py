"""Out-of-core columnar traces: format round-trips and engine parity.

Two pillars.  First, the storage layer itself — writer/reader
round-trips, segmentation, zero-copy batch views, the constant-memory
CSV and kv-log converters, and the spillable id map they lean on.
Second, the acceptance bar for streamed simulation: feeding a
:class:`~repro.sim.colstore.TraceReader` to :func:`repro.sim.simulate`
must produce **bit-identical** per-tenant counters, eviction events and
miss curves to the in-RAM run for every registered policy, with
segment and batch boundaries placed adversarially (tiny
``segment_rows`` forces many splits).
"""

from __future__ import annotations

import gzip
import inspect
import io
import os

import numpy as np
import pytest

from repro.core.cost_functions import MonomialCost
from repro.policies import POLICY_REGISTRY
from repro.sim import (
    ColumnarTraceWriter,
    SpillableIdMap,
    Trace,
    TraceReader,
    convert_csv,
    convert_kv_log,
    is_columnar,
    load_csv,
    open_trace,
    simulate,
    write_columnar,
)
from repro.workloads.builders import (
    adversarial_cycle_trace,
    random_multi_tenant_trace,
    zipf_trace,
)

SEED = 7


def make_policy(factory):
    try:
        params = inspect.signature(factory).parameters
    except (TypeError, ValueError):
        params = {}
    if "rng" in params:
        return factory(rng=SEED)
    return factory()


@pytest.fixture
def trace():
    return random_multi_tenant_trace(4, 60, 3000, seed=13)


# ---------------------------------------------------------------------------
# Writer / reader round-trip
# ---------------------------------------------------------------------------


class TestWriterReader:
    def test_round_trip(self, tmp_path, trace):
        reader = write_columnar(trace, str(tmp_path / "col"))
        assert is_columnar(str(tmp_path / "col"))
        back = reader.materialize()
        np.testing.assert_array_equal(back.requests, trace.requests)
        np.testing.assert_array_equal(back.owners, trace.owners)
        assert reader.length == trace.length
        assert reader.num_pages == trace.num_pages
        assert reader.num_users == trace.num_users
        assert reader.name == trace.name

    def test_segmentation_and_batches(self, tmp_path, trace):
        reader = write_columnar(trace, str(tmp_path / "col"), segment_rows=512)
        assert len(reader.header["segments"]) == -(-trace.length // 512)
        t_next = 0
        parts = []
        for t0, chunk in reader.batches(100):
            assert t0 == t_next
            assert chunk.size <= 100
            t_next += chunk.size
            parts.append(np.asarray(chunk, dtype=np.int64))
        assert t_next == trace.length
        np.testing.assert_array_equal(np.concatenate(parts), trace.requests)
        # Where b divides segment_rows, Trace.batches(b) cuts exactly
        # where the reader does: same t0s, same pages.
        for b in (1, 64, 256, 512):
            in_ram = [(t0, pages.tolist()) for t0, pages in trace.batches(b)]
            streamed = [(t0, pages.tolist()) for t0, pages in reader.batches(b)]
            assert in_ram == streamed, b

    def test_batches_are_zero_copy_views(self, tmp_path, trace):
        reader = write_columnar(trace, str(tmp_path / "col"))
        t0, chunk = next(reader.batches(64))
        assert t0 == 0
        # A slice of the read-only segment mapping, never a copy.
        assert not chunk.flags.writeable
        assert isinstance(chunk.base, np.memmap)
        assert chunk.dtype == reader.dtype

    def test_auto_dtype_is_int32(self, tmp_path, trace):
        reader = write_columnar(trace, str(tmp_path / "col"))
        assert reader.dtype == np.dtype("int32")
        assert reader.nbytes_per_request == 4
        assert reader.bytes_on_disk() > 0

    def test_explicit_int64(self, tmp_path, trace):
        reader = write_columnar(trace, str(tmp_path / "col"), dtype="int64")
        assert reader.nbytes_per_request == 8
        np.testing.assert_array_equal(
            reader.materialize().requests, trace.requests
        )

    def test_head_limits_requests_not_universe(self, tmp_path, trace):
        reader = write_columnar(trace, str(tmp_path / "col"), segment_rows=512)
        head = reader.head(700)
        assert head.length == 700
        assert head.num_pages == trace.num_pages
        np.testing.assert_array_equal(
            head.materialize().requests, trace.requests[:700]
        )
        # head() past the end is the identity.
        assert reader.head(10**9).length == trace.length

    def test_writer_any_chunking(self, tmp_path, trace):
        with ColumnarTraceWriter(
            str(tmp_path / "col"), segment_rows=256, owners=trace.owners
        ) as w:
            cuts = [0, 1, 5, 300, 999, 1000, trace.length]
            for lo, hi in zip(cuts, cuts[1:]):
                w.append(trace.requests[lo:hi])
        reader = open_trace(str(tmp_path / "col"))
        np.testing.assert_array_equal(
            reader.materialize().requests, trace.requests
        )

    def test_labels_round_trip(self, tmp_path, trace):
        pages = [f"p{i}" for i in range(trace.num_pages)]
        tenants = [f"u{i}" for i in range(trace.num_users)]
        reader = write_columnar(
            trace,
            str(tmp_path / "col"),
            page_labels=pages,
            tenant_labels=tenants,
        )
        assert reader.page_labels() == pages
        assert reader.tenant_labels() == tenants

    def test_no_labels_by_default(self, tmp_path, trace):
        reader = write_columnar(trace, str(tmp_path / "col"))
        assert reader.page_labels() is None
        assert reader.tenant_labels() is None

    def test_trace_to_columnar_shorthand(self, tmp_path, trace):
        reader = trace.to_columnar(str(tmp_path / "col"), segment_rows=512)
        assert reader.length == trace.length
        np.testing.assert_array_equal(
            reader.materialize().requests, trace.requests
        )


class TestErrors:
    def test_open_non_columnar(self, tmp_path):
        with pytest.raises(ValueError, match="not a columnar trace"):
            open_trace(str(tmp_path))
        assert not is_columnar(str(tmp_path))

    def test_bad_dtype(self, tmp_path):
        with pytest.raises(ValueError, match="dtype"):
            ColumnarTraceWriter(str(tmp_path / "col"), dtype="float32")

    def test_page_overflows_dtype(self, tmp_path):
        w = ColumnarTraceWriter(str(tmp_path / "col"), dtype="int32")
        with pytest.raises(ValueError, match="int64"):
            w.append([2**31])

    def test_negative_page(self, tmp_path):
        w = ColumnarTraceWriter(str(tmp_path / "col"))
        with pytest.raises(ValueError, match="negative"):
            w.append([-1])

    def test_empty_store_rejected(self, tmp_path):
        w = ColumnarTraceWriter(
            str(tmp_path / "col"), owners=np.zeros(1, dtype=np.int64)
        )
        with pytest.raises(ValueError, match="no requests"):
            w.close()

    def test_half_written_dir_is_not_columnar(self, tmp_path, trace):
        w = ColumnarTraceWriter(str(tmp_path / "col"), owners=trace.owners)
        w.append(trace.requests)
        # No close(): header.json absent, the directory must not parse.
        assert not is_columnar(str(tmp_path / "col"))

    # A store whose files disagree with its header: 80 requests over 4
    # pages, one segment, each file then damaged after the write.
    @staticmethod
    def small_store(tmp_path):
        trace = Trace(np.arange(80) % 4, [0, 1, 0, 1], name="small")
        path = str(tmp_path / "col")
        write_columnar(trace, path)
        return path, os.path.join(path, "seg-00000.npy")

    def test_short_segment_rejected(self, tmp_path):
        path, seg = self.small_store(tmp_path)
        np.save(seg, np.load(seg)[:40])
        reader = open_trace(path)
        with pytest.raises(ValueError, match="seg-00000.npy"):
            simulate(reader, POLICY_REGISTRY["lru"](), 2)

    def test_owners_disagree_with_header_rejected(self, tmp_path):
        path, _seg = self.small_store(tmp_path)
        owners = os.path.join(path, "owners.npy")
        np.save(owners, np.load(owners)[:2])
        with pytest.raises(ValueError, match="owners.npy"):
            open_trace(path)

    def test_out_of_range_page_rejected(self, tmp_path):
        path, seg = self.small_store(tmp_path)
        pages = np.load(seg)
        pages[50] = -1
        np.save(seg, pages)
        reader = open_trace(path)
        with pytest.raises(ValueError, match="seg-00000.npy"):
            simulate(reader, POLICY_REGISTRY["lru"](), 2)


# ---------------------------------------------------------------------------
# Converters
# ---------------------------------------------------------------------------


def csv_text(trace: Trace) -> str:
    lines = ["page,tenant"]
    owners = trace.owners
    for p in trace.requests.tolist():
        lines.append(f"page-{p},tenant-{owners[p]}")
    return "\n".join(lines) + "\n"


class TestConvertCsv:
    def test_matches_load_csv(self, tmp_path, trace):
        text = csv_text(trace)
        loaded = load_csv(io.StringIO(text))
        reader = convert_csv(io.StringIO(text), str(tmp_path / "col"))
        back = reader.materialize()
        np.testing.assert_array_equal(back.requests, loaded.trace.requests)
        np.testing.assert_array_equal(back.owners, loaded.trace.owners)
        assert reader.page_labels() == list(loaded.page_labels)
        assert reader.tenant_labels() == list(loaded.tenant_labels)

    def test_gzip_source_path(self, tmp_path, trace):
        src = tmp_path / "t.csv.gz"
        with gzip.open(src, "wt") as fh:
            fh.write(csv_text(trace))
        reader = convert_csv(str(src), str(tmp_path / "col"), store_labels=False)
        assert reader.page_labels() is None
        loaded = load_csv(io.StringIO(csv_text(trace)))
        np.testing.assert_array_equal(
            reader.materialize().requests, loaded.trace.requests
        )

    def test_empty_csv(self, tmp_path):
        with pytest.raises(ValueError, match="no requests"):
            convert_csv(io.StringIO("page,tenant\n"), str(tmp_path / "col"))

    def test_ownership_conflict(self, tmp_path):
        text = "page,tenant\na,u0\na,u1\n"
        with pytest.raises(ValueError, match="two tenants"):
            convert_csv(io.StringIO(text), str(tmp_path / "col"))


KV_LOG = (
    "100,alpha,8,64,clientA,get,0\n"
    "101,beta,8,64,clientB,get,0\n"
    "102,alpha,8,64,clientA,get,0\n"
    "103,gamma,8,64,clientA,get,0\n"
    "104,beta,8,64,clientB,get,0\n"
)


class TestConvertKvLog:
    def test_densification_and_ownership(self, tmp_path):
        reader = convert_kv_log(io.StringIO(KV_LOG), str(tmp_path / "col"))
        back = reader.materialize()
        # Keys densify in first-appearance order: alpha=0 beta=1 gamma=2.
        np.testing.assert_array_equal(back.requests, [0, 1, 0, 2, 1])
        # First requester owns the key: clientA=0 clientB=1.
        np.testing.assert_array_equal(back.owners, [0, 1, 0])

    def test_limit(self, tmp_path):
        reader = convert_kv_log(
            io.StringIO(KV_LOG), str(tmp_path / "col"), limit=2
        )
        assert reader.length == 2

    def test_strict_ownership(self, tmp_path):
        log = KV_LOG + "105,alpha,8,64,clientB,get,0\n"
        with pytest.raises(ValueError, match="two clients"):
            convert_kv_log(
                io.StringIO(log), str(tmp_path / "col"), strict_ownership=True
            )
        # Default keeps the first requester and does not raise.
        reader = convert_kv_log(io.StringIO(log), str(tmp_path / "col2"))
        assert reader.materialize().owners[0] == 0

    def test_spilled_map_same_result(self, tmp_path):
        small = convert_kv_log(
            io.StringIO(KV_LOG), str(tmp_path / "a"), spill_threshold=2
        )
        big = convert_kv_log(io.StringIO(KV_LOG), str(tmp_path / "b"))
        np.testing.assert_array_equal(
            small.materialize().requests, big.materialize().requests
        )
        np.testing.assert_array_equal(
            small.materialize().owners, big.materialize().owners
        )

    def test_empty_log(self, tmp_path):
        with pytest.raises(ValueError, match="no requests"):
            convert_kv_log(io.StringIO(""), str(tmp_path / "col"))


class TestSpillableIdMap:
    def test_stable_ids_across_spill(self):
        labels = [f"key-{i % 37}" for i in range(400)]
        with SpillableIdMap(2_000_000) as ram, SpillableIdMap(8) as disk:
            ram_ids = [ram.get_or_assign(s) for s in labels]
            disk_ids = [disk.get_or_assign(s) for s in labels]
            assert disk.spilled and not ram.spilled
            assert ram_ids == disk_ids
            assert len(ram) == len(disk) == 37

    def test_is_new_flag(self):
        with SpillableIdMap(4) as m:
            assert m.get_or_assign("a") == (0, True)
            assert m.get_or_assign("b") == (1, True)
            assert m.get_or_assign("a") == (0, False)

    def test_close_removes_spill_file(self, tmp_path):
        m = SpillableIdMap(2, spill_dir=str(tmp_path))
        m.get_or_assign("a")
        m.get_or_assign("b")
        assert m.spilled
        assert os.listdir(tmp_path)
        m.close()
        assert not os.listdir(tmp_path)


# ---------------------------------------------------------------------------
# Streaming simulate() parity — the acceptance bar
# ---------------------------------------------------------------------------


TRACES = {
    "multi-tenant": lambda: random_multi_tenant_trace(4, 60, 3000, seed=13),
    "zipf-hot": lambda: zipf_trace(300, 3000, skew=1.6, seed=12),
    "adversarial": lambda: adversarial_cycle_trace(50, 2000),
}


def run_pair(policy_name, trace, reader, k=64):
    costs = [MonomialCost(2)] * trace.num_users
    results = []
    for t in (trace, reader):
        policy = make_policy(POLICY_REGISTRY[policy_name])
        results.append(
            simulate(
                t, policy, k=k, costs=costs, record_events=True,
                record_curve=True,
            )
        )
    return results


@pytest.mark.parametrize("policy_name", sorted(POLICY_REGISTRY))
@pytest.mark.parametrize("trace_name", sorted(TRACES))
def test_streaming_bit_identical(tmp_path, policy_name, trace_name):
    trace = TRACES[trace_name]()
    # Tiny segments: many batch boundaries inside every hit run, at two
    # offsets against the runs (97 is prime, 512 a power of two).
    for segment_rows in (97, 512):
        reader = write_columnar(
            trace, str(tmp_path / f"col-{segment_rows}"),
            segment_rows=segment_rows,
        )
        if POLICY_REGISTRY[policy_name]().requires_future:
            with pytest.raises(ValueError, match="requires_future"):
                run_pair(policy_name, trace, reader)
            continue
        in_ram, streamed = run_pair(policy_name, trace, reader)
        assert streamed.hits == in_ram.hits
        assert streamed.misses == in_ram.misses
        np.testing.assert_array_equal(streamed.user_misses, in_ram.user_misses)
        assert streamed.final_cache == in_ram.final_cache
        assert streamed.events == in_ram.events
        np.testing.assert_array_equal(streamed.miss_curve, in_ram.miss_curve)


class TestStreamingGuards:
    def test_reference_engine_rejected(self, tmp_path, trace):
        reader = write_columnar(trace, str(tmp_path / "col"))
        with pytest.raises(ValueError, match="fast engine"):
            simulate(reader, make_policy(POLICY_REGISTRY["lru"]), k=64,
                     engine="reference")

    def test_bogus_trace_type_rejected(self):
        with pytest.raises(TypeError, match="Trace or a TraceReader"):
            simulate([1, 2, 3], make_policy(POLICY_REGISTRY["lru"]), k=64)
