"""Out-of-core columnar trace store.

A *columnar trace* is a directory holding the request column of a
:class:`~repro.sim.trace.Trace` as mmap-able ``.npy`` segment files
plus a small JSON header::

    mytrace.coltrace/
        header.json        dtype, counts, segment table, vocab sizes
        seg-00000.npy      requests[0 : segment_rows]          (int32/int64)
        seg-00001.npy      requests[segment_rows : ...]
        owners.npy         page -> tenant                      (int64)
        page_labels.txt    optional: original page label per dense id
        tenant_labels.txt  optional: original tenant label per dense id

The time column is implicit (request *i* of the store has global clock
``t = i``) and the tenant column is derived (``tenant = owners[page]``),
so one integer per request is all that touches disk — 4 bytes/request
at the default ``int32``.  Segments are loaded with
``np.load(mmap_mode="r")`` one at a time: :meth:`TraceReader.batches`
yields zero-copy array views into the current segment's mapping and
drops the mapping when the segment is exhausted, so peak resident
memory is bounded by one segment (~16 MB at the defaults) no matter how
long the trace is.  That is the property the fast engine
(:func:`repro.sim.engine.simulate` with a reader) and the serving
replay path (:func:`repro.serve.client.replay`) build on: a 10⁸-request
replay runs with the same flat RSS as a 10⁵ one.

Converters are constant-memory by construction: :func:`convert_csv`
streams a ``page,tenant`` CSV (``.gz`` ok) row by row, densifying
labels in first-appearance order — the same vocabulary convention as
:func:`repro.sim.trace_io.load_csv` — and appending label files as ids
are assigned, never holding the request column in RAM.
:func:`convert_kv_log` adapts the common CDN/storage key-value access
log shape (``timestamp,key,key_size,value_size,client_id,op,ttl`` —
the Twemcache/Twitter production-trace format) with a
:class:`SpillableIdMap` that moves the key→id mapping to a disk-backed
SQLite table once it outgrows a RAM threshold.

The format is versioned via ``header.json``; anything this module
cannot read raises :class:`ValueError` with the offending field.  That
includes a store whose files disagree with its header — an owners
column of the wrong size, a segment of the wrong shape or dtype, or a
page id outside ``[0, num_pages)`` — caught at open or as each segment
is mapped, before any request reaches a consumer.
"""

from __future__ import annotations

import csv
import gzip
import json
import os
import sqlite3
import tempfile
from typing import Dict, Iterator, List, Optional, Sequence, TextIO, Tuple, Union

import numpy as np

from repro.sim.trace import DEFAULT_BATCH, Trace
from repro.util.validation import check_positive_int

FORMAT_NAME = "repro-coltrace"
FORMAT_VERSION = 1

#: Rows per ``.npy`` segment file.  4 Mi rows = 16 MB at int32 — large
#: enough that mmap/munmap churn is negligible, small enough that the
#: one-segment-resident bound keeps streaming RSS flat.
DEFAULT_SEGMENT_ROWS = 4 * 1024 * 1024

_HEADER_FILE = "header.json"
_OWNERS_FILE = "owners.npy"
_PAGE_LABELS_FILE = "page_labels.txt"
_TENANT_LABELS_FILE = "tenant_labels.txt"

_DTYPES = {"int32": np.int32, "int64": np.int64}


def _open_text(path: str, mode: str) -> TextIO:
    if path.endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="utf-8", newline="")
    return open(path, mode, encoding="utf-8", newline="")


def is_columnar(path: str) -> bool:
    """True when *path* is a columnar trace directory (has a header)."""
    return os.path.isdir(path) and os.path.isfile(
        os.path.join(path, _HEADER_FILE)
    )


class ColumnarTraceWriter:
    """Append-only writer for the columnar format (bounded memory).

    Requests arrive through :meth:`append` in any chunking; the writer
    fills one preallocated segment buffer and flushes a ``.npy`` file
    each time it fills, so memory is ``segment_rows`` elements
    regardless of the trace length.  ``owners`` may be supplied at
    construction (known page universe) or via :meth:`set_owners` before
    :meth:`close` (converters discover the universe while streaming).

    Use as a context manager; the header is written by :meth:`close`
    only after a clean run, so a half-written directory is never
    mistaken for a valid store (``is_columnar`` stays False).
    """

    def __init__(
        self,
        path: str,
        *,
        name: Optional[str] = None,
        dtype: str = "int32",
        segment_rows: int = DEFAULT_SEGMENT_ROWS,
        owners: Optional[np.ndarray] = None,
        extra_header: Optional[Dict[str, object]] = None,
    ) -> None:
        if dtype not in _DTYPES:
            raise ValueError(f"dtype must be one of {sorted(_DTYPES)}, got {dtype!r}")
        self.path = path
        self.name = name or os.path.basename(os.path.normpath(path))
        self.dtype = dtype
        self.segment_rows = check_positive_int(segment_rows, "segment_rows")
        self._max_value = np.iinfo(_DTYPES[dtype]).max
        self._buf = np.empty(self.segment_rows, dtype=_DTYPES[dtype])
        self._fill = 0
        self._segments: List[Dict[str, object]] = []
        self._total = 0
        self._max_page = -1
        self._owners: Optional[np.ndarray] = None
        self._extra_header = dict(extra_header or {})
        self._closed = False
        os.makedirs(path, exist_ok=True)
        if owners is not None:
            self.set_owners(owners)

    def set_owners(self, owners: np.ndarray) -> None:
        """Record the page→tenant map (defines the page universe)."""
        owners = np.ascontiguousarray(np.asarray(owners, dtype=np.int64))
        if owners.ndim != 1 or owners.size == 0:
            raise ValueError("owners must be a non-empty 1-D array")
        if owners.min() < 0:
            raise ValueError("owners must be non-negative tenant ids")
        self._owners = owners

    def append(self, pages: Union[np.ndarray, Sequence[int]]) -> None:
        """Append a chunk of page requests (any size, any int dtype)."""
        arr = np.asarray(pages)
        if arr.size == 0:
            return
        if arr.ndim != 1:
            raise ValueError("pages must be 1-D")
        lo, hi = int(arr.min()), int(arr.max())
        if lo < 0:
            raise ValueError(f"negative page id {lo}")
        if hi > self._max_value:
            raise ValueError(
                f"page id {hi} does not fit dtype {self.dtype}; "
                f"pass dtype='int64'"
            )
        if hi > self._max_page:
            self._max_page = hi
        offset = 0
        while offset < arr.size:
            take = min(self.segment_rows - self._fill, arr.size - offset)
            self._buf[self._fill : self._fill + take] = arr[offset : offset + take]
            self._fill += take
            offset += take
            if self._fill == self.segment_rows:
                self._flush_segment()
        self._total += int(arr.size)

    def _flush_segment(self) -> None:
        if not self._fill:
            return
        fname = f"seg-{len(self._segments):05d}.npy"
        np.save(os.path.join(self.path, fname), self._buf[: self._fill])
        self._segments.append({"file": fname, "rows": int(self._fill)})
        self._fill = 0

    def close(self) -> str:
        """Flush the tail segment, write owners + header; returns the path."""
        if self._closed:
            return self.path
        if self._total == 0:
            raise ValueError("columnar trace contains no requests")
        if self._owners is None:
            raise ValueError("owners not set (set_owners before close)")
        if self._max_page >= self._owners.size:
            raise ValueError(
                f"page {self._max_page} outside the owners universe "
                f"[0, {self._owners.size})"
            )
        self._flush_segment()
        np.save(os.path.join(self.path, _OWNERS_FILE), self._owners)
        header = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "name": self.name,
            "dtype": self.dtype,
            "total_requests": self._total,
            "segment_rows": self.segment_rows,
            "segments": self._segments,
            "num_pages": int(self._owners.size),
            "num_users": int(self._owners.max()) + 1,
            "owners_file": _OWNERS_FILE,
        }
        header.update(self._extra_header)
        tmp = os.path.join(self.path, _HEADER_FILE + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(header, fh, indent=1)
        os.replace(tmp, os.path.join(self.path, _HEADER_FILE))
        self._closed = True
        self._buf = np.empty(0, dtype=self._buf.dtype)
        return self.path

    def __enter__(self) -> "ColumnarTraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()


class TraceReader:
    """Zero-copy batch views over a columnar trace directory.

    Duck-compatible with :class:`~repro.sim.trace.Trace` for the
    attributes the streaming stack needs (``name``, ``length``,
    ``num_pages``, ``num_users``, ``owners``) plus :meth:`batches`,
    which yields ``(t0, pages_view)`` pairs — each view is a slice of
    the current segment's memory mapping, never a copy.  Only one
    segment is mapped at a time; iterating past a segment boundary
    unmaps the previous one, so resident memory stays ~one segment for
    arbitrarily long traces.

    ``owners`` is materialized in RAM (the page universe is RAM-bounded
    by design across the repo; it is the request *column* that is not).
    """

    def __init__(self, path: str, *, limit: Optional[int] = None) -> None:
        header_path = os.path.join(path, _HEADER_FILE)
        if not os.path.isfile(header_path):
            raise ValueError(f"{path!r} is not a columnar trace (no header.json)")
        with open(header_path, encoding="utf-8") as fh:
            header = json.load(fh)
        if header.get("format") != FORMAT_NAME:
            raise ValueError(f"unknown format {header.get('format')!r}")
        if int(header.get("version", -1)) > FORMAT_VERSION:
            raise ValueError(f"unsupported version {header.get('version')}")
        if header.get("dtype") not in _DTYPES:
            raise ValueError(f"unsupported dtype {header.get('dtype')!r}")
        total = int(header["total_requests"])
        seg_total = sum(int(seg["rows"]) for seg in header["segments"])
        if seg_total != total:
            raise ValueError(
                f"segment rows sum to {seg_total}, header says {total}"
            )
        for seg in header["segments"]:
            if not os.path.isfile(os.path.join(path, seg["file"])):
                raise ValueError(f"missing segment file {seg['file']!r}")
        self.path = path
        self.header = header
        self._total = total
        if limit is not None:
            limit = check_positive_int(limit, "limit")
        self._limit = None if limit is None or limit >= total else limit
        owners = np.load(os.path.join(path, header["owners_file"]))
        self.num_pages = int(header["num_pages"])
        self.num_users = int(header["num_users"])
        if owners.ndim != 1 or owners.size == 0 or owners.size != self.num_pages:
            raise ValueError(
                f"{header['owners_file']}: shape {owners.shape}, header "
                f"num_pages is {self.num_pages}"
            )
        if owners.min() < 0 or int(owners.max()) + 1 != self.num_users:
            raise ValueError(
                f"{header['owners_file']}: tenant ids span "
                f"[{owners.min()}, {owners.max()}], header num_users is "
                f"{self.num_users}"
            )
        self.owners: np.ndarray = owners.astype(np.int64, copy=False)
        base = header.get("name") or os.path.basename(os.path.normpath(path))
        self.name = base if self._limit is None else f"{base}[:{self._limit}]"

    # -- Trace-compatible surface --------------------------------------
    @property
    def length(self) -> int:
        return self._total if self._limit is None else self._limit

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(self.header["dtype"])

    @property
    def nbytes_per_request(self) -> int:
        """On-disk bytes per request (the request column only)."""
        return int(self.dtype.itemsize)

    def bytes_on_disk(self) -> int:
        """Total size of the store directory in bytes."""
        return sum(
            os.path.getsize(os.path.join(self.path, f))
            for f in os.listdir(self.path)
        )

    def head(self, n: int) -> "TraceReader":
        """A reader over the first ``min(n, length)`` requests."""
        return TraceReader(self.path, limit=min(n, self.length))

    def batches(
        self, batch_size: int = DEFAULT_BATCH
    ) -> Iterator[Tuple[int, np.ndarray]]:
        """Yield ``(t0, pages)`` where ``pages`` is a zero-copy view of
        at most *batch_size* requests starting at global clock *t0*.

        Each segment is checked against the header as it is mapped
        (1-D, the header's dtype and row count) and each view's page
        ids against ``[0, num_pages)``; a mismatch raises
        :class:`ValueError` naming the segment file."""
        batch_size = check_positive_int(batch_size, "batch_size")
        remaining = self.length
        t0 = 0
        for seg in self.header["segments"]:
            if remaining <= 0:
                break
            mm = np.load(
                os.path.join(self.path, seg["file"]), mmap_mode="r"
            )
            if mm.shape != (int(seg["rows"]),) or mm.dtype != self.dtype:
                raise ValueError(
                    f"{seg['file']}: {mm.dtype} shape {mm.shape}, header "
                    f"says {self.dtype} with {seg['rows']} rows"
                )
            rows = min(int(seg["rows"]), remaining)
            for lo in range(0, rows, batch_size):
                view = mm[lo : min(lo + batch_size, rows)]
                if view.min() < 0 or view.max() >= self.num_pages:
                    raise ValueError(
                        f"{seg['file']}: page ids outside "
                        f"[0, {self.num_pages}) at t={t0 + lo}"
                    )
                yield t0 + lo, view
            t0 += rows
            remaining -= rows
            del mm  # munmap once the consumer drops its views

    def materialize(self) -> Trace:
        """Load the (limited) request column into an in-RAM Trace."""
        parts = [np.asarray(chunk, dtype=np.int64) for _t0, chunk in self.batches()]
        requests = (
            np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        )
        return Trace(requests, self.owners, name=self.name)

    def page_labels(self) -> Optional[List[str]]:
        """Original page labels (dense id order), when the store has them."""
        return self._labels("page_labels_file")

    def tenant_labels(self) -> Optional[List[str]]:
        """Original tenant labels (dense id order), when the store has them."""
        return self._labels("tenant_labels_file")

    def _labels(self, key: str) -> Optional[List[str]]:
        fname = self.header.get(key)
        if not fname:
            return None
        with _open_text(os.path.join(self.path, fname), "r") as fh:
            return [line.rstrip("\n") for line in fh]

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TraceReader(name={self.name!r}, T={self.length}, "
            f"pages={self.num_pages}, users={self.num_users}, "
            f"dtype={self.header['dtype']}, "
            f"segments={len(self.header['segments'])})"
        )


def open_trace(path: str, *, limit: Optional[int] = None) -> TraceReader:
    """Open a columnar trace directory for streaming."""
    return TraceReader(path, limit=limit)


def write_columnar(
    trace: Trace,
    path: str,
    *,
    dtype: str = "auto",
    segment_rows: int = DEFAULT_SEGMENT_ROWS,
    page_labels: Optional[Sequence[str]] = None,
    tenant_labels: Optional[Sequence[str]] = None,
    name: Optional[str] = None,
) -> TraceReader:
    """Persist an in-RAM :class:`Trace` as a columnar store.

    ``dtype="auto"`` picks ``int32`` when every page id fits (the usual
    4 bytes/request) and ``int64`` otherwise.
    """
    if dtype == "auto":
        dtype = "int32" if trace.num_pages <= np.iinfo(np.int32).max else "int64"
    extra: Dict[str, object] = {}
    if page_labels is not None:
        if len(page_labels) < trace.num_pages:
            raise ValueError(f"need {trace.num_pages} page labels")
        extra["page_labels_file"] = _PAGE_LABELS_FILE
    if tenant_labels is not None:
        if len(tenant_labels) < trace.num_users:
            raise ValueError(f"need {trace.num_users} tenant labels")
        extra["tenant_labels_file"] = _TENANT_LABELS_FILE
    with ColumnarTraceWriter(
        path,
        name=name or trace.name,
        dtype=dtype,
        segment_rows=segment_rows,
        owners=trace.owners,
        extra_header=extra,
    ) as writer:
        # Chunked so the int64 -> int32 cast never doubles the trace.
        for _t0, pages in trace.batches(segment_rows):
            writer.append(pages)
        if page_labels is not None:
            _write_labels(path, _PAGE_LABELS_FILE, page_labels, trace.num_pages)
        if tenant_labels is not None:
            _write_labels(
                path, _TENANT_LABELS_FILE, tenant_labels, trace.num_users
            )
    return TraceReader(path)


def _write_labels(
    dirpath: str, fname: str, labels: Sequence[str], count: int
) -> None:
    with _open_text(os.path.join(dirpath, fname), "w") as fh:
        for label in labels[:count]:
            label = str(label)
            if "\n" in label:
                raise ValueError(f"label {label!r} contains a newline")
            fh.write(label + "\n")


class _LabelSink:
    """Streaming label writer: one line per dense id, appended as ids
    are assigned — constant memory even for billion-key vocabularies."""

    def __init__(self, dirpath: str, fname: str) -> None:
        self._fh = _open_text(os.path.join(dirpath, fname), "w")
        self.fname = fname

    def add(self, label: str) -> None:
        if "\n" in label:
            raise ValueError(f"label {label!r} contains a newline")
        self._fh.write(label + "\n")

    def close(self) -> None:
        self._fh.close()


# ----------------------------------------------------------------------
# Streaming converters
# ----------------------------------------------------------------------
_APPEND_CHUNK = 1 << 16


class _ChunkedAppender:
    """Buffer scalar page ids into fixed-size numpy chunks for the writer."""

    def __init__(self, writer: ColumnarTraceWriter) -> None:
        self._writer = writer
        self._buf = np.empty(_APPEND_CHUNK, dtype=np.int64)
        self._fill = 0

    def add(self, page: int) -> None:
        self._buf[self._fill] = page
        self._fill += 1
        if self._fill == _APPEND_CHUNK:
            self._writer.append(self._buf)
            self._fill = 0

    def flush(self) -> None:
        if self._fill:
            self._writer.append(self._buf[: self._fill])
            self._fill = 0


class _OwnerTable:
    """Growable page→tenant array for converters that discover the page
    universe while streaming (first-appearance ownership)."""

    def __init__(self) -> None:
        self._arr = np.full(1 << 16, -1, dtype=np.int64)
        self._size = 0

    def assign(self, page: int, tenant: int) -> None:
        if page >= self._arr.size:
            grown = np.full(
                max(self._arr.size * 2, page + 1), -1, dtype=np.int64
            )
            grown[: self._arr.size] = self._arr
            self._arr = grown
        self._arr[page] = tenant
        if page >= self._size:
            self._size = page + 1

    def owner_of(self, page: int) -> int:
        return int(self._arr[page]) if page < self._size else -1

    def array(self) -> np.ndarray:
        return self._arr[: self._size]


def convert_csv(
    source: Union[str, TextIO],
    out: str,
    *,
    name: Optional[str] = None,
    dtype: str = "int32",
    segment_rows: int = DEFAULT_SEGMENT_ROWS,
    store_labels: bool = True,
) -> TraceReader:
    """Stream a ``page,tenant`` CSV (``.gz`` ok) into a columnar store.

    Constant memory in the trace length: the request column goes
    through a :class:`ColumnarTraceWriter` chunk buffer and label files
    are appended as ids are assigned.  Memory grows only with the
    vocabulary (the page universe), exactly like every other consumer
    of an ownership array.  Densification order and the
    two-tenants-per-page error match
    :func:`repro.sim.trace_io.load_csv`, so the vocabulary round-trips.
    """
    close = False
    if isinstance(source, str):
        fh: TextIO = _open_text(source, "r")
        close = True
        if name is None:
            name = os.path.basename(source)
    else:
        fh = source
    page_sink = tenant_sink = None
    try:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"page", "tenant"} <= set(
            reader.fieldnames
        ):
            raise ValueError(
                f"CSV must have 'page' and 'tenant' columns, got {reader.fieldnames}"
            )
        extra: Dict[str, object] = {}
        if store_labels:
            extra["page_labels_file"] = _PAGE_LABELS_FILE
            extra["tenant_labels_file"] = _TENANT_LABELS_FILE
        writer = ColumnarTraceWriter(
            out,
            name=name,
            dtype=dtype,
            segment_rows=segment_rows,
            extra_header=extra,
        )
        if store_labels:
            page_sink = _LabelSink(out, _PAGE_LABELS_FILE)
            tenant_sink = _LabelSink(out, _TENANT_LABELS_FILE)
        page_ids: Dict[str, int] = {}
        tenant_ids: Dict[str, int] = {}
        owner_table = _OwnerTable()
        appender = _ChunkedAppender(writer)
        for lineno, row in enumerate(reader, start=2):
            page_label = row["page"]
            tenant_label = row["tenant"]
            if page_label is None or tenant_label is None:
                raise ValueError(f"line {lineno}: missing page/tenant")
            tid = tenant_ids.get(tenant_label)
            if tid is None:
                tid = tenant_ids[tenant_label] = len(tenant_ids)
                if tenant_sink is not None:
                    tenant_sink.add(tenant_label)
            pid = page_ids.get(page_label)
            if pid is None:
                pid = page_ids[page_label] = len(page_ids)
                owner_table.assign(pid, tid)
                if page_sink is not None:
                    page_sink.add(page_label)
            elif owner_table.owner_of(pid) != tid:
                raise ValueError(
                    f"line {lineno}: page {page_label!r} owned by two tenants"
                )
            appender.add(pid)
        if not page_ids:
            raise ValueError("CSV contains no requests")
        appender.flush()
        writer.set_owners(owner_table.array())
        writer.close()
        return TraceReader(out)
    finally:
        if page_sink is not None:
            page_sink.close()
        if tenant_sink is not None:
            tenant_sink.close()
        if close:
            fh.close()


class SpillableIdMap:
    """label → dense id map that spills to disk past a RAM threshold.

    Below *spill_threshold* entries it is a plain dict.  At the
    threshold, the mapping moves into a temporary SQLite table (the
    container's only always-available disk-backed map — the ``dbm``
    backends here are the pure-Python ``dumb`` one, whose key index
    stays in RAM) and a bounded hot dict absorbs the skew of real key
    popularity, so lookups of frequent keys stay O(1) in RAM while the
    cold tail pages from disk.
    """

    def __init__(
        self,
        spill_threshold: int = 2_000_000,
        *,
        spill_dir: Optional[str] = None,
        hot_capacity: Optional[int] = None,
    ) -> None:
        self.spill_threshold = check_positive_int(
            spill_threshold, "spill_threshold"
        )
        self._spill_dir = spill_dir
        self._hot_capacity = hot_capacity or max(1024, spill_threshold // 4)
        self._mem: Dict[str, int] = {}
        self._db: Optional[sqlite3.Connection] = None
        self._db_path: Optional[str] = None
        self._pending: Dict[str, int] = {}
        self._n = 0

    @property
    def spilled(self) -> bool:
        return self._db is not None

    def __len__(self) -> int:
        return self._n

    def get_or_assign(self, label: str) -> Tuple[int, bool]:
        """Return ``(dense id, is_new)`` for *label*."""
        if self._db is None:
            got = self._mem.get(label)
            if got is not None:
                return got, False
            idx = self._n
            self._mem[label] = idx
            self._n += 1
            if self._n >= self.spill_threshold:
                self._spill()
            return idx, True
        got = self._mem.get(label)
        if got is None:
            got = self._pending.get(label)
        if got is None:
            row = self._db.execute(
                "SELECT id FROM ids WHERE label = ?", (label,)
            ).fetchone()
            got = row[0] if row is not None else None
        if got is not None:
            self._remember(label, got)
            return got, False
        idx = self._n
        self._n += 1
        self._pending[label] = idx
        if len(self._pending) >= 4096:
            self._flush_pending()
        self._remember(label, idx)
        return idx, True

    def _remember(self, label: str, idx: int) -> None:
        if len(self._mem) >= self._hot_capacity:
            self._mem.clear()
        self._mem[label] = idx

    def _spill(self) -> None:
        fd, path = tempfile.mkstemp(
            prefix="idmap-", suffix=".sqlite", dir=self._spill_dir
        )
        os.close(fd)
        db = sqlite3.connect(path)
        db.execute("PRAGMA journal_mode=OFF")
        db.execute("PRAGMA synchronous=OFF")
        db.execute("CREATE TABLE ids (label TEXT PRIMARY KEY, id INTEGER)")
        db.executemany(
            "INSERT INTO ids VALUES (?, ?)", list(self._mem.items())
        )
        db.commit()
        self._db = db
        self._db_path = path
        self._mem = {}

    def _flush_pending(self) -> None:
        if self._db is not None and self._pending:
            self._db.executemany(
                "INSERT INTO ids VALUES (?, ?)", list(self._pending.items())
            )
            self._db.commit()
            self._pending = {}

    def close(self) -> None:
        if self._db is not None:
            self._db.close()
            self._db = None
        if self._db_path is not None:
            try:
                os.unlink(self._db_path)
            except OSError:  # pragma: no cover - already gone
                pass
            self._db_path = None

    def __enter__(self) -> "SpillableIdMap":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def convert_kv_log(
    source: Union[str, TextIO],
    out: str,
    *,
    key_col: int = 1,
    tenant_col: int = 4,
    delimiter: str = ",",
    has_header: bool = False,
    name: Optional[str] = None,
    dtype: str = "int32",
    segment_rows: int = DEFAULT_SEGMENT_ROWS,
    spill_threshold: int = 2_000_000,
    spill_dir: Optional[str] = None,
    limit: Optional[int] = None,
    strict_ownership: bool = False,
) -> TraceReader:
    """Adapt a key-value access log into a columnar trace, streaming.

    The default column layout is the Twemcache/Twitter production-trace
    shape ``timestamp,key,key_size,value_size,client_id,operation,ttl``
    (*key_col*/*tenant_col* select other layouts).  Keys densify to
    page ids through a :class:`SpillableIdMap` — constant RAM even for
    vocabularies larger than memory — and clients densify to tenant
    ids through a plain dict (tenant counts are small by assumption).

    A key accessed by several clients keeps its **first** requester as
    owner (the model's ownership map is per page); pass
    ``strict_ownership=True`` to make that an error instead, matching
    the CSV converters.  ``limit`` stops after that many log records
    (for sampling giant logs).  Labels are not stored — a billion-key
    label file would defeat the point; keep the source log as the
    mapping record.
    """
    close = False
    if isinstance(source, str):
        fh: TextIO = _open_text(source, "r")
        close = True
        if name is None:
            name = os.path.basename(source)
    else:
        fh = source
    try:
        rows = csv.reader(fh, delimiter=delimiter)
        if has_header:
            next(rows, None)
        need = max(key_col, tenant_col) + 1
        writer = ColumnarTraceWriter(
            out,
            name=name or "kv-log",
            dtype=dtype,
            segment_rows=segment_rows,
        )
        appender = _ChunkedAppender(writer)
        owner_table = _OwnerTable()
        tenant_ids: Dict[str, int] = {}
        seen = 0
        with SpillableIdMap(spill_threshold, spill_dir=spill_dir) as keys:
            for lineno, row in enumerate(rows, start=1 + int(has_header)):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) < need:
                    raise ValueError(
                        f"line {lineno}: expected >= {need} columns, got {len(row)}"
                    )
                key = row[key_col]
                client = row[tenant_col]
                tid = tenant_ids.setdefault(client, len(tenant_ids))
                pid, is_new = keys.get_or_assign(key)
                if is_new:
                    owner_table.assign(pid, tid)
                elif strict_ownership and owner_table.owner_of(pid) != tid:
                    raise ValueError(
                        f"line {lineno}: key {key!r} accessed by two clients "
                        f"under strict_ownership"
                    )
                appender.add(pid)
                seen += 1
                if limit is not None and seen >= limit:
                    break
        if not seen:
            raise ValueError("log contains no requests")
        appender.flush()
        writer.set_owners(owner_table.array())
        writer.close()
        return TraceReader(out)
    finally:
        if close:
            fh.close()


__all__ = [
    "DEFAULT_BATCH",
    "DEFAULT_SEGMENT_ROWS",
    "ColumnarTraceWriter",
    "SpillableIdMap",
    "TraceReader",
    "convert_csv",
    "convert_kv_log",
    "is_columnar",
    "open_trace",
    "write_columnar",
]
