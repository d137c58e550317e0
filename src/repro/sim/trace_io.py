"""CSV import/export for request traces.

External traces (production buffer-pool logs, other simulators) rarely
use dense integer ids.  :func:`load_csv` accepts arbitrary page/tenant
labels, densifies them, and returns the mapping so results can be
reported in the original vocabulary; :func:`save_csv` writes the
symmetric format.

Format: a header line then one request per row::

    page,tenant
    tbl1:4711,customer-a
    tbl1:4712,customer-a
    idx9:17,customer-b

(An optional leading ``t`` column with the request index is accepted on
load — rows are used in file order regardless — and written on save.)

Paths ending in ``.gz`` are read and written gzip-compressed
transparently, so large replay traces (the serving subsystem's
:func:`repro.sim.driver.resolve_trace`) ship compressed.

Memory behaviour: both directions are **streaming**.  :func:`load_csv`
parses row-by-row into chunked ``int64`` buffers (it must return an
in-RAM :class:`Trace`, so the result itself is the only O(T) object —
no Python list of boxed ints is ever built), and :func:`save_csv`
writes row-by-row from either a :class:`Trace` or a columnar
:class:`~repro.sim.colstore.TraceReader`, so a trace larger than RAM
exports with flat memory.  For traces that should *stay* out of core,
convert to the columnar format instead::

    python -m repro.sim.trace_io convert trace.csv.gz trace.col
    python -m repro.sim.trace_io info trace.col
    python -m repro.sim.trace_io convert trace.col back.csv

CSV↔columnar round-trips preserve the label vocabulary (columnar label
files hold the same first-appearance mapping :func:`load_csv` builds).
"""

from __future__ import annotations

import csv
import gzip
import io
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, TextIO, Union

import numpy as np

from repro.sim.trace import Trace

#: Rows accumulated per parse buffer before a new chunk is started.
_CSV_CHUNK = 1 << 16


def _open_text(path: str, mode: str) -> TextIO:
    """Open *path* for text I/O, gzip-compressed when it ends ``.gz``."""
    if path.endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="utf-8", newline="")
    return open(path, mode, encoding="utf-8", newline="")


@dataclass
class LoadedTrace:
    """A densified trace plus label mappings back to the source file."""

    trace: Trace
    page_labels: List[str]
    tenant_labels: List[str]

    def page_id(self, label: str) -> int:
        return self.page_labels.index(label)

    def tenant_id(self, label: str) -> int:
        return self.tenant_labels.index(label)


def load_csv(source: Union[str, TextIO], name: str = "csv-trace") -> LoadedTrace:
    """Read a ``page,tenant`` CSV into a dense :class:`Trace`.

    Pages and tenants are densified in first-appearance order.  A page
    appearing under two different tenants is an error (the model's
    ownership map is per page).  A path ending ``.gz`` is decompressed
    transparently.  Parsing is single-pass with chunked numpy request
    buffers: auxiliary memory beyond the returned trace is the id maps
    plus one 64 Ki-row chunk.
    """
    close = False
    if isinstance(source, str):
        fh: TextIO = _open_text(source, "r")
        close = True
    else:
        fh = source
    try:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            header = None
        cols = (
            {label.strip(): i for i, label in enumerate(header)}
            if header is not None
            else {}
        )
        if not {"page", "tenant"} <= cols.keys():
            raise ValueError(
                f"CSV must have 'page' and 'tenant' columns, got {header}"
            )
        pcol, tcol = cols["page"], cols["tenant"]
        page_ids: Dict[str, int] = {}
        tenant_ids: Dict[str, int] = {}
        owner_chunks: List[np.ndarray] = []
        owner_buf = np.empty(_CSV_CHUNK, dtype=np.int64)
        owner_fill = 0
        chunks: List[np.ndarray] = []
        buf = np.empty(_CSV_CHUNK, dtype=np.int64)
        fill = 0
        total = 0
        for lineno, row in enumerate(reader, start=2):
            if not row:  # blank line (csv yields an empty list)
                continue
            try:
                page_label = row[pcol]
                tenant_label = row[tcol]
            except IndexError:
                raise ValueError(f"line {lineno}: missing page/tenant") from None
            tid = tenant_ids.setdefault(tenant_label, len(tenant_ids))
            pid = page_ids.get(page_label)
            if pid is None:
                pid = page_ids[page_label] = len(page_ids)
                # First appearance fixes the owner (in pid order, so the
                # owner chunks concatenate straight into the array).
                owner_buf[owner_fill] = tid
                owner_fill += 1
                if owner_fill == _CSV_CHUNK:
                    owner_chunks.append(owner_buf)
                    owner_buf = np.empty(_CSV_CHUNK, dtype=np.int64)
                    owner_fill = 0
            else:
                nfull = len(owner_chunks) * _CSV_CHUNK
                known = (
                    owner_chunks[pid // _CSV_CHUNK][pid % _CSV_CHUNK]
                    if pid < nfull
                    else owner_buf[pid - nfull]
                )
                if known != tid:
                    raise ValueError(
                        f"line {lineno}: page {page_label!r} owned by two tenants"
                    )
            buf[fill] = pid
            fill += 1
            if fill == _CSV_CHUNK:
                chunks.append(buf)
                buf = np.empty(_CSV_CHUNK, dtype=np.int64)
                fill = 0
                total += _CSV_CHUNK
        total += fill
        if total == 0:
            raise ValueError("CSV contains no requests")
        chunks.append(buf[:fill])
        owner_chunks.append(owner_buf[:owner_fill])
        requests = np.concatenate(chunks)
        owners = np.concatenate(owner_chunks)
        trace = Trace(requests, owners, name=name)
        return LoadedTrace(
            trace=trace,
            page_labels=list(page_ids),
            tenant_labels=list(tenant_ids),
        )
    finally:
        if close:
            fh.close()


def save_csv(
    trace,
    target: Union[str, TextIO],
    page_labels: Optional[Sequence[str]] = None,
    tenant_labels: Optional[Sequence[str]] = None,
) -> None:
    """Write a trace as ``t,page,tenant`` rows.

    *trace* may be a :class:`Trace` or a columnar
    :class:`~repro.sim.colstore.TraceReader` — a reader is streamed
    chunk-by-chunk, so memory stays flat regardless of length.  Labels
    default to ``p<id>`` / ``tenant<id>``; pass the mappings from
    :class:`LoadedTrace` to round-trip external vocabulary.  A path
    ending ``.gz`` is gzip-compressed transparently.
    """
    if page_labels is not None and len(page_labels) < trace.num_pages:
        raise ValueError(f"need {trace.num_pages} page labels")
    if tenant_labels is not None and len(tenant_labels) < trace.num_users:
        raise ValueError(f"need {trace.num_users} tenant labels")
    owners = np.asarray(trace.owners)
    close = False
    if isinstance(target, str):
        fh: TextIO = _open_text(target, "w")
        close = True
    else:
        fh = target
    try:
        writer = csv.writer(fh)
        writer.writerow(["t", "page", "tenant"])
        t = 0
        for _t0, chunk in trace.batches(_CSV_CHUNK):
            tids = owners[chunk]
            for pid, tid in zip(chunk.tolist(), tids.tolist()):
                page = (
                    page_labels[pid] if page_labels is not None else f"p{pid}"
                )
                tenant = (
                    tenant_labels[tid]
                    if tenant_labels is not None
                    else f"tenant{tid}"
                )
                writer.writerow([t, page, tenant])
                t += 1
    finally:
        if close:
            fh.close()


def round_trip(trace: Trace) -> Trace:
    """save→load round trip (testing / format sanity).

    Loading densifies ids in first-appearance order, so the result is
    the original trace *up to relabelling*; it is bit-identical exactly
    when pages first appear in increasing id order and ownership blocks
    follow suit.  Access structure (hit/miss behaviour under any
    policy) is always preserved.
    """
    buf = io.StringIO()
    save_csv(trace, buf)
    buf.seek(0)
    return load_csv(buf, name=trace.name).trace


# ----------------------------------------------------------------------
# CLI: python -m repro.sim.trace_io {convert,info}
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    """CSV↔columnar conversion and columnar inspection.

    ``convert`` picks the direction from the source: a columnar trace
    directory exports to CSV (label vocabulary restored from the
    directory's label files), anything else ingests to columnar —
    ``page,tenant`` CSV by default, or a key-value access log with
    ``--kv-log``.  Both directions stream with bounded memory.
    """
    import argparse

    from repro.sim.colstore import (
        DEFAULT_SEGMENT_ROWS,
        convert_csv,
        convert_kv_log,
        is_columnar,
        open_trace,
    )

    parser = argparse.ArgumentParser(
        prog="repro-trace", description=main.__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    conv = sub.add_parser(
        "convert", help="CSV <-> columnar conversion (direction inferred)"
    )
    conv.add_argument("source", help="CSV path (.gz ok), kv log, or columnar dir")
    conv.add_argument("dest", help="output columnar dir or CSV path (.gz ok)")
    conv.add_argument(
        "--dtype", choices=("int32", "int64"), default="int32",
        help="page-id storage width for CSV->columnar",
    )
    conv.add_argument(
        "--segment-rows", type=int, default=DEFAULT_SEGMENT_ROWS,
        help="requests per columnar segment file",
    )
    conv.add_argument("--name", default=None, help="trace name in the header")
    conv.add_argument(
        "--no-labels", action="store_true",
        help="CSV->columnar: skip writing the label vocabulary files",
    )
    conv.add_argument(
        "--kv-log", action="store_true",
        help="ingest SOURCE as a delimited key-value access log "
        "(--key-col/--tenant-col pick the fields; ids are densified "
        "with a spillable map)",
    )
    conv.add_argument("--key-col", type=int, default=1)
    conv.add_argument("--tenant-col", type=int, default=4)
    conv.add_argument("--delimiter", default=",")
    conv.add_argument(
        "--limit", type=int, default=None,
        help="columnar->CSV: export only the first N requests",
    )

    info = sub.add_parser("info", help="print a columnar trace summary")
    info.add_argument("path")

    args = parser.parse_args(argv)

    if args.command == "info":
        reader = open_trace(args.path)
        print(
            f"{reader.name}: {reader.length} requests, "
            f"{reader.num_pages} pages, {reader.num_users} tenants, "
            f"dtype={reader.dtype}, "
            f"{reader.nbytes_per_request} bytes/request, "
            f"{reader.bytes_on_disk()} bytes on disk"
        )
        labels = reader.page_labels()
        print(f"labels: {'stored' if labels is not None else 'none'}")
        return 0

    if is_columnar(args.source):
        reader = open_trace(args.source)
        if args.limit is not None:
            reader = reader.head(args.limit)
        save_csv(
            reader,
            args.dest,
            page_labels=reader.page_labels(),
            tenant_labels=reader.tenant_labels(),
        )
        print(f"wrote {reader.length} requests -> {args.dest}")
        return 0

    if args.kv_log:
        reader = convert_kv_log(
            args.source,
            args.dest,
            key_col=args.key_col,
            tenant_col=args.tenant_col,
            delimiter=args.delimiter,
            name=args.name,
            dtype=args.dtype,
            segment_rows=args.segment_rows,
        )
    else:
        reader = convert_csv(
            args.source,
            args.dest,
            name=args.name,
            dtype=args.dtype,
            segment_rows=args.segment_rows,
            store_labels=not args.no_labels,
        )
    print(
        f"wrote {reader.length} requests "
        f"({reader.num_pages} pages, {reader.num_users} tenants, "
        f"{reader.nbytes_per_request} B/request) -> {args.dest}"
    )
    return 0


__all__ = ["LoadedTrace", "load_csv", "save_csv", "round_trip", "main"]


if __name__ == "__main__":
    sys.exit(main())
