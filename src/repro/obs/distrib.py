"""Distributed tracing: span context propagation and trace merging.

The serve and network layers are multi-process (``ShardWorkerPool``
routes batches to shard workers as framed pipe exchanges;
``repro.net.parallel`` chains one process per cache level).  The
in-process tracer (:mod:`repro.obs.tracing`) links spans through a
contextvar, which stops at the process boundary: a request crossing the
router, a worker, and the reply path leaves disconnected fragments.

This module closes the gap with three small pieces:

* **Span context** — a compact ``(trace_id, parent span_id, sampled)``
  triple that rides the existing transports verbatim: two extra little-
  endian int64 fields in the worker data-frame header
  (``serve/workers.py``), and one extra tuple element on the pickled
  inter-node link messages (``net/parallel.py``).  ``trace_id == 0``
  means *not sampled* — the zero context costs the 16 header bytes and
  nothing else, so the wire format is identical whether tracing is on
  or off.
* **Namespaced span ids** — each process draws span ids from its own
  ``PROC_SHIFT``-bit namespace (:func:`span_ids`), so ids from the
  router (namespace 0), shard workers, and network nodes never collide
  and the merged tree needs no id rewriting.
* **Worker-local spill + parent-side merge** — each shard worker and
  network node appends its spans to its own JSONL file (:func:`spill_path`
  names them ``<base>.w<i>`` next to the parent's ``--trace-jsonl``
  file) — shard worker 0 too, though it runs in the server process, so
  the files and id namespaces are the same at any worker count; after
  the run, :func:`merge_traces` reads all the files, groups span events
  by ``trace`` id, and rebuilds each request tree from the propagated
  parent ids.  ``python -m repro.obs trace <jsonl...>`` is the CLI
  wrapper (merge, report orphans, render trees).

The wire format (documented for DESIGN.md and the worker frame layout):

========  =======================================================
field     meaning
========  =======================================================
trace_id  int64 > 0; ``0`` disables tracing for the batch.  The
          serve router derives it deterministically from the batch
          clock (``t0 + 1``); network traces use the batch base.
parent    int64 span id of the emitting parent span (namespaced).
========  =======================================================

The *sampled* flag is carried by ``trace_id != 0`` rather than a third
field, which keeps the header layout at two words.
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.obs.tracing import Tracer

#: Bits reserved for the per-process span counter.  Namespace ``p``
#: owns ids ``[p << PROC_SHIFT, (p+1) << PROC_SHIFT)``; 48 bits of
#: counter is inexhaustible for any run, and 15 bits of namespace
#: covers every worker/node fleet we spawn.
PROC_SHIFT = 48

#: The zero (disabled) context: rides the wire when tracing is off.
NULL_CONTEXT: Tuple[int, int] = (0, 0)


class SpanContext(tuple):
    """``(trace_id, span_id)`` — the propagated parent context.

    Subclassing :class:`tuple` keeps it picklable, hashable, and free
    to destructure at the transport layer (the worker framing packs
    the two ints straight into the data-frame header).
    """

    __slots__ = ()

    def __new__(cls, trace_id: int, span_id: int) -> "SpanContext":
        return super().__new__(cls, (int(trace_id), int(span_id)))

    @property
    def trace_id(self) -> int:
        return self[0]

    @property
    def span_id(self) -> int:
        return self[1]

    @property
    def sampled(self) -> bool:
        return self[0] != 0

    def child(self, span_id: int) -> "SpanContext":
        """The context a child span propagates further downstream."""
        return SpanContext(self[0], span_id)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SpanContext(trace_id={self[0]}, span_id={self[1]})"


def span_ids(proc: int) -> Iterator[int]:
    """Span-id counter for process namespace *proc* (0 = parent).

    The in-process :class:`~repro.obs.tracing.Tracer` counts from 1,
    i.e. it already lives in namespace 0; remote processes install
    ``span_ids(worker_id + 1)`` so merged ids never collide.
    """
    if proc < 0 or proc >= (1 << 15):
        raise ValueError(f"process namespace out of range: {proc}")
    return itertools.count((proc << PROC_SHIFT) + 1)


def install_namespace(tracer: Tracer, proc: int) -> None:
    """Re-seed *tracer*'s span-id counter into namespace *proc*."""
    tracer._ids = span_ids(proc)


def spill_path(base: str, proc: int) -> str:
    """Worker-local JSONL spill file for process namespace *proc*.

    ``<base>.w<proc-1>`` — sibling files of the parent's trace, so one
    glob (or the CLI's multi-path ``trace`` subcommand) picks up the
    whole fleet.
    """
    return f"{base}.w{proc - 1}"


def emit_span(
    tracer: Tracer,
    name: str,
    dur: float,
    *,
    trace_id: int,
    span_id: int,
    parent_id: Optional[int] = None,
    ts: Optional[float] = None,
    **attrs: object,
) -> None:
    """Emit a span with explicit ids (cross-process linkage).

    Unlike :meth:`Tracer.record_span`, the caller controls the span id
    (it may already have been propagated downstream as a parent) and
    the parent id (it may have arrived over the wire).  The event
    schema is the standard one plus a ``trace`` field keying the merge.
    """
    if not tracer.enabled or tracer.sink is None:
        return
    tracer._emit(
        {
            "type": "span",
            "name": name,
            "span_id": span_id,
            "parent_id": parent_id,
            "trace": trace_id,
            "ts": (time.time() - dur) if ts is None else ts,
            "dur": dur,
            "attrs": attrs,
        }
    )


# ----------------------------------------------------------------------
# Parent-side merge
# ----------------------------------------------------------------------
class TraceNode:
    """One span in a merged trace tree."""

    __slots__ = ("event", "children")

    def __init__(self, event: Dict[str, object]) -> None:
        self.event = event
        self.children: List["TraceNode"] = []

    @property
    def name(self) -> str:
        return str(self.event.get("name"))

    @property
    def span_id(self) -> int:
        return int(self.event.get("span_id", 0))  # type: ignore[arg-type]

    @property
    def dur(self) -> float:
        return float(self.event.get("dur", 0.0))  # type: ignore[arg-type]

    def walk(self) -> Iterator[Tuple[int, "TraceNode"]]:
        """Depth-first ``(depth, node)`` walk."""
        stack: List[Tuple[int, TraceNode]] = [(0, self)]
        while stack:
            depth, node = stack.pop()
            yield depth, node
            for child in reversed(node.children):
                stack.append((depth + 1, child))

    def size(self) -> int:
        return 1 + sum(c.size() for c in self.children)


class TraceTree:
    """All spans sharing one trace id, linked parent → children."""

    __slots__ = ("trace_id", "roots", "orphans")

    def __init__(
        self,
        trace_id: int,
        roots: List[TraceNode],
        orphans: List[TraceNode],
    ) -> None:
        self.trace_id = trace_id
        self.roots = roots
        self.orphans = orphans

    @property
    def complete(self) -> bool:
        """True iff every span found its parent under a single root."""
        return len(self.roots) == 1 and not self.orphans

    def size(self) -> int:
        return sum(r.size() for r in self.roots) + sum(
            o.size() for o in self.orphans
        )


def merge_spans(events: Iterable[Dict[str, object]]) -> List[TraceTree]:
    """Group span events by ``trace`` id and rebuild each tree.

    Events without a ``trace`` field (purely local spans) are ignored;
    within a trace, a span whose ``parent_id`` is missing from the
    event set is an *orphan* root candidate — :attr:`TraceTree.orphans`
    holds those with a non-null parent (a genuinely broken link), while
    null-parent spans are the intended roots.
    """
    by_trace: Dict[int, List[Dict[str, object]]] = {}
    for event in events:
        if event.get("type") != "span":
            continue
        trace = event.get("trace")
        if not trace:
            continue
        by_trace.setdefault(int(trace), []).append(event)  # type: ignore[arg-type]

    trees: List[TraceTree] = []
    for trace_id in sorted(by_trace):
        group = by_trace[trace_id]
        nodes = {int(e["span_id"]): TraceNode(e) for e in group}  # type: ignore[index]
        roots: List[TraceNode] = []
        orphans: List[TraceNode] = []
        for node in nodes.values():
            parent = node.event.get("parent_id")
            if parent is None:
                roots.append(node)
            elif int(parent) in nodes:  # type: ignore[arg-type]
                nodes[int(parent)].children.append(node)  # type: ignore[arg-type]
            else:
                orphans.append(node)
        for node in nodes.values():
            node.children.sort(key=lambda n: float(n.event.get("ts", 0.0)))  # type: ignore[arg-type]
        roots.sort(key=lambda n: float(n.event.get("ts", 0.0)))  # type: ignore[arg-type]
        trees.append(TraceTree(trace_id, roots, orphans))
    return trees


def merge_traces(paths: Sequence[str]) -> List[TraceTree]:
    """Read JSONL span files (parent + worker spills) and merge."""
    from repro.obs.export import read_jsonl

    events: List[Dict[str, object]] = []
    for path in paths:
        events.extend(read_jsonl(path))
    return merge_spans(events)


def format_trace_tree(tree: TraceTree, *, unit: str = "ms") -> str:
    """Render one merged trace as an indented ASCII tree."""
    scale = 1e3 if unit == "ms" else (1e6 if unit == "us" else 1.0)
    lines = [f"trace {tree.trace_id}"]

    def fmt(node: TraceNode, depth: int) -> None:
        attrs = node.event.get("attrs") or {}
        extra = ""
        if isinstance(attrs, dict) and attrs:
            inner = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
            extra = f"  [{inner}]"
        lines.append(
            f"{'  ' * (depth + 1)}{node.name}  "
            f"{node.dur * scale:.3f}{unit}{extra}"
        )
        for child in node.children:
            fmt(child, depth + 1)

    for root in tree.roots:
        fmt(root, 0)
    for orphan in tree.orphans:
        lines.append(f"  (orphan, parent {orphan.event.get('parent_id')}):")
        fmt(orphan, 1)
    return "\n".join(lines)


def trace_report(trees: Sequence[TraceTree]) -> Dict[str, object]:
    """Aggregate link-integrity stats over merged trees."""
    spans = sum(t.size() for t in trees)
    return {
        "traces": len(trees),
        "spans": spans,
        "complete": sum(1 for t in trees if t.complete),
        "orphan_spans": sum(len(t.orphans) for t in trees),
        "multi_root": sum(1 for t in trees if len(t.roots) > 1),
    }


__all__ = [
    "NULL_CONTEXT",
    "PROC_SHIFT",
    "SpanContext",
    "TraceNode",
    "TraceTree",
    "emit_span",
    "format_trace_tree",
    "install_namespace",
    "merge_spans",
    "merge_traces",
    "span_ids",
    "spill_path",
    "trace_report",
]
