"""Exposition and trace post-processing.

* :func:`render_prometheus` — serialize a
  :class:`~repro.obs.registry.MetricsRegistry` (direct families and
  scrape-time collectors) in the Prometheus text exposition format
  (version 0.0.4: ``# HELP`` / ``# TYPE`` comments, ``name{labels}
  value`` samples, histogram ``_bucket``/``_sum``/``_count`` series).
* :func:`parse_prometheus` — a strict parser for the same format,
  returning ``{(name, (("label","value"),...)): value}``.  Used by the
  serve tests ("``/metrics`` output must parse") and by the
  CLI's ``scrape`` subcommand; it rejects malformed lines rather than
  skipping them, so a parse success is a real format guarantee.
* :func:`read_jsonl` / :func:`summarize_spans` — load a JSONL trace
  stream and aggregate spans into per-name latency tables (count,
  total, mean, p50/p95, max), the ``python -m repro.obs summary`` view.
"""

from __future__ import annotations

import json
import math
import re
from typing import Dict, Iterable, List, Tuple, Union

from repro.obs.registry import MetricsRegistry, format_value

#: Parsed sample key: (metric name, sorted (label, value) pairs).
SampleKey = Tuple[str, Tuple[Tuple[str, str], ...]]

#: Content-Type for the text exposition format this module renders —
#: what the HTTP admin plane's ``/metrics`` endpoint advertises.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^{}]*)\})?"
    r"\s+(?P<value>[^\s]+)"
    r"(?:\s+(?P<timestamp>-?\d+))?$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
_UNESCAPE_MAP = {"n": "\n", '"': '"', "\\": "\\"}


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text format (0.0.4):
    backslash, double quote, and newline — in that order, so already
    escaped sequences are not double-escaped."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def unescape_label_value(value: str) -> str:
    """Invert :func:`escape_label_value` in a single pass.

    A sequential ``str.replace`` chain is *not* an inverse: rendering
    the literal two characters backslash-n yields ``\\\\n``, which a
    chained ``\\n -> newline`` pass would corrupt before the ``\\\\``
    pass sees it.  Scanning escape-by-escape round-trips every value.
    Raises :class:`ValueError` on a dangling backslash or an escape
    outside ``\\n`` / ``\\"`` / ``\\\\``.
    """
    if "\\" not in value:
        return value
    out: List[str] = []
    i, n = 0, len(value)
    while i < n:
        ch = value[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= n:
            raise ValueError(f"dangling backslash in label value {value!r}")
        nxt = value[i + 1]
        if nxt not in _UNESCAPE_MAP:
            bad = "\\" + nxt
            raise ValueError(
                f"invalid escape {bad!r} in label value {value!r}"
            )
        out.append(_UNESCAPE_MAP[nxt])
        i += 2
    return "".join(out)


def _render_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{escape_label_value(str(v))}"' for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def render_prometheus(registry: MetricsRegistry) -> str:
    """Serialize *registry* as Prometheus text exposition."""
    lines: List[str] = []

    for family in registry.families():
        kind = family.kind
        if family.help:
            lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {kind}")
        for label_values, child in sorted(family.children()):
            labels = dict(zip(family.label_names, label_values))
            for suffix, value in child.samples():  # type: ignore[attr-defined]
                if suffix.startswith("_bucket{"):
                    # Histogram bucket: merge the le label with family labels.
                    le = suffix[len('_bucket{le="') : -2]
                    merged = dict(labels)
                    merged["le"] = le
                    lines.append(
                        f"{family.name}_bucket{_render_labels(merged)} "
                        f"{format_value(value)}"
                    )
                else:
                    lines.append(_plain_sample(family.name, suffix, labels, value))

    for name, kind, help_text, samples in registry.collect():
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        for labels, value in samples:
            lines.append(f"{name}{_render_labels(labels)} {format_value(value)}")

    return "\n".join(lines) + "\n" if lines else ""


def _plain_sample(
    name: str, suffix: str, labels: Dict[str, str], value: float
) -> str:
    """One non-bucket sample line: ``name[_sum|_count]{labels} value``."""
    return f"{name}{suffix}{_render_labels(labels)} {format_value(value)}"


def parse_prometheus(text: str) -> Dict[SampleKey, float]:
    """Parse Prometheus text exposition into ``{(name, labels): value}``.

    Strict: any line that is neither blank, a ``#`` comment, nor a
    well-formed sample raises :class:`ValueError` with the offending
    line — so "parses" means the whole document is format-conformant.
    """
    out: Dict[SampleKey, float] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        m = _SAMPLE_RE.match(stripped)
        if m is None:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        labels: Dict[str, str] = {}
        raw = m.group("labels")
        if raw:
            consumed = 0
            for lm in _LABEL_RE.finditer(raw):
                try:
                    labels[lm.group(1)] = unescape_label_value(lm.group(2))
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: {exc}") from None
                consumed += len(lm.group(0))
            leftover = re.sub(r"[,\s]", "", raw)
            matched = re.sub(
                r"[,\s]", "", "".join(lm.group(0) for lm in _LABEL_RE.finditer(raw))
            )
            if leftover != matched:
                raise ValueError(f"line {lineno}: malformed labels {raw!r}")
        value_str = m.group("value")
        try:
            value = float(value_str.replace("+Inf", "inf").replace("-Inf", "-inf"))
        except ValueError:
            raise ValueError(
                f"line {lineno}: malformed value {value_str!r}"
            ) from None
        key: SampleKey = (m.group("name"), tuple(sorted(labels.items())))
        if key in out:
            raise ValueError(f"line {lineno}: duplicate sample {key}")
        out[key] = value
    return out


def sample_value(
    samples: Dict[SampleKey, float], name: str, **labels: object
) -> float:
    """Convenience lookup into :func:`parse_prometheus` output."""
    key: SampleKey = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
    return samples[key]


# ----------------------------------------------------------------------
# JSONL traces
# ----------------------------------------------------------------------
def read_jsonl(path_or_lines: Union[str, Iterable[str]]) -> List[Dict[str, object]]:
    """Load a JSONL event stream (path or iterable of lines)."""
    if isinstance(path_or_lines, str):
        with open(path_or_lines, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    else:
        lines = list(path_or_lines)
    events: List[Dict[str, object]] = []
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {lineno}: invalid JSON ({exc})") from None
        if not isinstance(event, dict):
            raise ValueError(f"line {lineno}: expected an object, got {event!r}")
        events.append(event)
    return events


def summarize_spans(
    events: Iterable[Dict[str, object]]
) -> List[Dict[str, object]]:
    """Aggregate span events into per-name latency rows.

    Returns rows sorted by total time descending:
    ``{"name", "count", "total_s", "mean_s", "p50_s", "p95_s", "p99_s",
    "max_s"}``.
    """
    durs: Dict[str, List[float]] = {}
    for event in events:
        if event.get("type") != "span":
            continue
        name = str(event.get("name"))
        durs.setdefault(name, []).append(float(event.get("dur", 0.0)))
    rows: List[Dict[str, object]] = []
    for name, values in durs.items():
        values.sort()
        n = len(values)
        rows.append(
            {
                "name": name,
                "count": n,
                "total_s": sum(values),
                "mean_s": sum(values) / n,
                "p50_s": values[max(0, math.ceil(0.50 * n) - 1)],
                "p95_s": values[max(0, math.ceil(0.95 * n) - 1)],
                "p99_s": values[max(0, math.ceil(0.99 * n) - 1)],
                "max_s": values[-1],
            }
        )
    rows.sort(key=lambda r: r["total_s"], reverse=True)  # type: ignore[arg-type]
    return rows


__all__ = [
    "PROMETHEUS_CONTENT_TYPE",
    "SampleKey",
    "escape_label_value",
    "parse_prometheus",
    "read_jsonl",
    "render_prometheus",
    "sample_value",
    "summarize_spans",
    "unescape_label_value",
]
