"""Live terminal dashboard for a running cache server or network.

``python -m repro.obs dash --port P`` reads the HTTP admin plane at
*P* (:mod:`repro.obs.httpd`: ``/stats``, ``/metrics``, ``/audit``,
``/alerts``) every ``--interval`` seconds and renders:

* totals and windowed rates (requests/hits/misses/cost per second);
* a per-tenant table (hits, misses, running cost, marginal quote) with
  a per-tenant miss-rate sparkline over the scrape history;
* the audited competitive ratio against the live Theorem-1.1 bound
  gauge (when the server carries a
  :class:`~repro.obs.audit.CompetitiveAuditor`), as a bounded bar plus
  the ratio's history sparkline;
* queue depth and apply-latency histogram sparklines;
* an ALERTS panel (active alerts with state, severity, age, value),
  omitted when the plane has no alert engine;
* timeline trends (request rate, windowed apply p95) and a per-node
  panel when the scraped registry carries ``net_node_*`` series — the
  scrape loop feeds every parsed frame into a
  :class:`~repro.obs.timeline.Timeline`, so the remote dashboard sees
  the exact series an in-process timeline would.

Each read is best effort: a route the plane does not serve leaves its
panel out, so a :class:`~repro.net.netsim.NetworkSim` plane (metrics,
alerts, no stats) renders its per-node panel.

Rendering is split from transport so it is testable offline:
:func:`render_dashboard` is a pure function from a list of
:class:`DashFrame` snapshots (plus an optional fed timeline) to a
string (``tests/test_obs_dash.py`` feeds it canned frames and reads
live planes); :func:`run_dash` owns the scrape loop and the ANSI
screen clearing.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.httpd import http_get
from repro.obs.timeline import Timeline

SPARK_CHARS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 24) -> str:
    """Map the last *width* values onto ``▁..█`` (empty-safe)."""
    tail = [float(v) for v in values][-width:]
    if not tail:
        return ""
    lo, hi = min(tail), max(tail)
    if hi <= lo:
        return SPARK_CHARS[0] * len(tail)
    span = hi - lo
    out = []
    for v in tail:
        idx = int((v - lo) / span * (len(SPARK_CHARS) - 1))
        out.append(SPARK_CHARS[idx])
    return "".join(out)


def ratio_bar(ratio: float, bound_ratio: float, width: int = 40) -> str:
    """Render ``ratio`` on a 0..bound_ratio axis: ``[####----] |``.

    The right edge is the Theorem-1.1 bound (the audited ratio should
    never reach it); a ratio beyond the bound overflows with ``!``.
    """
    if bound_ratio <= 0 or ratio != ratio:  # degenerate / NaN
        return "[" + " " * width + "]"
    frac = ratio / bound_ratio
    fill = int(min(frac, 1.0) * width)
    bar = "#" * fill + "-" * (width - fill)
    return "[" + bar + ("]!" if frac > 1.0 else "] ")


@dataclass(frozen=True)
class DashFrame:
    """One scrape: the plane's documents (audit/alerts may be absent)."""

    stats: Dict[str, object]
    metrics: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]
    audit: Optional[Dict[str, object]] = None
    ts: Optional[float] = None
    alerts: Optional[Dict[str, object]] = None


async def fetch_frame(host: str, port: int) -> DashFrame:
    """Read one :class:`DashFrame` from the HTTP admin plane at
    *host*:*port*.

    Every read is best effort: a route that does not answer 200 leaves
    its panel out — ``audit`` and ``alerts`` are ``None`` without an
    auditor or alert engine, and a plane without ``/stats`` (a
    :class:`~repro.net.netsim.NetworkSim`) reads as empty stats.
    """
    from repro.obs.export import parse_prometheus

    async def read(path: str) -> Optional[bytes]:
        status, _headers, body = await http_get(host, port, path)
        return body if status == 200 else None

    stats = await read("/stats")
    metrics = await read("/metrics")
    audit = await read("/audit")
    alerts = await read("/alerts")
    return DashFrame(
        stats=json.loads(stats) if stats is not None else {},
        metrics=parse_prometheus(metrics.decode()) if metrics is not None else {},
        audit=json.loads(audit) if audit is not None else None,
        ts=time.time(),
        alerts=json.loads(alerts) if alerts is not None else None,
    )


def _latency_counts(
    metrics: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float],
    name: str = "serve_apply_seconds",
) -> List[Tuple[str, float]]:
    """Per-bucket (non-cumulative) counts of a histogram, le-ordered."""
    buckets: List[Tuple[float, str, float]] = []
    for (metric, labels), value in metrics.items():
        if metric != f"{name}_bucket":
            continue
        le = dict(labels).get("le", "+Inf")
        key = float("inf") if le == "+Inf" else float(le)
        buckets.append((key, le, value))
    buckets.sort()
    out: List[Tuple[str, float]] = []
    prev = 0.0
    for _key, le, cum in buckets:
        out.append((le, cum - prev))
        prev = cum
    return out


def _node_rows(
    metrics: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float],
) -> List[Tuple[str, Dict[str, float]]]:
    """Per-node ``net_node_*`` values keyed by the ``node`` label."""
    rows: Dict[str, Dict[str, float]] = {}
    for (metric, labels), value in metrics.items():
        if not metric.startswith("net_node_"):
            continue
        node = dict(labels).get("node")
        if node is None:
            continue
        rows.setdefault(node, {})[metric] = value
    return sorted(rows.items())


def render_dashboard(
    frames: Sequence[DashFrame],
    width: int = 78,
    *,
    timeline: Optional[Timeline] = None,
) -> str:
    """Render the newest frame (history feeds the sparklines).

    With a *timeline* (fed the same parsed frames — :func:`run_dash`
    does this), adds derived trend rows: request rate, windowed apply
    p95, and per-node hit rates for ``net_node_*`` series.
    """
    if not frames:
        return "(no data yet)"
    cur = frames[-1]
    stats = cur.stats
    lines: List[str] = []
    rule = "─" * width

    lines.append(
        f"{stats.get('server', '?')} · policy={stats.get('policy', '?')} "
        f"k={stats.get('k', '?')} shards={stats.get('num_shards', '?')} "
        f"t={stats.get('time', 0)}"
    )
    lines.append(rule)

    requests = int(stats.get("requests", 0))
    hits = int(stats.get("hits", 0))
    misses = int(stats.get("misses", 0))
    ratio = hits / requests if requests else 0.0
    rates = stats.get("rates") or {}
    lines.append(
        f"requests {requests:>10,}   hits {hits:>10,}   "
        f"misses {misses:>10,}   hit-rate {ratio:6.2%}"
    )
    rate_bits = [
        f"{key.removesuffix('_per_sec')}/s {value:,.0f}"
        for key, value in sorted(rates.items())
        if key.endswith("_per_sec")
    ]
    if rate_bits:
        window = float(rates.get("window_seconds", 0.0))
        lines.append(f"rates ({window:.1f}s window): " + "  ".join(rate_bits))

    depth_hist = [float(f.stats.get("queue_depth", 0)) for f in frames]
    lines.append(
        f"queue depth {int(depth_hist[-1]):>6}  {sparkline(depth_hist)}"
    )

    lat = _latency_counts(cur.metrics)
    if lat:
        counts = [c for _le, c in lat]
        lines.append(
            f"apply latency histogram ({int(sum(counts))} obs)  "
            f"{sparkline(counts, width=len(counts))}"
        )

    if timeline is not None and len(timeline) >= 2:
        rate = timeline.trend("serve_requests_total", rate=True)
        if rate:
            lines.append(f"req/s trend {rate[-1]:>10,.0f}  {sparkline(rate)}")
        p95 = [
            v
            for _, v in timeline.quantile_series("serve_apply_seconds", 0.95)
        ]
        if p95:
            lines.append(
                f"apply p95 (windowed) {p95[-1] * 1e6:>9.0f}us"
                f"  {sparkline(p95)}"
            )

    node_rows = _node_rows(cur.metrics)
    if node_rows:
        lines.append(rule)
        lines.append(
            f"{'node':>10} {'hits':>10} {'misses':>10} "
            f"{'rejected':>9} {'occ':>8}  hits/s trend"
        )
        for node, row in node_rows:
            trend = (
                timeline.trend(
                    "net_node_hits_total", {"node": node}, rate=True
                )
                if timeline is not None
                else []
            )
            lines.append(
                f"{node:>10} {int(row.get('net_node_hits_total', 0)):>10,} "
                f"{int(row.get('net_node_misses_total', 0)):>10,} "
                f"{int(row.get('net_node_rejected_total', 0)):>9,} "
                f"{int(row.get('net_node_occupancy', 0)):>8,}"
                f"  {sparkline(trend)}"
            )

    tenants = stats.get("tenants") or []
    if tenants:
        lines.append(rule)
        lines.append(
            f"{'tenant':>6} {'hits':>10} {'misses':>10} "
            f"{'cost':>12} {'quote':>10}  misses over time"
        )
        for row in tenants:
            tid = int(row.get("tenant", 0))
            history = [
                float(f.stats["tenants"][tid]["misses"])
                for f in frames
                if len(f.stats.get("tenants") or []) > tid
            ]
            deltas = [
                b - a for a, b in zip(history, history[1:])
            ] or history
            cost = row.get("cost")
            quote = row.get("marginal_quote")
            lines.append(
                f"{tid:>6} {int(row.get('hits', 0)):>10,} "
                f"{int(row.get('misses', 0)):>10,} "
                f"{(f'{cost:12.1f}' if cost is not None else ' ' * 12)} "
                f"{(f'{quote:10.2f}' if quote is not None else ' ' * 10)}"
                f"  {sparkline(deltas)}"
            )

    if cur.audit is not None:
        lines.append(rule)
        audit = cur.audit
        ratio_v = float(audit.get("audit_ratio", 0.0))
        online = float(audit.get("audit_online_cost", 0.0))
        offline = float(audit.get("audit_offline_cost", 0.0))
        bound = float(audit.get("audit_theorem11_bound", 0.0))
        bound_ratio = bound / offline if offline > 0 else float("inf")
        holds = bool(audit.get("bound_holds", True))
        lines.append(
            f"Theorem 1.1 audit ({audit.get('mode', '?')}, "
            f"window={audit.get('window', '?')}, "
            f"processed={audit.get('processed', 0)}, "
            f"pending={audit.get('pending', 0)})"
        )
        lines.append(
            f"  online cost {online:,.1f}  baseline {offline:,.1f}  "
            f"bound {bound:,.1f}  {'OK' if holds else 'VIOLATED'}"
        )
        if bound_ratio != float("inf"):
            lines.append(
                f"  ratio {ratio_v:8.3f} vs bound-ratio {bound_ratio:8.3f}  "
                f"{ratio_bar(ratio_v, bound_ratio)}"
            )
        else:
            lines.append(f"  ratio {ratio_v:8.3f} (baseline still zero)")
        ratio_hist = [
            float(f.audit.get("audit_ratio", 0.0))
            for f in frames
            if f.audit is not None
        ]
        lines.append(f"  ratio history  {sparkline(ratio_hist)}")

    # ALERTS panel — omitted entirely when the plane has no alert
    # engine (alerts is None: /alerts absent), so plain deployments
    # render exactly as before.
    if cur.alerts is not None:
        lines.append(rule)
        alerts = cur.alerts
        if not alerts.get("enabled", True):
            lines.append("ALERTS: engine disabled (REPRO_OBS=off)")
        else:
            active = list(alerts.get("active") or [])
            resolved = list(alerts.get("resolved") or [])
            firing = sum(1 for a in active if a.get("state") == "firing")
            pending = len(active) - firing
            lines.append(
                f"ALERTS: {firing} firing  {pending} pending  "
                f"{len(resolved)} resolved  "
                f"(rules {len(alerts.get('rules') or [])}, "
                f"evals {int(alerts.get('evaluations', 0))})"
            )
            now = cur.ts if cur.ts is not None else time.time()
            for a in active[:8]:
                age = max(0.0, now - float(a.get("since", now)))
                labels = ",".join(
                    f"{k}={v}"
                    for k, v in sorted((a.get("labels") or {}).items())
                )
                lines.append(
                    f"  {str(a.get('state', '?')):>7} "
                    f"{str(a.get('severity', '?')):>8} "
                    f"{str(a.get('rule', '?')):<26} "
                    f"age {age:7.1f}s  value {float(a.get('value', 0.0)):g}"
                    + (f"  [{labels}]" if labels else "")
                )
            if len(active) > 8:
                lines.append(f"  ... and {len(active) - 8} more")

    return "\n".join(lines)


async def _dash_loop(
    host: str,
    port: int,
    interval: float,
    iterations: Optional[int],
    clear: bool,
    history: int = 120,
) -> int:
    frames: List[DashFrame] = []
    timeline = Timeline(capacity=max(2, history))
    n = 0
    while iterations is None or n < iterations:
        frame = await fetch_frame(host, port)
        frames.append(frame)
        del frames[:-history]
        timeline.ingest(frame.ts, frame.metrics)
        text = render_dashboard(frames, timeline=timeline)
        if clear:
            print("\x1b[2J\x1b[H" + text, flush=True)
        else:
            print(text, flush=True)
        n += 1
        if iterations is not None and n >= iterations:
            break
        await asyncio.sleep(interval)
    return 0


def run_dash(
    host: str,
    port: int,
    interval: float = 1.0,
    iterations: Optional[int] = None,
    clear: bool = True,
) -> int:
    """Run the dashboard loop against the HTTP admin plane at
    *host*:*port* (Ctrl-C to stop when unbounded)."""
    try:
        return asyncio.run(_dash_loop(host, port, interval, iterations, clear))
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return 0


__all__ = [
    "DashFrame",
    "fetch_frame",
    "ratio_bar",
    "render_dashboard",
    "run_dash",
    "sparkline",
]
