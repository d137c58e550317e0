"""Unified telemetry for the reproduction: metrics, traces, invariants.

Real caching testbeds treat observability as the substrate every
experiment stands on; this package gives the simulator
(:mod:`repro.sim`) and the serving subsystem (:mod:`repro.serve`) one
shared layer:

* :mod:`repro.obs.registry` — a near-zero-overhead metrics registry
  (:class:`Counter` / :class:`Gauge` / :class:`Histogram` with
  log-bucketed latencies and per-tenant labels) that is a true no-op
  when disabled (``REPRO_OBS=off``);
* :mod:`repro.obs.tracing` — span tracing with JSONL event streams
  (serve pipeline stages, sim engine phases);
* :mod:`repro.obs.monitor` — :class:`InvariantMonitor`, live drift
  detection on ALG-DISCRETE's budget/KKT structure and per-tenant
  :math:`f_i(m_i)` / marginal-quote trajectories;
* :mod:`repro.obs.export` — Prometheus text exposition (served at
  ``/metrics``) and JSONL trace aggregation;
* :mod:`repro.obs.flight` — :class:`FlightRecorder`, a bounded
  ring buffer of per-request decision events (hit/miss, victim,
  budget before/after, fresh-budget charge) with JSONL auto-dump and
  :func:`replay_verify`, a deterministic bit-for-bit replay checker;
* :mod:`repro.obs.audit` — :class:`CompetitiveAuditor`, a streaming
  online-vs-offline cost audit exposing live ``audit_ratio`` /
  ``audit_theorem11_bound`` gauges for Theorem 1.1;
* :mod:`repro.obs.alerts` — :class:`AlertEngine`, declarative alert
  rules (threshold / absence / rate-of-change / multi-window
  burn-rate SLOs) evaluated on the Timeline tick with a
  pending→firing→resolved state machine and pluggable sinks;
* :mod:`repro.obs.httpd` — :class:`ObsHttpServer`, the stdlib-asyncio
  HTTP admin plane (``/metrics``, ``/health``, ``/ready``,
  ``/alerts``, ``/audit``, ``/timeline``, ``/stats``) attachable to
  serve and net owners: every read of a running owner's state.

``python -m repro.obs`` tails/aggregates JSONL traces, scrapes an
admin plane's metrics, and renders a live terminal dashboard
(``dash``) from it.

The :class:`Observability` bundle is the handle instrumented code
accepts: a registry, a tracer, and optional monitor / flight recorder
/ auditor.  Call sites default to :func:`default_observability`, whose
registry enablement follows ``REPRO_OBS`` and whose tracer is off
(tracing always requires an explicit sink).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.obs.alerts import (
    AbsenceRule,
    Alert,
    AlertEngine,
    AlertRule,
    BurnRateRule,
    CallbackSink,
    LogSink,
    RateOfChangeRule,
    ThresholdRule,
    net_rule_pack,
    serve_rule_pack,
)
from repro.obs.audit import AUDIT_MODES, CompetitiveAuditor
from repro.obs.distrib import (
    SpanContext,
    TraceNode,
    TraceTree,
    format_trace_tree,
    merge_spans,
    merge_traces,
    trace_report,
)
from repro.obs.export import (
    escape_label_value,
    parse_prometheus,
    read_jsonl,
    render_prometheus,
    sample_value,
    summarize_spans,
    unescape_label_value,
)
from repro.obs.httpd import ObsHttpServer, ObsHttpThread
from repro.obs.flight import (
    DecisionEvent,
    EVENT_FIELDS,
    FlightDump,
    FlightRecorder,
    ReplayCheck,
    ReplayMismatch,
    load_flight,
    replay_verify,
    verify_flight,
)
from repro.obs.monitor import (
    DriftFlag,
    InvariantMonitor,
    MonitoredRun,
    MonitorSample,
    watch_simulation,
)
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    OBS_ENV,
    Counter,
    Gauge,
    Histogram,
    LabelCardinalityError,
    MetricsRegistry,
    NULL_METRIC,
    RateWindow,
    exponential_buckets,
    obs_enabled_from_env,
)
from repro.obs.prof import SamplingProfiler, merge_folded, read_folded
from repro.obs.timeline import Timeline
from repro.obs.tracing import NULL_SPAN, NULL_TRACER, JsonlSink, ListSink, Span, Tracer


@dataclass
class Observability:
    """The bundle instrumented subsystems accept and thread through."""

    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    tracer: Tracer = field(default_factory=Tracer)
    monitor: Optional[InvariantMonitor] = None
    flight: Optional[FlightRecorder] = None
    auditor: Optional[CompetitiveAuditor] = None
    timeline: Optional[Timeline] = None

    @classmethod
    def disabled(cls) -> "Observability":
        """Everything off, regardless of the environment."""
        return cls(registry=MetricsRegistry(enabled=False), tracer=Tracer())

    @classmethod
    def enabled(
        cls,
        sink: object = None,
        monitor: Optional[InvariantMonitor] = None,
        flight: Optional[FlightRecorder] = None,
        auditor: Optional[CompetitiveAuditor] = None,
        timeline: Optional[Timeline] = None,
    ) -> "Observability":
        """Metrics on (regardless of env); tracing on iff *sink* given."""
        return cls(
            registry=MetricsRegistry(enabled=True),
            tracer=Tracer(sink),
            monitor=monitor,
            flight=flight,
            auditor=auditor,
            timeline=timeline,
        )

    @property
    def metrics_on(self) -> bool:
        return self.registry.enabled

    @property
    def tracing_on(self) -> bool:
        return self.tracer.enabled


_DEFAULT: Optional[Observability] = None


def default_observability() -> Observability:
    """The process-wide default bundle (env-gated registry, no tracer).

    Lazily constructed once; replace with :func:`set_default_observability`
    (tests) to redirect un-parameterized call sites.
    """
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = Observability()
    return _DEFAULT


def set_default_observability(obs: Optional[Observability]) -> None:
    """Override (or with ``None``, reset) the process-wide default."""
    global _DEFAULT
    _DEFAULT = obs


__all__ = [
    "AUDIT_MODES",
    "AbsenceRule",
    "Alert",
    "AlertEngine",
    "AlertRule",
    "BurnRateRule",
    "CallbackSink",
    "CompetitiveAuditor",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "DecisionEvent",
    "DriftFlag",
    "EVENT_FIELDS",
    "FlightDump",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "InvariantMonitor",
    "JsonlSink",
    "LabelCardinalityError",
    "ListSink",
    "LogSink",
    "MetricsRegistry",
    "MonitorSample",
    "MonitoredRun",
    "NULL_METRIC",
    "NULL_SPAN",
    "NULL_TRACER",
    "OBS_ENV",
    "ObsHttpServer",
    "ObsHttpThread",
    "Observability",
    "RateOfChangeRule",
    "RateWindow",
    "ReplayCheck",
    "ReplayMismatch",
    "SamplingProfiler",
    "Span",
    "SpanContext",
    "ThresholdRule",
    "Timeline",
    "TraceNode",
    "TraceTree",
    "Tracer",
    "default_observability",
    "escape_label_value",
    "exponential_buckets",
    "format_trace_tree",
    "load_flight",
    "merge_folded",
    "merge_spans",
    "merge_traces",
    "net_rule_pack",
    "obs_enabled_from_env",
    "parse_prometheus",
    "read_folded",
    "read_jsonl",
    "render_prometheus",
    "replay_verify",
    "sample_value",
    "serve_rule_pack",
    "set_default_observability",
    "summarize_spans",
    "trace_report",
    "unescape_label_value",
    "verify_flight",
    "watch_simulation",
]
