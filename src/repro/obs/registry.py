"""Near-zero-overhead metrics registry (Prometheus-flavoured).

A :class:`MetricsRegistry` hands out :class:`Counter` / :class:`Gauge` /
:class:`Histogram` families addressed by name + label names, rendered
on demand in the Prometheus text exposition format (see
:func:`repro.obs.export.render_prometheus`).  Two properties make it
safe to wire into the engine and serving hot paths:

* **Disabled is free.**  A registry built with ``enabled=False`` (or
  under ``REPRO_OBS=off``) returns one shared :data:`NULL_METRIC`
  singleton for every metric request: ``inc``/``set``/``observe`` are
  empty methods and ``labels(...)`` returns the singleton itself, so an
  instrumented call site costs one attribute lookup and one no-op call
  — measured below 3% on the ``engine="fast"`` hot path
  (``benchmarks/bench_obs.py``).
* **Bounded cardinality.**  Each family caps the number of distinct
  label sets (``max_label_sets``, default 256); exceeding it raises
  :class:`LabelCardinalityError` instead of silently growing an
  unbounded time series set — the classic per-tenant-label footgun.

Collectors (:meth:`MetricsRegistry.register_collector`) let a subsystem
export state it already tracks (the serve path's
:class:`~repro.serve.accounting.CostLedger` counters) without paying
for double bookkeeping on the hot path: the callback runs only at
scrape time.  Collectors are registered and rendered even on a
*disabled* registry — exposition stays truthful under ``REPRO_OBS=off``
because it reads ground-truth state, not instrumentation.

:class:`RateWindow` is the sliding-window companion used by the serve
``/stats`` snapshot: push monotone totals as requests flow, read windowed
per-second rates on demand.
"""

from __future__ import annotations

import math
import os
import re
from collections import deque
from typing import Callable, Deque, Dict, Iterable, List, Optional, Sequence, Tuple

#: Environment variable gating default observability (``off`` disables).
OBS_ENV = "REPRO_OBS"

_DISABLED_VALUES = frozenset({"0", "off", "false", "no", "disabled"})

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def obs_enabled_from_env() -> bool:
    """``True`` unless ``REPRO_OBS`` is set to an off-value."""
    return os.environ.get(OBS_ENV, "on").strip().lower() not in _DISABLED_VALUES


class LabelCardinalityError(ValueError):
    """A metric family exceeded its distinct-label-set budget."""


def exponential_buckets(start: float, factor: float, count: int) -> Tuple[float, ...]:
    """``count`` log-spaced bucket upper bounds: ``start * factor**i``."""
    if start <= 0:
        raise ValueError(f"start must be > 0, got {start}")
    if factor <= 1:
        raise ValueError(f"factor must be > 1, got {factor}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return tuple(start * factor**i for i in range(count))


#: Default latency buckets: 1µs .. ~8.4s, log-2 spaced (24 buckets + +Inf).
DEFAULT_LATENCY_BUCKETS = exponential_buckets(1e-6, 2.0, 24)


class Counter:
    """A monotonically increasing value."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (must be >= 0)."""
        if amount < 0:
            raise ValueError(f"counters only go up, got inc({amount})")
        self.value += amount

    def samples(self) -> List[Tuple[str, float]]:
        return [("", self.value)]


class Gauge:
    """A value that can go up and down (or track a callback)."""

    kind = "gauge"
    __slots__ = ("value", "_fn")

    def __init__(self) -> None:
        self.value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def set_function(self, fn: Callable[[], float]) -> None:
        """Evaluate *fn* at scrape time instead of storing a value."""
        self._fn = fn

    def samples(self) -> List[Tuple[str, float]]:
        return [("", float(self._fn()) if self._fn is not None else self.value)]


class Histogram:
    """Bucketed distribution with Prometheus cumulative-``le`` semantics.

    ``observe(v)`` requires ``v >= 0`` (durations and sizes; negative
    observations are a caller bug and raise), accepts ``0`` (lands in
    the first finite bucket) and ``+inf`` (counted only in the implicit
    ``+Inf`` bucket and excluded from ``sum`` to keep it finite).
    """

    kind = "histogram"
    __slots__ = ("buckets", "counts", "inf_count", "sum", "count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket")
        if any(b <= 0 or not math.isfinite(b) for b in bounds):
            raise ValueError(f"bucket bounds must be finite and > 0: {bounds}")
        if list(bounds) != sorted(set(bounds)):
            raise ValueError(f"bucket bounds must be strictly increasing: {bounds}")
        self.buckets = bounds
        self.counts = [0] * len(bounds)  # per-bucket (non-cumulative) counts
        self.inf_count = 0
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        if math.isnan(value) or value < 0:
            raise ValueError(f"histogram observations must be >= 0, got {value}")
        self.count += 1
        if math.isinf(value):
            self.inf_count += 1
            return
        self.sum += value
        buckets = self.buckets
        if value > buckets[-1]:
            self.inf_count += 1
            return
        # Binary search for the first bound >= value.
        lo, hi = 0, len(buckets) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if buckets[mid] >= value:
                hi = mid
            else:
                lo = mid + 1
        self.counts[lo] += 1

    def cumulative(self) -> List[Tuple[float, int]]:
        """``[(le, cumulative_count), ..., (inf, total)]``."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, c in zip(self.buckets, self.counts):
            running += c
            out.append((bound, running))
        out.append((math.inf, running + self.inf_count))
        return out

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (upper bound of the
        bucket containing the q-th observation); ``inf`` when it falls
        in the overflow bucket, ``nan`` when empty."""
        if not 0 <= q <= 1:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if self.count == 0:
            return math.nan
        target = q * self.count
        for bound, cum in self.cumulative():
            if cum >= target:
                return bound
        return math.inf  # pragma: no cover - inf row always reaches total

    def samples(self) -> List[Tuple[str, float]]:
        out = [
            (f'_bucket{{le="{_format_le(bound)}"}}', float(cum))
            for bound, cum in self.cumulative()
        ]
        out.append(("_sum", self.sum))
        out.append(("_count", float(self.count)))
        return out


def _format_le(bound: float) -> str:
    if math.isinf(bound):
        return "+Inf"
    return format_value(bound)


def format_value(v: float) -> str:
    """Render a sample value: integers without a trailing ``.0``."""
    f = float(v)
    if f.is_integer() and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


class _NullMetric:
    """The shared do-nothing metric handed out by disabled registries."""

    kind = "null"
    __slots__ = ()

    def labels(self, *_args: object, **_kw: object) -> "_NullMetric":
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_function(self, fn: Callable[[], float]) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


#: The singleton no-op metric (identity-comparable in tests).
NULL_METRIC = _NullMetric()


class MetricFamily:
    """One named metric plus its labelled children.

    With ``label_names=()`` the family owns a single anonymous child
    and proxies ``inc``/``set``/``observe`` straight to it, so unlabelled
    metrics read naturally: ``registry.counter("x").inc()``.
    """

    __slots__ = ("name", "help", "label_names", "_factory", "_children", "_max")

    def __init__(
        self,
        name: str,
        help_text: str,
        label_names: Tuple[str, ...],
        factory: Callable[[], object],
        max_label_sets: int,
    ) -> None:
        self.name = name
        self.help = help_text
        self.label_names = label_names
        self._factory = factory
        self._children: Dict[Tuple[str, ...], object] = {}
        self._max = max_label_sets
        if not label_names:
            self._children[()] = factory()

    @property
    def kind(self) -> str:
        return self._factory().kind if not self._children else next(
            iter(self._children.values())
        ).kind  # type: ignore[attr-defined]

    def labels(self, *values: object, **kw: object) -> object:
        """The child metric for one label-value tuple (created on first
        use, capped at ``max_label_sets`` distinct tuples)."""
        if kw:
            if values:
                raise ValueError("pass label values positionally or by name, not both")
            try:
                values = tuple(kw[name] for name in self.label_names)
            except KeyError as exc:
                raise ValueError(
                    f"{self.name}: missing label {exc.args[0]!r} "
                    f"(expects {self.label_names})"
                ) from None
            if len(kw) != len(self.label_names):
                extra = set(kw) - set(self.label_names)
                raise ValueError(f"{self.name}: unknown labels {sorted(extra)}")
        if len(values) != len(self.label_names):
            raise ValueError(
                f"{self.name} expects {len(self.label_names)} label values "
                f"{self.label_names}, got {len(values)}"
            )
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            if len(self._children) >= self._max:
                raise LabelCardinalityError(
                    f"{self.name}: more than {self._max} distinct label sets "
                    f"(label names {self.label_names}); refusing {key}"
                )
            child = self._children[key] = self._factory()
        return child

    # Unlabelled convenience proxies ------------------------------------
    def _solo(self) -> object:
        if self.label_names:
            raise ValueError(f"{self.name} has labels {self.label_names}; use .labels()")
        return self._children[()]

    def inc(self, amount: float = 1.0) -> None:
        self._solo().inc(amount)  # type: ignore[attr-defined]

    def dec(self, amount: float = 1.0) -> None:
        self._solo().dec(amount)  # type: ignore[attr-defined]

    def set(self, value: float) -> None:
        self._solo().set(value)  # type: ignore[attr-defined]

    def set_function(self, fn: Callable[[], float]) -> None:
        self._solo().set_function(fn)  # type: ignore[attr-defined]

    def observe(self, value: float) -> None:
        self._solo().observe(value)  # type: ignore[attr-defined]

    def children(self) -> Iterable[Tuple[Tuple[str, ...], object]]:
        return self._children.items()


#: A collector returns families as plain data:
#: ``(name, kind, help, [(labels_dict, value), ...])``.
CollectedFamily = Tuple[str, str, str, List[Tuple[Dict[str, str], float]]]
Collector = Callable[[], List[CollectedFamily]]


class MetricsRegistry:
    """Factory and container for metric families.

    Parameters
    ----------
    enabled:
        ``None`` (default) resolves from the ``REPRO_OBS`` environment
        variable; ``False`` makes every metric request return the
        shared no-op :data:`NULL_METRIC`.
    namespace:
        Optional prefix joined with ``_`` to every metric name.
    max_label_sets:
        Per-family distinct-label-set cap (the cardinality guard).
    """

    def __init__(
        self,
        enabled: Optional[bool] = None,
        namespace: str = "",
        max_label_sets: int = 256,
    ) -> None:
        self.enabled = obs_enabled_from_env() if enabled is None else bool(enabled)
        self.namespace = namespace
        if max_label_sets < 1:
            raise ValueError(f"max_label_sets must be >= 1, got {max_label_sets}")
        self.max_label_sets = max_label_sets
        self._families: Dict[str, MetricFamily] = {}
        self._collectors: List[Collector] = []

    # ------------------------------------------------------------------
    # Metric factories
    # ------------------------------------------------------------------
    def _register(
        self,
        name: str,
        help_text: str,
        labels: Sequence[str],
        factory: Callable[[], object],
    ) -> object:
        if not self.enabled:
            return NULL_METRIC
        if self.namespace:
            name = f"{self.namespace}_{name}"
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        label_names = tuple(labels)
        for ln in label_names:
            if not _LABEL_RE.match(ln):
                raise ValueError(f"invalid label name {ln!r}")
        family = self._families.get(name)
        if family is not None:
            if family.label_names != label_names:
                raise ValueError(
                    f"metric {name!r} re-registered with labels {label_names}, "
                    f"was {family.label_names}"
                )
            return family
        family = MetricFamily(
            name, help_text, label_names, factory, self.max_label_sets
        )
        self._families[name] = family
        return family

    def counter(
        self, name: str, help_text: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        """A counter family (``NULL_METRIC`` when disabled)."""
        return self._register(name, help_text, labels, Counter)

    def gauge(
        self, name: str, help_text: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        """A gauge family (``NULL_METRIC`` when disabled)."""
        return self._register(name, help_text, labels, Gauge)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> MetricFamily:
        """A histogram family (``NULL_METRIC`` when disabled)."""
        return self._register(
            name, help_text, labels, lambda: Histogram(buckets)
        )

    # ------------------------------------------------------------------
    # Collectors and introspection
    # ------------------------------------------------------------------
    def register_collector(self, collector: Collector) -> None:
        """Add a scrape-time callback (runs even when disabled — it
        exports ground-truth state, not instrumentation)."""
        self._collectors.append(collector)

    def families(self) -> List[MetricFamily]:
        return list(self._families.values())

    def collect(self) -> List[CollectedFamily]:
        """Collector output only (direct families render separately)."""
        out: List[CollectedFamily] = []
        for collector in self._collectors:
            out.extend(collector())
        return out

    def get_sample_value(
        self, name: str, labels: Optional[Dict[str, str]] = None
    ) -> Optional[float]:
        """Look up one sample across families and collectors (tests)."""
        want = {k: str(v) for k, v in (labels or {}).items()}
        family = self._families.get(name)
        if family is not None:
            for key, child in family.children():
                if dict(zip(family.label_names, key)) == want:
                    for suffix, value in child.samples():  # type: ignore[attr-defined]
                        if suffix == "":
                            return value
        for cname, _kind, _help, samples in self.collect():
            if cname != name:
                continue
            for sample_labels, value in samples:
                if {k: str(v) for k, v in sample_labels.items()} == want:
                    return float(value)
        return None

    def render(self) -> str:
        """Prometheus text exposition (families + collectors)."""
        from repro.obs.export import render_prometheus

        return render_prometheus(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MetricsRegistry(enabled={self.enabled}, "
            f"families={len(self._families)}, collectors={len(self._collectors)})"
        )


class RateWindow:
    """Sliding-window rates over monotone totals.

    ``push(now, **totals)`` appends a snapshot of cumulative totals;
    snapshots older than ``horizon`` seconds (beyond the one straddling
    the window edge) are discarded.  ``rates(now)`` returns per-second
    deltas between the oldest retained and the newest snapshot — the
    windowed miss/cost rates surfaced by the serve ``/stats`` snapshot.
    """

    __slots__ = ("horizon", "_snaps")

    def __init__(self, horizon: float = 10.0) -> None:
        if horizon <= 0:
            raise ValueError(f"horizon must be > 0, got {horizon}")
        self.horizon = float(horizon)
        self._snaps: Deque[Tuple[float, Dict[str, float]]] = deque()

    def push(self, now: float, **totals: float) -> None:
        """Record cumulative *totals* at time *now*."""
        self._snaps.append((now, totals))
        cutoff = now - self.horizon
        # Keep one snapshot at/just before the cutoff so the window
        # always spans ~horizon seconds once warm.
        while len(self._snaps) >= 2 and self._snaps[1][0] <= cutoff:
            self._snaps.popleft()

    @property
    def samples(self) -> int:
        return len(self._snaps)

    def rates(self, now: Optional[float] = None) -> Dict[str, float]:
        """``{"window_seconds": span, "<key>_per_sec": delta/span}``.

        Empty dict until two snapshots exist (no rate from one point).
        """
        if len(self._snaps) < 2:
            return {}
        t0, first = self._snaps[0]
        t1, last = self._snaps[-1]
        span = t1 - t0
        if span <= 0:
            return {}
        out: Dict[str, float] = {"window_seconds": span}
        for key, value in last.items():
            out[f"{key}_per_sec"] = (value - first.get(key, 0.0)) / span
        return out


__all__ = [
    "OBS_ENV",
    "obs_enabled_from_env",
    "LabelCardinalityError",
    "exponential_buckets",
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "NULL_METRIC",
    "RateWindow",
    "format_value",
]
