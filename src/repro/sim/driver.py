"""Parallel multi-run simulation driver.

Experiments rarely run one simulation: E5/E9/E11 all fan a grid of
(policy, cache size, trace) cells and compare rows.  ``simulate_many``
enumerates that cartesian product, derives an independent per-cell seed
with the same :func:`repro.util.rng.derive_seed` convention as
:func:`repro.analysis.sweep.run_sweep` (cells numbered in product
order), and optionally spreads cells over a ``ProcessPoolExecutor``.
Results are identical whether run serially or in parallel, and the
returned list is always in product order.

Policies are given as registry names (``"lru"``) or zero-argument
factories; names keep cells picklable for the process pool and let the
driver pass the derived seed to stochastic policies (any factory whose
constructor accepts an ``rng`` keyword).
"""

from __future__ import annotations

import inspect
import itertools
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.obs import Observability, default_observability
from repro.sim.engine import SimResult, simulate
from repro.sim.policy import EvictionPolicy
from repro.sim.trace import Trace
from repro.util.rng import derive_seed
from repro.util.validation import check_positive_int

#: A registry name or a zero-argument policy factory (class or callable).
PolicySpec = Union[str, Callable[..., EvictionPolicy]]

#: ``costs`` argument: one list for every trace, or a per-trace builder.
CostsSpec = Union[None, Sequence[object], Callable[[Trace], Sequence[object]]]


@dataclass(frozen=True)
class GridRun:
    """One completed cell of a :func:`simulate_many` grid."""

    policy: str
    k: int
    trace_index: int
    seed: int
    elapsed: float
    result: SimResult


def _resolve_factory(spec: PolicySpec) -> Tuple[str, Callable[..., EvictionPolicy]]:
    """``(display name, factory)`` for a policy spec."""
    if isinstance(spec, str):
        # Imported lazily: repro.policies itself imports repro.sim.
        from repro.policies import POLICY_REGISTRY

        try:
            return spec, POLICY_REGISTRY[spec]
        except KeyError:
            raise KeyError(
                f"unknown policy {spec!r}; known: {sorted(POLICY_REGISTRY)}"
            ) from None
    name = getattr(spec, "name", None)
    if not isinstance(name, str):
        name = getattr(spec, "__name__", repr(spec))
    return name, spec


def _build_policy(factory: Callable[..., EvictionPolicy], seed: int) -> EvictionPolicy:
    """Instantiate, passing the cell seed to stochastic policies."""
    try:
        params = inspect.signature(factory).parameters
    except (TypeError, ValueError):
        params = {}
    if "rng" in params:
        return factory(rng=seed)
    return factory()


def resolve_trace(trace):
    """Materialize a trace spec.

    Strings are on-disk traces — a columnar directory opens as a
    streaming :class:`~repro.sim.colstore.TraceReader` (the trace never
    rides a pickle and never materializes), anything else loads as a
    ``page,tenant`` CSV.  ``Trace``/reader objects pass through.  Grid
    drivers call this *inside the worker process* so path cells ship a
    string instead of the requests; it is public so experiments and the
    network CLI resolve specs the same way.
    """
    if isinstance(trace, str):
        from repro.sim.colstore import is_columnar, open_trace

        if is_columnar(trace):
            return open_trace(trace)
        from repro.sim.trace_io import load_csv

        return load_csv(trace).trace
    return trace


def costs_per_trace(costs: CostsSpec, traces: Sequence) -> List[Optional[Sequence[object]]]:
    """Evaluate a ``costs`` spec against every trace in a grid.

    ``None`` and plain sequences broadcast to every trace.  A callable
    is evaluated once per trace in the parent process; *path* entries
    are resolved first (columnar directories open as header-only
    streaming readers — cheap), so the callable always sees an object
    with ``num_users`` rather than a raw string.
    """
    if not callable(costs):
        return [costs for _ in traces]
    return [costs(resolve_trace(trace)) for trace in traces]


def _run_cell(job: Tuple) -> Tuple[float, SimResult]:
    """Top-level worker so process pools can unpickle the call."""
    spec, k, trace, costs, seed, engine, record_events, record_curve = job
    trace = resolve_trace(trace)
    _name, factory = _resolve_factory(spec)
    policy = _build_policy(factory, seed)
    start = time.perf_counter()
    result = simulate(
        trace,
        policy,
        k,
        costs=costs,
        record_events=record_events,
        record_curve=record_curve,
        engine=engine,
    )
    return time.perf_counter() - start, result


def simulate_many(
    policies: Sequence[PolicySpec],
    ks: Sequence[int],
    traces: Sequence[Union[Trace, str]],
    *,
    costs: CostsSpec = None,
    engine: str = "auto",
    base_seed: int = 0,
    record_events: bool = False,
    record_curve: bool = False,
    workers: Optional[int] = None,
    chunksize: Optional[int] = None,
    obs: Optional["Observability"] = None,
) -> List[GridRun]:
    """Run every (policy, k, trace) combination, optionally in parallel.

    Parameters
    ----------
    policies:
        Registry names (``"lru"``) and/or zero-argument factories.
    ks:
        Cache capacities.
    traces:
        Traces; each cell records the index of the trace it ran.  An
        entry may also be a *path string* — resolved inside the worker
        process (columnar directories stream via
        :class:`~repro.sim.colstore.TraceReader`; anything else loads
        as CSV), so parallel grids over huge on-disk traces ship a
        path per cell instead of pickling the requests.
    costs:
        ``None``, one cost list shared by every trace, or a callable
        ``trace -> costs`` evaluated once per trace in the parent
        process via :func:`costs_per_trace` (path entries are resolved
        to header-only readers first, so the callable sees
        ``num_users``).
    engine:
        Forwarded to :func:`repro.sim.engine.simulate`.
    base_seed:
        Root of the per-cell seed derivation.  Cells are numbered in
        ``itertools.product(policies, ks, traces)`` order and cell *i*
        gets ``derive_seed(base_seed, i)`` — the
        :func:`~repro.analysis.sweep.run_sweep` convention.  The seed
        reaches stochastic policies (constructors accepting ``rng``)
        and is recorded on every :class:`GridRun` for logging.
    workers:
        ``None`` (default) runs serially.  An integer uses a
        ``ProcessPoolExecutor`` with that many workers; results are
        bit-identical to the serial run and come back in the same
        order.
    chunksize:
        Cells pickled per pool task (parallel runs only).  Defaults to
        ``max(1, cells // (8 * workers))`` so large grids stop paying
        one pickle round-trip per cell while keeping ~8 tasks per
        worker for load balancing.
    obs:
        Telemetry bundle for the *grid* level: one ``sim.grid`` span
        around the whole product, a ``sim.cell`` event per completed
        cell, and a ``sim_grid_cells_total`` counter.  Per-run engine
        telemetry stays with the engine's own default bundle (worker
        processes do not share this one).

    Returns
    -------
    list[GridRun]
        One entry per cell, in product order.
    """
    if not policies:
        raise ValueError("policies must be non-empty")
    if not ks:
        raise ValueError("ks must be non-empty")
    if not traces:
        raise ValueError("traces must be non-empty")

    per_trace_costs = costs_per_trace(costs, traces)

    jobs: List[Tuple] = []
    meta: List[Tuple[str, int, int, int]] = []
    for cell_index, (spec, k, trace_index) in enumerate(
        itertools.product(policies, ks, range(len(traces)))
    ):
        name, _factory = _resolve_factory(spec)
        seed = derive_seed(base_seed, cell_index)
        meta.append((name, int(k), trace_index, seed))
        jobs.append(
            (
                spec,
                int(k),
                traces[trace_index],
                per_trace_costs[trace_index],
                seed,
                engine,
                record_events,
                record_curve,
            )
        )

    if obs is None:
        obs = default_observability()
    with obs.tracer.span(
        "sim.grid",
        cells=len(jobs),
        policies=len(policies),
        ks=len(ks),
        traces=len(traces),
        workers=workers or 0,
    ):
        if workers is None:
            outputs = [_run_cell(job) for job in jobs]
        else:
            workers = check_positive_int(workers, "workers")
            if chunksize is None:
                chunksize = max(1, len(jobs) // (8 * workers))
            else:
                chunksize = check_positive_int(chunksize, "chunksize")
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                outputs = list(
                    pool.map(_run_cell, jobs, chunksize=chunksize)
                )

        if obs.tracer.enabled:
            for (name, k, trace_index, _seed), (elapsed, result) in zip(
                meta, outputs
            ):
                obs.tracer.event(
                    "sim.cell",
                    policy=name,
                    k=k,
                    trace_index=trace_index,
                    elapsed=elapsed,
                    misses=result.misses,
                )
    if obs.registry.enabled:
        obs.registry.counter(
            "sim_grid_cells_total", "Grid cells completed by simulate_many"
        ).inc(len(jobs))

    return [
        GridRun(
            policy=name,
            k=k,
            trace_index=trace_index,
            seed=seed,
            elapsed=elapsed,
            result=result,
        )
        for (name, k, trace_index, seed), (elapsed, result) in zip(meta, outputs)
    ]


__all__ = [
    "GridRun",
    "PolicySpec",
    "costs_per_trace",
    "resolve_trace",
    "simulate_many",
]
