"""Parameter-sweep harness.

Experiments are grids: (k, beta, seed, …) → row of measurements.  The
harness enumerates the cartesian product, derives an independent seed
per cell, runs the cell function, and aggregates replicate rows with
mean / min / max — the numerical backbone behind every E* experiment
table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.util.grid import map_cells, seeded_product
from repro.util.validation import check_positive_int

CellFn = Callable[..., Dict[str, object]]


@dataclass
class SweepResult:
    """Rows from a sweep plus grouping helpers."""

    rows: List[Dict[str, object]] = field(default_factory=list)
    grid_keys: Tuple[str, ...] = ()

    def grouped(
        self, by: Sequence[str], value: str, agg: str = "mean"
    ) -> List[Dict[str, object]]:
        """Aggregate *value* over replicates grouped by *by* columns.

        ``agg`` ∈ {mean, min, max, median}.  Non-finite and non-numeric
        values are dropped (bools are flags, not measurements — a
        ``True`` silently averaging as 1.0 once hid a broken column);
        groups with none left report nan.
        """
        groups: Dict[Tuple, List[float]] = {}
        order: List[Tuple] = []
        for row in self.rows:
            key = tuple(row[b] for b in by)
            if key not in groups:
                groups[key] = []
                order.append(key)
            v = row.get(value)
            if (
                isinstance(v, (int, float))
                and not isinstance(v, bool)
                and math.isfinite(float(v))
            ):
                groups[key].append(float(v))
        agg_fn = {
            "mean": np.mean,
            "min": np.min,
            "max": np.max,
            "median": np.median,
        }[agg]
        out = []
        for key in order:
            vals = groups[key]
            row = dict(zip(by, key))
            row[f"{value}_{agg}"] = float(agg_fn(vals)) if vals else math.nan
            row["replicates"] = len(vals)
            out.append(row)
        return out

    def column(self, name: str) -> List[object]:
        return [row[name] for row in self.rows]


def _invoke_cell(job: Tuple[CellFn, Dict[str, object]]) -> Dict[str, object]:
    """Top-level helper so worker processes can unpickle the call."""
    cell, kwargs = job
    return cell(**kwargs)


def run_sweep(
    cell: CellFn,
    grid: Mapping[str, Sequence[object]],
    replicates: int = 1,
    base_seed: int = 0,
    include_seed: bool = True,
    workers: Optional[int] = None,
) -> SweepResult:
    """Run *cell* over the cartesian product of *grid*.

    ``cell(**params, seed=...)`` must return a dict of measurements
    (the grid params are merged into each row automatically).  Each
    grid point gets ``replicates`` independent runs with seeds derived
    deterministically from ``base_seed`` and the cell index, so results
    are identical whether run serially or in parallel.

    Parameters
    ----------
    workers:
        ``None`` (default) runs serially.  An integer runs cells in a
        ``ProcessPoolExecutor`` with that many workers — *cell* must
        then be a picklable top-level function.  Row order matches the
        serial order either way.
    """
    replicates = check_positive_int(replicates, "replicates")
    keys = list(grid.keys())
    result = SweepResult(grid_keys=tuple(keys))

    jobs: List[Tuple[Dict[str, object], Dict[str, object]]] = []
    for seed, (*combo, rep) in seeded_product(
        base_seed, *(grid[k] for k in keys), range(replicates)
    ):
        params = dict(zip(keys, combo))
        kwargs = dict(params)
        merged = dict(params)
        if include_seed:
            kwargs["seed"] = seed
            merged["seed"] = seed
        merged["replicate"] = rep
        jobs.append((kwargs, merged))

    outputs = map_cells(_invoke_cell, [(cell, kw) for kw, _m in jobs], workers)

    for (_kwargs, merged), row in zip(jobs, outputs):
        merged = dict(merged)
        merged.update(row)
        result.rows.append(merged)
    return result


__all__ = ["SweepResult", "run_sweep", "CellFn"]
