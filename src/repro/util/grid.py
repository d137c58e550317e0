"""Grid cells: one enumeration with per-cell seeds and one map over
the cells, serial or over a process pool.

:func:`repro.sim.driver.simulate_many`,
:func:`repro.net.netsim.network_many` and
:func:`repro.analysis.sweep.run_sweep` run their grids through these
two: cells are numbered in ``itertools.product`` order, cell *i* is
seeded ``derive_seed(base_seed, i)``, and results come back in that
order, bit-identical whether the map runs serially or in parallel.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, TypeVar

from repro.util.rng import derive_seed
from repro.util.validation import check_positive_int

T = TypeVar("T")
R = TypeVar("R")


def seeded_product(base_seed: int, *axes: Iterable) -> List[Tuple[int, Tuple]]:
    """``(derive_seed(base_seed, i), cell)`` for the *i*-th cell of
    ``itertools.product(*axes)``."""
    return [
        (derive_seed(base_seed, i), cell)
        for i, cell in enumerate(itertools.product(*axes))
    ]


def map_cells(
    fn: Callable[[T], R],
    cells: Sequence[T],
    workers: Optional[int] = None,
    chunksize: Optional[int] = None,
) -> List[R]:
    """``[fn(cell) for cell in cells]``, in order.

    ``workers=None`` runs serially; an integer maps over a
    ``ProcessPoolExecutor`` of that many processes (*fn* and the cells
    must then pickle), *chunksize* cells per task, by default
    ``max(1, cells // (8 * workers))``: large grids stop paying one
    pickle round trip per cell while each worker keeps about eight
    tasks to balance."""
    if workers is None:
        return [fn(cell) for cell in cells]
    workers = check_positive_int(workers, "workers")
    if chunksize is None:
        chunksize = max(1, len(cells) // (8 * workers))
    else:
        chunksize = check_positive_int(chunksize, "chunksize")
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, cells, chunksize=chunksize))


__all__ = ["map_cells", "seeded_product"]
