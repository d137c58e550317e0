"""Live per-tenant cost accounting for the serving subsystem.

The offline pipeline computes costs *after* a run from
:class:`~repro.sim.engine.SimResult`; a server must answer "what does
tenant *i* owe right now" and "what would their next miss cost" while
requests are still arriving.  :class:`CostLedger` keeps the running
per-tenant hit/miss counters, evaluates :math:`f_i(m_i)` on demand
through the same :class:`~repro.core.cost_functions.CostFunction`
objects the algorithms use, and quotes the paper's fresh-budget
marginal :math:`f_i'(m_i + 1)` — the price ALG-DISCRETE would assign
the tenant's next fetched page.

Windowed accounting mirrors :func:`repro.sim.metrics.windowed_miss_
counts` exactly (same window edges over the global request index,
including a trailing partial window), so a live ledger's window rows
are bit-identical to the offline recomputation from a recorded miss
curve — enforced by ``tests/test_serve_accounting.py``.  This is the
SLA shape from the paper's motivation: "up to ~M misses per window".

Every request is recorded with its global clock value and misses are
binned by the global window index ``t // window``, so ledgers that
each saw part of the stream — the slices kept by the processes of a
:class:`~repro.serve.workers.ShardWorkerPool` — add up exactly:
:meth:`CostLedger.merge` of every slice's :meth:`CostLedger.counters`
is the ledger one process would have kept over the whole stream.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.cost_functions import CostFunction
from repro.sim.engine import SMALL_BATCH
from repro.util.validation import check_positive_int


class CostLedger:
    """Running hit/miss/cost state for ``n`` tenants.

    Parameters
    ----------
    num_users:
        Tenant count ``n``.
    costs:
        Per-tenant cost functions.  Optional: without them the ledger
        still counts, but cost/quote accessors raise.
    window:
        Optional window length (in requests, over the *global* request
        index) for SLA-style per-window miss rows.
    """

    def __init__(
        self,
        num_users: int,
        costs: Optional[Sequence[CostFunction]] = None,
        window: Optional[int] = None,
    ) -> None:
        self.num_users = check_positive_int(num_users, "num_users")
        if costs is not None and len(costs) < num_users:
            raise ValueError(f"need {num_users} cost functions, got {len(costs)}")
        self.costs = costs
        self.window = None if window is None else check_positive_int(window, "window")
        # Plain-int lists: record() adds each batch's counts in, and
        # snapshots hand them out as JSON ints.
        self._hits: List[int] = [0] * num_users
        self._misses: List[int] = [0] * num_users
        self._t = 0
        #: Per-tenant misses keyed by the global window index t // window.
        self._bins: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------
    # Recording (the server's hot path)
    # ------------------------------------------------------------------
    def record(
        self, tenants: Sequence[int], misses: Sequence[int], ts: Sequence[int]
    ) -> None:
        """Account one batch of served requests: request *i* was
        *tenants[i]*'s (an int array, or a list) and ran at global time
        *ts[i]*; the requests at positions *misses* missed, every other
        one hit.  A batch of at most
        :data:`~repro.sim.engine.SMALL_BATCH` requests is counted in
        plain Python, a larger one in bulk; *ts* is read only by a
        windowed ledger, at the misses."""
        h = self._hits
        m = self._misses
        num = self.num_users
        if len(tenants) <= SMALL_BATCH:
            if isinstance(tenants, np.ndarray):
                tenants = tenants.tolist()
            missed = [tenants[i] for i in misses]
            for tenant in tenants:
                h[tenant] += 1
            for tenant in missed:
                h[tenant] -= 1
                m[tenant] += 1
        else:
            tenants = np.asarray(tenants, dtype=np.int64)
            missed = tenants[misses]
            requests = np.bincount(tenants, minlength=num).tolist()
            by_tenant = np.bincount(missed, minlength=num).tolist()
            for i in range(num):
                h[i] += requests[i] - by_tenant[i]
                m[i] += by_tenant[i]
            missed = missed.tolist()
        window = self.window
        if window is not None:
            bins = self._bins
            for tenant, i in zip(missed, misses):
                w = int(ts[i]) // window
                row = bins.get(w)
                if row is None:
                    row = bins[w] = [0] * num
                row[tenant] += 1
        self._t += len(tenants)

    def counters(self) -> Dict[str, object]:
        """The ledger's counts as plain data (picklable: the cost
        functions stay behind), for :meth:`merge` in another process."""
        return {
            "window": self.window,
            "hits": list(self._hits),
            "misses": list(self._misses),
            "requests": self._t,
            "bins": {w: list(row) for w, row in self._bins.items()},
        }

    def merge(self, counters: Dict[str, object]) -> None:
        """Add another ledger's :meth:`counters` into this one.

        Merging the slices of a partition of the request stream gives
        exactly the ledger that recorded the whole stream, window rows
        included, because misses are binned by global time."""
        if counters["window"] != self.window:
            raise ValueError(
                f"cannot merge window={counters['window']} counters into "
                f"a window={self.window} ledger"
            )
        for i, v in enumerate(counters["hits"]):
            self._hits[i] += v
        for i, v in enumerate(counters["misses"]):
            self._misses[i] += v
        self._t += counters["requests"]
        for w, row in counters["bins"].items():
            tgt = self._bins.setdefault(w, [0] * self.num_users)
            for i, v in enumerate(row):
                tgt[i] += v

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    @property
    def total_requests(self) -> int:
        return self._t

    @property
    def hits(self) -> int:
        return sum(self._hits)

    @property
    def misses(self) -> int:
        return sum(self._misses)

    def hits_by_user(self) -> np.ndarray:
        return np.asarray(self._hits, dtype=np.int64)

    def misses_by_user(self) -> np.ndarray:
        """The running :math:`m_i` vector (the paper's :math:`a_i`)."""
        return np.asarray(self._misses, dtype=np.int64)

    # ------------------------------------------------------------------
    # Cost accessors
    # ------------------------------------------------------------------
    def _cost_fn(self, tenant: int) -> CostFunction:
        if self.costs is None:
            raise ValueError("this ledger has no cost functions")
        return self.costs[tenant]

    def cost_of(self, tenant: int) -> float:
        """Running :math:`f_i(m_i)` for *tenant*."""
        return float(self._cost_fn(tenant).value(self._misses[tenant]))

    def costs_by_user(self) -> np.ndarray:
        return np.array(
            [self.cost_of(i) for i in range(self.num_users)], dtype=float
        )

    def total_cost(self) -> float:
        """The paper's objective :math:`\\sum_i f_i(m_i)`, so far."""
        return float(self.costs_by_user().sum())

    def marginal_quote(self, tenant: int) -> float:
        """:math:`f_i'(m_i + 1)` — the marginal price of *tenant*'s next
        miss: the same fresh-budget rule ALG-DISCRETE applies, evaluated
        on served misses (the paper's fetch count :math:`a_i`, which
        exceeds the algorithm's internal eviction count by the cold
        misses)."""
        return float(self._cost_fn(tenant).derivative(self._misses[tenant] + 1))

    # ------------------------------------------------------------------
    # Windowed / SLA accounting
    # ------------------------------------------------------------------
    def windowed_miss_counts(self) -> np.ndarray:
        """Per-tenant misses per window, shape ``(W, n)``.

        Matches :func:`repro.sim.metrics.windowed_miss_counts` on the
        equivalent offline run: full windows in order, plus the current
        partial window when the request count is not a multiple of the
        window length.
        """
        if self.window is None:
            raise ValueError("ledger was created without a window")
        n_rows = max(-(-self._t // self.window), max(self._bins, default=-1) + 1)
        out = np.zeros((n_rows, self.num_users), dtype=np.int64)
        for w, row in self._bins.items():
            out[w] = row
        return out

    def windowed_cost(self) -> float:
        """:math:`\\sum_w \\sum_i f_i(\\text{misses}_i\\text{ in }w)`."""
        per_window = self.windowed_miss_counts()
        total = 0.0
        for row in per_window:
            total += sum(
                float(self._cost_fn(i).value(int(m))) for i, m in enumerate(row)
            )
        return total

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """JSON-able state for the ``/stats`` command."""
        tenants = []
        for i in range(self.num_users):
            row: Dict[str, object] = {
                "tenant": i,
                "hits": self._hits[i],
                "misses": self._misses[i],
            }
            if self.costs is not None:
                row["cost"] = self.cost_of(i)
                row["marginal_quote"] = self.marginal_quote(i)
            tenants.append(row)
        snap: Dict[str, object] = {
            "requests": self._t,
            "hits": self.hits,
            "misses": self.misses,
            "tenants": tenants,
        }
        if self.costs is not None:
            snap["total_cost"] = self.total_cost()
        if self.window is not None:
            snap["window"] = self.window
            snap["windowed_misses"] = self.windowed_miss_counts().tolist()
        return snap

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CostLedger(n={self.num_users}, requests={self._t}, "
            f"misses={self.misses})"
        )


__all__ = ["CostLedger"]
