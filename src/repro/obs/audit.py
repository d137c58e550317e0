"""Streaming competitive-ratio auditor for Theorem 1.1, live.

The reproduction exists to demonstrate :math:`\\sum_i f_i(a_i) \\le
\\sum_i f_i(\\alpha\\,k\\,b_i)` (Theorem 1.1): online misses :math:`a_i`
against the offline optimum's fetches :math:`b_i`, with
:math:`\\alpha = \\sup_x x f'(x)/f(x)` (:math:`= \\beta` for monomials).
Offline experiments compute both sides post hoc; a *serving* system
should expose its distance from the guarantee while requests flow.

:class:`CompetitiveAuditor` does that with one ``observe(page, tenant,
hit)`` call per request:

* the **online side** counts per-tenant misses exactly (it is told the
  live hit/miss outcome);
* the **offline side** maintains a running baseline :math:`\\hat b_i`
  by simulating a *windowed weighted Belady* schedule over the same
  request stream: requests buffer until ``2*window`` are pending, then
  the oldest ``window`` are served against a persistent warm cache with
  the remaining buffer as lookahead, evicting dead-within-horizon pages
  first and otherwise the minimum urgency
  :math:`f_i'(\\hat b_i + 1)/(\\text{next use} - t)` — the
  bounded-lookahead form of :class:`repro.core.offline.
  WeightedBeladyPolicy`.  Being a *feasible* schedule, its cost
  over-estimates OPT, so the audited ratio **under**-estimates the true
  competitive ratio and the bound gauge **over**-estimates the
  theorem's right-hand side: a live violation reading is trustworthy in
  both directions.
* ``mode="cp"`` additionally prices each flushed block with the convex
  program's fractional relaxation (:mod:`repro.core.convex_program`),
  accumulating per-tenant fractional fetch mass instead — tighter per
  block, but each block is priced as an independent cold instance
  (needs scipy).

The server's HTTP admin plane serves the snapshot at ``/audit`` and
the gauges ``audit_ratio`` / ``audit_theorem11_bound`` at
``/metrics``; :func:`repro.obs.monitor.watch_simulation` accepts an auditor
for offline runs.  Cost comparisons are *prefix-aligned*: the gauges
compare the online and baseline cost over the same audited prefix
(``processed`` requests), never charging the online side for requests
the baseline has not priced yet.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cost_functions import CostFunction, combined_alpha
from repro.util.validation import check_positive_int

AUDIT_MODES = ("belady", "cp")


class CompetitiveAuditor:
    """Per-tenant online-vs-offline cost audit over a live stream.

    Parameters
    ----------
    costs:
        Per-tenant cost functions (one per tenant, the live instance).
    k:
        Cache capacity of the audited system (also the baseline's).
    window:
        Flush block length: requests buffer until ``2*window`` are
        pending, giving the baseline at least ``window`` requests of
        lookahead at every decision.  Defaults to ``2*k``.
    mode:
        ``"belady"`` (windowed weighted Belady, the default) or
        ``"cp"`` (per-block fractional relaxation; needs scipy).
    alpha:
        Override for :func:`~repro.core.cost_functions.combined_alpha`.
    """

    def __init__(
        self,
        costs: Sequence[CostFunction],
        k: int,
        *,
        window: Optional[int] = None,
        mode: str = "belady",
        alpha: Optional[float] = None,
        tol: float = 1e-9,
    ) -> None:
        if not costs:
            raise ValueError("need at least one cost function")
        if mode not in AUDIT_MODES:
            raise ValueError(f"mode must be one of {AUDIT_MODES}, got {mode!r}")
        self.costs = list(costs)
        self.num_users = len(self.costs)
        self.k = check_positive_int(k, "k")
        self.window = check_positive_int(
            window if window is not None else 2 * self.k, "window"
        )
        self.mode = mode
        self.alpha = float(alpha) if alpha is not None else combined_alpha(
            self.costs
        )
        self.tol = float(tol)

        # Online side: total (live) and prefix-aligned (audited) misses.
        self.online_total = np.zeros(self.num_users, dtype=np.int64)
        self.online = np.zeros(self.num_users, dtype=np.int64)
        # Offline baseline fetches over the audited prefix (float: the
        # cp mode accumulates fractional mass).
        self.offline = np.zeros(self.num_users, dtype=float)

        self.requests = 0
        self.processed = 0
        self.blocks = 0

        self._buf: List[Tuple[int, int, bool]] = []  # (page, tenant, hit)
        self._cache: Dict[int, int] = {}  # baseline residency: page -> tenant
        self._next: Dict[int, int] = {}  # page -> absolute next-use position
        self._owner_of: Dict[int, int] = {}  # pages seen (cp mode traces)

    # ------------------------------------------------------------------
    # Streaming entry points
    # ------------------------------------------------------------------
    def observe(self, page: int, tenant: int, hit: bool) -> None:
        """Feed one served request (its live outcome included)."""
        self.requests += 1
        if not hit:
            self.online_total[tenant] += 1
        self._buf.append((page, tenant, hit))
        if len(self._buf) >= 2 * self.window:
            self._advance(self.window)

    def finalize(self) -> None:
        """Price every still-buffered request (end of stream); the tail
        block sees only the remaining requests as lookahead."""
        if self._buf:
            self._advance(len(self._buf))

    @property
    def pending(self) -> int:
        """Requests observed but not yet priced by the baseline."""
        return len(self._buf)

    # ------------------------------------------------------------------
    # Baseline advancement
    # ------------------------------------------------------------------
    def _advance(self, count: int) -> None:
        buf = self._buf
        horizon_len = len(buf)
        base = self.processed
        horizon = base + horizon_len

        # Exact next-occurrence table over the buffered horizon; after
        # the backward pass `first_pos[p]` is p's first occurrence.
        nxt = [horizon_len] * horizon_len
        first_pos: Dict[int, int] = {}
        for i in range(horizon_len - 1, -1, -1):
            p = buf[i][0]
            nxt[i] = first_pos.get(p, horizon_len)
            first_pos[p] = i

        # Residents' stored next uses may predate this horizon; refresh
        # against the full current lookahead.
        nxt_abs = self._next
        for p in self._cache:
            nxt_abs[p] = base + first_pos.get(p, horizon_len)

        cache = self._cache
        costs = self.costs
        offline = self.offline
        online = self.online
        if self.mode == "cp":
            self._price_block_cp(buf[:count])
        for i in range(count):
            page, tenant, hit = buf[i]
            if not hit:
                online[tenant] += 1
            self._owner_of.setdefault(page, tenant)
            pos = base + i
            if page in cache:
                nxt_abs[page] = base + nxt[i]
                continue
            if self.mode != "cp":
                offline[tenant] += 1
            if len(cache) < self.k:
                cache[page] = tenant
                nxt_abs[page] = base + nxt[i]
                continue
            # Weighted-Belady eviction with bounded lookahead: dead
            # pages (no use before the horizon) are free; otherwise the
            # minimum marginal-per-distance urgency goes, marginal then
            # page id breaking ties (balances tenants for convex costs).
            marg = [
                costs[u].marginal(int(offline[u]) + 1)
                for u in range(self.num_users)
            ]
            best_page = -1
            best_key: Optional[Tuple[float, float, int]] = None
            for q, tq in cache.items():
                nq = nxt_abs[q]
                urgency = 0.0 if nq >= horizon else marg[tq] / (nq - pos)
                key = (urgency, marg[tq], q)
                if best_key is None or key < best_key:
                    best_key = key
                    best_page = q
            del cache[best_page]
            del nxt_abs[best_page]
            cache[page] = tenant
            nxt_abs[page] = base + nxt[i]

        del buf[:count]
        self.processed += count
        self.blocks += 1

    def _price_block_cp(self, block: List[Tuple[int, int, bool]]) -> None:
        """cp mode: per-tenant fractional fetch mass of one block priced
        as an independent instance by the convex program."""
        from repro.core.convex_program import build_program, solve_fractional
        from repro.sim.trace import Trace

        for page, tenant, _hit in block:
            self._owner_of.setdefault(page, tenant)
        num_pages = max(self._owner_of) + 1
        owners = np.zeros(num_pages, dtype=np.int64)
        for p, u in self._owner_of.items():
            owners[p] = u
        trace = Trace(
            requests=np.array([p for p, _u, _h in block], dtype=np.int64),
            owners=owners,
            name=f"audit-block-{self.blocks}",
        )
        program = build_program(trace, self.k)
        if program.num_vars == 0:
            return  # block fits in cache: zero forced fetch mass
        sol = solve_fractional(program, self.costs[: max(trace.num_users, 1)])
        totals = program.user_totals(sol.x)
        self.offline[: totals.size] += totals

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def online_cost(self) -> float:
        """:math:`\\sum_i f_i(a_i)` over the audited prefix."""
        return float(
            sum(f.value(int(m)) for f, m in zip(self.costs, self.online))
        )

    def offline_cost(self) -> float:
        """:math:`\\sum_i f_i(\\hat b_i)` over the audited prefix."""
        return float(
            sum(f.value(float(b)) for f, b in zip(self.costs, self.offline))
        )

    def theorem11_bound(self) -> float:
        """:math:`\\sum_i f_i(\\alpha k \\hat b_i)` — the live RHS gauge
        (same form as :func:`repro.analysis.bounds.theorem_1_1_bound`,
        with the streamed :math:`\\hat b_i` in place of exact OPT)."""
        scale = self.alpha * self.k
        return float(
            sum(f.value(scale * float(b))
                for f, b in zip(self.costs, self.offline))
        )

    def ratio(self) -> float:
        """Audited competitive ratio (online cost / baseline cost)."""
        off = self.offline_cost()
        on = self.online_cost()
        if off > 0.0:
            return on / off
        return 0.0 if on == 0.0 else float("inf")

    def bound_holds(self) -> bool:
        on = self.online_cost()
        bound = self.theorem11_bound()
        return on <= bound + self.tol * max(1.0, abs(bound))

    def snapshot(self) -> Dict[str, object]:
        """JSON-able audit state (the ``/audit`` document)."""
        on = self.online_cost()
        bound = self.theorem11_bound()
        return {
            "mode": self.mode,
            "k": self.k,
            "window": self.window,
            "alpha": self.alpha,
            "requests": int(self.requests),
            "processed": int(self.processed),
            "pending": int(self.pending),
            "blocks": int(self.blocks),
            "online_misses": [int(m) for m in self.online],
            "online_misses_total": [int(m) for m in self.online_total],
            "offline_misses": [float(b) for b in self.offline],
            "audit_online_cost": on,
            "audit_offline_cost": self.offline_cost(),
            "audit_ratio": self.ratio(),
            "audit_theorem11_bound": bound,
            "bound_holds": self.bound_holds(),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompetitiveAuditor(mode={self.mode!r}, k={self.k}, "
            f"window={self.window}, processed={self.processed}, "
            f"ratio={self.ratio():.3g})"
        )


__all__ = ["AUDIT_MODES", "CompetitiveAuditor"]
