"""The primal-dual ledger: a complete record of :math:`(x^\\circ, y^\\circ, z^\\circ)`.

ALG-CONT (:mod:`repro.core.alg_continuous`) fills one of these as it
runs.  The ledger stores *raw* data — request times of every page, the
eviction indicator :math:`x^\\circ(p,j)` with its set-time
:math:`s(p,j)`, the dual jumps :math:`y^\\circ_t`, and the accumulated
:math:`z^\\circ(p,j)` — so the invariant checker
(:mod:`repro.core.invariants`) can recompute every condition of the
paper's Lemma 2.1 from first principles, independently of the
algorithm's internal bookkeeping.

Paper notation mapped to storage
--------------------------------
``request_times[p][j-1]``      :math:`t(p, j)` — time of the *j*-th
                               request of page *p* (1-based *j*).
``x[(p, j)] / set_time[(p,j)]``:math:`x^\\circ(p,j) = 1` set at time
                               :math:`s(p,j)`.
``y[t]``                       :math:`y^\\circ_t` (zero where absent).
``z[(p, j)]``                  :math:`z^\\circ(p,j)`.
``eviction_events``            ``(t, page, user)`` per eviction, from
                               which :math:`m(i,t)` is reconstructed.

All times are 0-based (the paper is 1-based); interval sums translate
accordingly: the paper's :math:`\\sum_{t=t(p,j)+1}^{t(p,j+1)-1} y_t`
over *strictly between* consecutive requests becomes the sum of ``y``
over 0-based times in the open interval ``(t(p,j), t(p,j+1))``.  The
:math:`y_t` raised while *serving* the request at ``t(p,j+1)`` belongs
to the *next* interval boundary per the paper's indexing; in this
implementation the eviction performed at time ``t`` (to admit
:math:`p_t`) contributes to ``y[t]``, and page :math:`p_t`'s new
interval starts at ``t``, so its own interval sums exclude ``y[t]`` —
matching the exclusion of :math:`p_t` from the constraint at time *t*.

Lockstep z
----------
While y rises, the z of every interval already outside the cache rises
with it.  Raising each of them on every jump costs one write per page
outside the cache per eviction, so the ledger keeps a running sum of
the y jumps in time order instead (compensated, so a difference of two
far-apart values keeps its low-order bits) and, per *accruing*
interval, the sum at which it started: :meth:`accrue_z` opens one,
:meth:`settle_z` writes its z once when it closes, and an interval
still open is folded in whenever :attr:`z` is read.  A page whose
interval must not rise with a jump (ALG-CONT's :math:`p_t`) is settled
before it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np


@dataclass
class PrimalDualLedger:
    """Complete run record of ALG-CONT over one trace."""

    num_pages: int
    num_users: int
    T: int

    #: request_times[p] = 0-based times page p was requested, in order.
    request_times: Dict[int, List[int]] = field(default_factory=dict)
    #: (p, j) -> 1 if page p was evicted in its j-th interval (j 1-based).
    x: Dict[Tuple[int, int], int] = field(default_factory=dict)
    #: (p, j) -> time the indicator was set (the paper's s(p, j)).
    set_time: Dict[Tuple[int, int], int] = field(default_factory=dict)
    #: y[t] — dual jump at time t (only eviction times are non-zero).
    y: Optional[np.ndarray] = None
    #: (t, page, user) per eviction, in time order.
    eviction_events: List[Tuple[int, int, int]] = field(default_factory=list)
    #: (p, j) -> settled z (read through :attr:`z`).
    _z: Dict[Tuple[int, int], float] = field(
        default_factory=dict, init=False, repr=False
    )
    #: page -> (j, y sum, compensation) where its accruing interval began.
    _accruing: Dict[int, Tuple[int, float, float]] = field(
        default_factory=dict, init=False, repr=False
    )
    #: Running sum of the y jumps (Neumaier: the sum is ``_ys + _yc``).
    _ys: float = field(default=0.0, init=False, repr=False)
    _yc: float = field(default=0.0, init=False, repr=False)
    #: The running sum when the accruing intervals were last folded.
    _folded: Tuple[float, float] = field(
        default=(0.0, 0.0), init=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.y is None:
            self.y = np.zeros(self.T, dtype=float)

    # ------------------------------------------------------------------
    # Recording API (used by ALG-CONT)
    # ------------------------------------------------------------------
    def record_request(self, page: int, t: int) -> int:
        """Note a request of *page* at *t*; returns its interval index j."""
        times = self.request_times.setdefault(page, [])
        times.append(t)
        return len(times)

    def record_eviction(self, page: int, user: int, t: int) -> None:
        """Set :math:`x^\\circ(p, j) = 1` for *page*'s current interval."""
        j = self.current_interval(page)
        key = (page, j)
        if self.x.get(key):
            raise ValueError(f"x({page},{j}) already set")
        self.x[key] = 1
        self.set_time[key] = t
        self.eviction_events.append((t, page, user))

    def record_y_jump(self, t: int, delta: float) -> None:
        """Raise :math:`y^\\circ_t` by *delta* (the eviction-time jump),
        and with it the z of every accruing interval."""
        if delta < 0:
            raise ValueError(f"y must be non-decreasing; got delta={delta}")
        self.y[t] += delta
        if not delta:
            return
        s = self._ys
        total = s + delta
        if abs(s) >= abs(delta):
            self._yc += (s - total) + delta
        else:
            self._yc += (delta - total) + s
        self._ys = total

    def accrue_z(self, page: int) -> None:
        """Start raising :math:`z^\\circ` of *page*'s current interval in
        lockstep with every later y jump (the page just left the cache)."""
        self._accruing[page] = (self.current_interval(page), self._ys, self._yc)

    def settle_z(self, page: int) -> None:
        """Stop *page*'s accruing interval, if any, and write its z."""
        entry = self._accruing.pop(page, None)
        if entry is not None:
            self._credit(page, *entry)

    def _credit(self, page: int, j: int, s: float, c: float) -> None:
        """Add the y jumps since the running sum read ``s + c`` to z(p, j)."""
        dz = (self._ys - s) + (self._yc - c)
        if dz:
            self._z[(page, j)] = self._z.get((page, j), 0.0) + dz

    def record_z_increase(self, page: int, j: int, delta: float) -> None:
        """Raise :math:`z^\\circ(p, j)` by *delta* (lockstep with y)."""
        if delta < 0:
            raise ValueError(f"z must be non-decreasing; got delta={delta}")
        self._z[(page, j)] = self._z.get((page, j), 0.0) + delta

    @property
    def z(self) -> Dict[Tuple[int, int], float]:
        """``(p, j) -> ``:math:`z^\\circ(p, j)`, with every interval still
        accruing folded in first (the dict may be read and edited)."""
        now = (self._ys, self._yc)
        if self._accruing and now != self._folded:
            accruing = self._accruing
            for page, entry in accruing.items():
                self._credit(page, *entry)
                accruing[page] = (entry[0],) + now
            self._folded = now
        return self._z

    # ------------------------------------------------------------------
    # Query API (used by the invariant checker and tests)
    # ------------------------------------------------------------------
    def current_interval(self, page: int) -> int:
        """j such that the page's latest request opened interval j."""
        times = self.request_times.get(page)
        if not times:
            raise KeyError(f"page {page} was never requested")
        return len(times)

    def request_count(self, page: int) -> int:
        """The paper's :math:`r(p, T)`."""
        return len(self.request_times.get(page, ()))

    def interval_bounds(self, page: int, j: int) -> Tuple[int, int]:
        """``(t(p,j), t(p,j+1))`` with ``t(p, r+1) := T`` for the last
        interval (open-ended)."""
        times = self.request_times[page]
        if not (1 <= j <= len(times)):
            raise IndexError(f"page {page} has no interval {j}")
        start = times[j - 1]
        end = times[j] if j < len(times) else self.T
        return start, end

    def y_sum_over_interval(self, page: int, j: int) -> float:
        """:math:`\\sum y_t` for *t* strictly inside interval *j* of *page*,
        i.e. over 0-based times in ``(t(p,j), t(p,j+1))``."""
        start, end = self.interval_bounds(page, j)
        return float(self.y[start + 1 : end].sum())

    def miss_curve(self) -> np.ndarray:
        """``out[t, i]`` = evictions of user *i*'s pages among times
        ``< t`` — the paper's :math:`m(i, t-1)` at 1-based *t*; shape
        ``(T+1, n)``."""
        out = np.zeros((self.T + 1, max(self.num_users, 1)), dtype=np.int64)
        for t, _page, user in self.eviction_events:
            out[t + 1 :, user] += 1
        return out

    def evictions_of_user(self, user: int, up_to: Optional[int] = None) -> int:
        """:math:`m(i, t)` — evictions of *user*'s pages at times ``<= up_to``
        (whole run when ``up_to`` is None)."""
        if up_to is None:
            up_to = self.T
        return sum(1 for t, _p, u in self.eviction_events if u == user and t <= up_to)

    def total_evictions_by_user(self) -> np.ndarray:
        """:math:`m(i, T)` for every user, as an array."""
        out = np.zeros(max(self.num_users, 1), dtype=np.int64)
        for _t, _p, user in self.eviction_events:
            out[user] += 1
        return out

    def objective_value(self, costs) -> float:
        """:math:`\\sum_i f_i(m(i,T))` of the recorded primal solution."""
        m = self.total_evictions_by_user()
        return float(sum(f.value(int(c)) for f, c in zip(costs, m)))

    def x_pairs(self) -> List[Tuple[int, int]]:
        """All (p, j) with :math:`x^\\circ(p,j)=1`, in set-time order."""
        return sorted(self.x, key=lambda key: self.set_time[key])

    def __repr__(self) -> str:
        return (
            f"PrimalDualLedger(T={self.T}, pages={self.num_pages}, "
            f"users={self.num_users}, evictions={len(self.eviction_events)})"
        )


__all__ = ["PrimalDualLedger"]
