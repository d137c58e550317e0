"""The eviction-policy protocol all algorithms implement.

The engine (:mod:`repro.sim.engine`) owns the cache contents and
capacity enforcement; a policy only maintains its private metadata and
answers one question — *which resident page to evict* — when the cache
is full and a miss occurs.  This keeps every policy (the paper's
ALG-DISCRETE/ALG-CONT, and all baselines) running under identical
mechanics, so measured miss counts are attributable to the decision
rule alone.

Lifecycle per simulation::

    policy.reset(ctx)                  # fresh state, sees k / owners / costs
    for t, page in requests:           # t strictly increasing
        if hit:      policy.on_hit(page, t)
        elif space:  policy.on_insert(page, t)
        else:        victim = policy.choose_victim(page, t)
                     policy.on_evict(victim, t)      # engine notifies
                     policy.on_insert(page, t)

Every path applies requests through one kernel,
:class:`repro.sim.engine.CacheState` — the simulator, each serving
shard on its subsequence of the global clock, each network node — so
the times a policy sees increase strictly but may have gaps.

The kernel delivers consecutive hits *between* two misses as one
:meth:`EvictionPolicy.on_hit_batch` call instead of per-request
:meth:`~EvictionPolicy.on_hit` calls (after a batch of short runs it
delivers each hit through ``on_hit``, which is cheaper there).
Residency only changes on misses, so a policy observes exactly the
same information either way; the
default ``on_hit_batch`` loops ``on_hit`` and is therefore always
correct, while policies whose hit bookkeeping collapses (recency moves
where only the last occurrence matters, idempotent refreshes, counter
bumps) override it with a tuned version.  Policies that ignore hits
entirely (FIFO, Random) declare ``ignores_hits = True`` and the kernel
skips delivery altogether.

Offline policies (Belady, the §4 batch strategy) set
``requires_future = True`` and read ``ctx.trace``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.core.cost_functions import CostFunction
from repro.sim.trace import Trace


@dataclass
class SimContext:
    """Everything a policy may consult when reset.

    Attributes
    ----------
    k:
        Cache capacity (the paper's :math:`k`).
    owners:
        ``owners[p]`` = user owning page ``p`` (the paper's
        :math:`i(p)`).
    num_users:
        Number of users :math:`n`.
    costs:
        Per-user cost functions, or ``None`` for cost-blind baselines.
    trace:
        The full trace — present only for offline policies; online
        policies must not read it (enforced by the engine handing
        ``None`` unless ``requires_future``).
    """

    k: int
    owners: np.ndarray
    num_users: int
    costs: Optional[Sequence[CostFunction]] = None
    trace: Optional[Trace] = None
    #: Total pages in the universe (always available; not future info).
    num_pages: int = 0
    #: Trace length T (known to the *simulation*, not the adversary; the
    #: paper's algorithms never read it — it sizes the dual ledger).
    horizon: int = 0

    def cost_of(self, user: int) -> CostFunction:
        if self.costs is None:
            raise ValueError("this context has no cost functions")
        return self.costs[user]


class EvictionPolicy(ABC):
    """Base class for all eviction policies.

    Subclasses must implement :meth:`reset` and :meth:`choose_victim`;
    the hit/insert/evict notifications default to no-ops.
    """

    #: Set by offline policies that must see the whole trace up front.
    requires_future: bool = False

    #: Set by cost-aware policies that need ``ctx.costs``.
    requires_costs: bool = False

    #: Set by policies whose state is unaffected by hits (``on_hit`` is
    #: a no-op).  The fast engine then skips hit delivery entirely, so
    #: long hit runs cost it a vectorized scan and nothing else.
    ignores_hits: bool = False

    #: Short name used in experiment tables; subclasses override.
    name: str = "policy"

    @abstractmethod
    def reset(self, ctx: SimContext) -> None:
        """Clear state for a fresh simulation over *ctx*."""

    @abstractmethod
    def choose_victim(self, page: int, t: int) -> int:
        """Return the resident page to evict so *page* can be inserted.

        Called only when the cache is full and *page* missed.  The
        returned page must currently be resident; the engine validates
        this and raises otherwise.
        """

    def on_hit(self, page: int, t: int) -> None:
        """*page* was requested at time *t* and was resident."""

    def on_hit_batch(self, pages: Sequence[int], ts: Sequence[int]) -> None:
        """A maximal run of consecutive hits: ``pages[i]`` was requested
        (and resident) at time ``ts[i]``; no misses occurred in between,
        so residency was constant across the run.  The times increase
        strictly but need not be consecutive: a shard or a network node
        sees a subsequence of the global clock.  The simulator passes a
        ``range``.

        The default delivers each hit through :meth:`on_hit` in order,
        which is correct for every policy.  Override when the run can be
        processed cheaper in one pass — e.g. recency orders depend only
        on each page's *last* occurrence, reference bits and idempotent
        budget refreshes need each distinct page only once, and
        frequency counters can take one bump of ``count`` instead of
        ``count`` bumps of one.  An override must leave the policy in a
        state observably identical (victim choices, introspection) to
        the per-hit loop, gapped times included;
        ``tests/test_kernel.py`` enforces this for every registered
        policy.
        """
        on_hit = self.on_hit
        for page, t in zip(pages, ts):
            on_hit(page, t)

    def on_insert(self, page: int, t: int) -> None:
        """*page* was inserted at time *t* (after a miss)."""

    def on_evict(self, page: int, t: int) -> None:
        """*page* chosen by :meth:`choose_victim` was removed at *t*."""

    def on_flush(self, page: int, t: int) -> None:
        """*page* was removed by an external mechanism (e.g. a tenant
        migration in the multi-pool simulator), **not** by this policy's
        own victim choice.  Defaults to :meth:`on_evict`; policies whose
        eviction bookkeeping assumes the victim is their own choice
        (ALG-DISCRETE's dual updates) override this to simply forget
        the page."""
        self.on_evict(page, t)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


__all__ = ["SimContext", "EvictionPolicy"]
