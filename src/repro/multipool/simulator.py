"""Multi-pool simulation: per-pool caches, per-pool eviction policies,
epoch-boundary migrations.

Each pool runs its own instance of an eviction policy (by default the
paper's ALG-DISCRETE, so the single-pool guarantees apply within each
pool); a migration flushes the user's resident pages from the old pool
and re-routes its future requests to the new one.  The pools are
kernel cache states fed through a page → pool table
(:func:`~repro.sim.engine.serve_routed`), one epoch per call.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

import numpy as np

from repro.core.alg_discrete import AlgDiscrete
from repro.core.cost_functions import CostFunction
from repro.multipool.assignment import AssignmentStrategy
from repro.multipool.model import MultiPoolResult, PoolSystem
from repro.sim.engine import CacheState, serve_routed
from repro.sim.policy import EvictionPolicy, SimContext
from repro.sim.trace import Trace
from repro.util.validation import check_positive_int


def simulate_multipool(
    trace: Trace,
    costs: Sequence[CostFunction],
    system: PoolSystem,
    strategy: AssignmentStrategy,
    epoch_length: int = 1_000,
    policy_factory: Callable[[], EvictionPolicy] = AlgDiscrete,
) -> MultiPoolResult:
    """Run *trace* over a multi-pool system under *strategy*.

    Parameters
    ----------
    trace, costs:
        The shared workload and per-user convex costs.
    system:
        Pool capacities and the per-migration cost.
    strategy:
        Initial assignment + optional epoch rebalancing.
    epoch_length:
        Requests between rebalance opportunities.
    policy_factory:
        Builds each pool's eviction policy (default: ALG-DISCRETE, so
        each pool independently enjoys the paper's guarantee over the
        sub-stream it serves).
    """
    epoch_length = check_positive_int(epoch_length, "epoch_length")
    n = trace.num_users
    owners = trace.owners

    # One kernel cache state per pool. Policies see the full owner/cost
    # tables; they only ever meet pages routed to their pool.
    pools: List[CacheState] = []
    for p in range(system.num_pools):
        policy = policy_factory()
        if policy.requires_future:
            raise ValueError("multi-pool simulation supports online policies only")
        ctx = SimContext(
            k=int(system.capacities[p]),
            owners=owners,
            num_users=n,
            costs=costs,
            num_pages=trace.num_pages,
            horizon=trace.length,
        )
        pools.append(CacheState(policy, ctx, label=f"pool {p} policy"))

    page_counts = np.bincount(owners, minlength=n)
    assignment = np.asarray(
        strategy.initial(system, n, page_counts, costs), dtype=np.int64
    ).copy()
    if assignment.size != n or assignment.min() < 0 or assignment.max() >= system.num_pools:
        raise ValueError("strategy returned an invalid assignment")

    user_misses = np.zeros(n, dtype=np.int64)
    per_pool_misses = np.zeros(system.num_pools, dtype=np.int64)
    migrations = 0
    table = assignment[owners]
    at = table.tolist()
    requests = trace.requests
    for lo in range(0, requests.size, epoch_length):
        pages = requests[lo : lo + epoch_length]
        missed = serve_routed(pools, table, at, pages, range(lo, lo + pages.size))
        missed_pages = pages[missed]
        epoch_misses = np.bincount(owners[missed_pages], minlength=n)
        user_misses += epoch_misses
        per_pool_misses += np.bincount(
            table[missed_pages], minlength=system.num_pools
        )
        if pages.size < epoch_length:
            break
        # Epoch boundary: offer the strategy one migration.
        t = lo + epoch_length - 1
        resident_by_user = sum(
            np.bincount(owners[pool.res_arr], minlength=n) for pool in pools
        )
        move = strategy.rebalance(
            system,
            assignment,
            epoch_misses,
            user_misses,
            costs,
            resident_by_user=resident_by_user,
        )
        if move is not None:
            mig_user, new_pool = move
            old_pool = int(assignment[mig_user])
            if not (0 <= new_pool < system.num_pools):
                raise ValueError(f"strategy chose invalid pool {new_pool}")
            if new_pool != old_pool:
                # Flush the user's resident pages from the old pool.
                old_cache = pools[old_pool]
                for resident in old_cache.resident():
                    if int(owners[resident]) == mig_user:
                        old_cache.flush(resident, t)
                assignment[mig_user] = new_pool
                table = assignment[owners]
                at = table.tolist()
                migrations += 1

    return MultiPoolResult(
        assignment_name=strategy.name,
        user_misses=user_misses,
        migrations=migrations,
        migration_cost_paid=migrations * system.migration_cost,
        final_assignment=assignment,
        per_pool_misses=per_pool_misses,
    )


__all__ = ["simulate_multipool"]
