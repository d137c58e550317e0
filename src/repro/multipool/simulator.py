"""Multi-pool simulation: per-pool caches, per-pool eviction policies,
epoch-boundary migrations.

Each pool runs its own instance of an eviction policy (by default the
paper's ALG-DISCRETE, so the single-pool guarantees apply within each
pool); a migration flushes the user's resident pages from the old pool
and re-routes its future requests to the new one.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

import numpy as np

from repro.core.alg_discrete import AlgDiscrete
from repro.core.cost_functions import CostFunction
from repro.multipool.assignment import AssignmentStrategy
from repro.multipool.model import MultiPoolResult, PoolSystem
from repro.sim.engine import CacheState
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
    if len(costs) < n:
        raise ValueError(f"need {n} cost functions, got {len(costs)}")

    page_counts = np.bincount(trace.owners, minlength=n)
    assignment = np.asarray(
        strategy.initial(system, n, page_counts, costs), dtype=np.int64
    ).copy()
    if assignment.size != n or assignment.min() < 0 or assignment.max() >= system.num_pools:
        raise ValueError("strategy returned an invalid assignment")

    # One kernel cache state per pool. Policies see the full owner/cost
    # tables; they only ever meet pages routed to their pool.
    pools: List[CacheState] = []
    for p in range(system.num_pools):
        policy = policy_factory()
        if policy.requires_future:
            raise ValueError("multi-pool simulation supports online policies only")
        ctx = SimContext(
            k=int(system.capacities[p]),
            owners=trace.owners,
            num_users=n,
            costs=costs if policy.requires_costs else costs,
            trace=None,
            num_pages=trace.num_pages,
            horizon=trace.length,
        )
        policy.reset(ctx)
        pools.append(CacheState(policy, ctx.k, trace.num_pages, label=f"pool {p} policy"))

    user_misses = np.zeros(n, dtype=np.int64)
    epoch_misses = np.zeros(n, dtype=np.int64)
    per_pool_misses = np.zeros(system.num_pools, dtype=np.int64)
    resident_by_user = np.zeros(n, dtype=np.int64)
    migrations = 0

    owners = trace.owners
    requests = trace.requests
    for t in range(requests.size):
        page = int(requests[t])
        user = int(owners[page])
        pool = int(assignment[user])
        cache = pools[pool]
        if cache.res[page]:
            cache.policy.on_hit(page, t)
        else:
            user_misses[user] += 1
            epoch_misses[user] += 1
            per_pool_misses[pool] += 1
            victim = cache.admit(page, t)
            resident_by_user[user] += 1
            if victim is not None:
                resident_by_user[int(owners[victim])] -= 1

        # Epoch boundary: offer the strategy one migration.
        if (t + 1) % epoch_length == 0:
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
                            resident_by_user[mig_user] -= 1
                    assignment[mig_user] = new_pool
                    migrations += 1
            epoch_misses[:] = 0

    return MultiPoolResult(
        assignment_name=strategy.name,
        user_misses=user_misses,
        migrations=migrations,
        migration_cost_paid=migrations * system.migration_cost,
        final_assignment=assignment,
        per_pool_misses=per_pool_misses,
    )


__all__ = ["simulate_multipool"]
