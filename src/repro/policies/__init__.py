"""Baseline eviction policies.

Everything the paper's related-work section compares against: the
LRU family (LRU, MRU, CLOCK, LRU-K), frequency (LFU), insertion order
(FIFO), phase-based (Marking), randomized (Random), offline (Belady),
weighted caching (GreedyDual, Young [20]) and static per-tenant
partitioning.  The paper's own algorithms live in :mod:`repro.core`.

:data:`POLICY_REGISTRY` maps short names to zero-argument factories for
experiment sweeps.
"""

import inspect
from typing import Callable, Dict, Optional, Union

from repro.core.alg_continuous import AlgContinuous
from repro.core.alg_discrete import AlgDiscrete
from repro.policies.arc import ARCPolicy, TwoQueuePolicy
from repro.policies.belady import BeladyPolicy
from repro.policies.fifo import ClockPolicy, FIFOPolicy
from repro.policies.greedydual import GreedyDualPolicy
from repro.policies.lfu import LFUPolicy
from repro.policies.lru import LRUPolicy, MRUPolicy
from repro.policies.lruk import LRUKPolicy
from repro.policies.marking import MarkingPolicy, RandomizedMarkingPolicy
from repro.policies.random_policy import RandomPolicy
from repro.policies.static_partition import StaticPartitionLRU
from repro.policies.ucp import UCPPolicy
from repro.sim.policy import EvictionPolicy

#: Zero-argument factories for every registered policy.
POLICY_REGISTRY: Dict[str, Callable[[], EvictionPolicy]] = {
    "lru": LRUPolicy,
    "arc": ARCPolicy,
    "2q": TwoQueuePolicy,
    "mru": MRUPolicy,
    "fifo": FIFOPolicy,
    "clock": ClockPolicy,
    "lfu": LFUPolicy,
    "lru-k": LRUKPolicy,
    "random": RandomPolicy,
    "marking": MarkingPolicy,
    "rand-marking": RandomizedMarkingPolicy,
    "belady": BeladyPolicy,
    "greedydual": GreedyDualPolicy,
    "static-lru": StaticPartitionLRU,
    "ucp": UCPPolicy,
    "alg-discrete": AlgDiscrete,
    "alg-cont": AlgContinuous,
}


def make_policy(
    spec: Union[str, Callable[..., EvictionPolicy]], seed: Optional[int] = None
) -> EvictionPolicy:
    """Build a policy from a registry name or a factory — the one place
    every runner turns a policy spec into an instance.

    With a *seed*, a factory that accepts ``rng`` (random,
    rand-marking) is called with ``rng=seed`` and the rest ignore it:
    serving shard *i* and network node *v* pass ``policy_seed + i`` and
    ``policy_seed + v``, grid cell *i* ``derive_seed(base_seed, i)``.
    """
    if isinstance(spec, str):
        try:
            factory = POLICY_REGISTRY[spec]
        except KeyError:
            known = ", ".join(sorted(POLICY_REGISTRY))
            raise KeyError(f"unknown policy {spec!r}; known: {known}") from None
    else:
        factory = spec
    if seed is not None:
        try:
            params = inspect.signature(factory).parameters
        except (TypeError, ValueError):
            params = {}
        if "rng" in params:
            return factory(rng=seed)
    return factory()


__all__ = [
    "LRUPolicy",
    "ARCPolicy",
    "TwoQueuePolicy",
    "MRUPolicy",
    "FIFOPolicy",
    "ClockPolicy",
    "LFUPolicy",
    "LRUKPolicy",
    "RandomPolicy",
    "MarkingPolicy",
    "RandomizedMarkingPolicy",
    "BeladyPolicy",
    "GreedyDualPolicy",
    "StaticPartitionLRU",
    "UCPPolicy",
    "POLICY_REGISTRY",
    "make_policy",
]
