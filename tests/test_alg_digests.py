"""Pinned decisions of ALG-DISCRETE and ALG-CONT on non-dyadic inputs.

The differential tests against the naive transliteration use dyadic
inputs, where every budget is an exact float and no tie depends on
rounding.  Here slopes, breakpoints and weights are not dyadic (0.3,
2.7, 37.3, ...), so budgets carry rounding error and near-ties order
by how the lazy offsets round.  A change to that arithmetic — the
order of additions in a stored key, a clamp, when the tenant heap is
refreshed — moves some eviction and changes the digest.

The traces come from :class:`random.Random` with products of uniforms
for skew (no ``pow``), so the digests depend on neither numpy's
generator streams nor the platform's ``libm``.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest

from repro.core.alg_continuous import AlgContinuous
from repro.core.alg_discrete import AlgDiscrete
from repro.core.cost_functions import LinearCost, PiecewiseLinearCost
from repro.sim.engine import simulate
from repro.sim.trace import Trace


def mixed_trace(seed, sizes, shares, length):
    """Tenants of *sizes* pages drawn with relative *shares*; within a
    tenant, page ``int(size * u1 * u2 * u3)`` favours low ids."""
    rng = random.Random(seed)
    offsets = [sum(sizes[:i]) for i in range(len(sizes))]
    total = float(sum(shares))
    cuts = [sum(shares[: i + 1]) / total for i in range(len(shares))]
    requests = []
    for _ in range(length):
        u = rng.random()
        tenant = next(i for i, c in enumerate(cuts) if u < c or i == len(cuts) - 1)
        skew = rng.random() * rng.random() * rng.random()
        requests.append(offsets[tenant] + int(sizes[tenant] * skew))
    owners = [i for i, size in enumerate(sizes) for _ in range(size)]
    return Trace(np.array(requests, dtype=np.int64), np.array(owners, dtype=np.int64))


def sla_case():
    trace = mixed_trace(11, [200, 80, 400, 30, 150], [3.0, 1.0, 5.0, 0.5, 2.0], 20_000)
    costs = [
        PiecewiseLinearCost.sla(37.3, 2.7, 0.3),
        PiecewiseLinearCost.sla(113.7, 0.9, 0.1),
        PiecewiseLinearCost.sla(251.1, 37.3, 2.7),
        PiecewiseLinearCost.sla(19.9, 1.3),
        PiecewiseLinearCost.sla(600.3, 5.1, 0.7),
    ]
    return trace, costs, 250


def linear_case():
    trace = mixed_trace(23, [300, 500, 120], [2.0, 3.0, 1.0], 12_000)
    return trace, [LinearCost(0.3), LinearCost(1.7), LinearCost(1.1)], 200


CASES = {"sla": sla_case, "linear": linear_case}

POLICIES = {
    "continuous": lambda: AlgDiscrete("continuous"),
    "marginal": lambda: AlgDiscrete("marginal"),
    "smoothed-4": lambda: AlgDiscrete("smoothed", smoothing_window=4),
    "alg-cont": lambda: AlgContinuous("continuous"),
}

#: sha256 of (events, user_misses), first 16 hex digits.  ALG-CONT makes
#: ALG-DISCRETE's decisions, so the continuous-mode digests agree.
DIGESTS = {
    ("sla", "continuous"): "d6eba04012ff4301",
    ("sla", "marginal"): "6697d05268fe1224",
    ("sla", "smoothed-4"): "e2fe75168aec1e10",
    ("sla", "alg-cont"): "d6eba04012ff4301",
    ("linear", "continuous"): "0a8c8cb9f8a7a679",
    ("linear", "marginal"): "0a8c8cb9f8a7a679",
    ("linear", "smoothed-4"): "06a0e5b204bbd22d",
    ("linear", "alg-cont"): "0a8c8cb9f8a7a679",
}


def decision_digest(case, policy):
    trace, costs, k = CASES[case]()
    r = simulate(trace, POLICIES[policy](), k, costs=costs, record_events=True)
    h = hashlib.sha256()
    h.update(repr([(e.t, e.requested, e.victim) for e in r.events]).encode())
    h.update(repr(r.user_misses.tolist()).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("case,policy", sorted(DIGESTS))
def test_decisions_pinned(case, policy):
    assert decision_digest(case, policy) == DIGESTS[case, policy]
