"""E18 — auditor exactness on the §4 lower-bound instance.

The streaming :class:`~repro.obs.audit.CompetitiveAuditor` is only
worth trusting if, on an instance whose competitive ratio is *known*,
its live gauge reads the same number the offline analysis computes.
Theorem 1.4's adversarial construction (paper §4) is exactly that
instance: *n* single-page tenants, cache :math:`k = n - 1`, costs
:math:`f_i(x) = x^{\\beta}`, and a request-the-missing-page adversary
forcing the online ratio to :math:`\\Omega((k/4)^{\\beta})`.

For each *n* this experiment drives an online policy with the
:class:`~repro.core.lower_bound.AdaptiveAdversary`, then streams the
recorded trace through :func:`~repro.obs.monitor.watch_simulation`
with an auditor attached, and checks:

1. **Exact online side** — the auditor's per-tenant miss counters
   equal the adversary run's ground truth exactly.
2. **Exact ratio** — the audited ratio equals the post-hoc
   :func:`~repro.core.lower_bound.measure_lower_bound` ratio to
   floating-point accuracy: the windowed Belady baseline recovers the
   §4 batched-offline schedule's cost on this instance.
3. **Trajectory** — the audited ratio exceeds the
   :func:`~repro.analysis.bounds.theorem_1_4_floor` value
   :math:`(n/4)^{\\beta}` and grows monotonically in *n*, reproducing
   the :math:`(k/4)^{\\beta}` trajectory live.
4. **Theorem 1.1 gauge** — ``bound_holds`` on every cell: even on the
   adversarial instance the online cost stays under
   :math:`\\sum_i f_i(\\alpha k \\hat b_i)`.

Expected shape: ratios match the offline measurement exactly, sit well
above the floor, and rise with *n*; every Theorem 1.1 gauge holds.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List

from repro.analysis.bounds import theorem_1_4_floor
from repro.analysis.report import ascii_table
from repro.core.lower_bound import (
    AdaptiveAdversary,
    lower_bound_costs,
    measure_lower_bound,
)
from repro.experiments.base import ExperimentOutput
from repro.obs import CompetitiveAuditor
from repro.obs.monitor import watch_simulation
from repro.policies import make_policy

EXPERIMENT_ID = "e18"
TITLE = "Live audit of the §4 lower bound: streamed ratio vs. (k/4)^beta"

BETA = 2.0
POLICIES = ("lru", "alg-discrete")

#: Relative tolerance for "the streamed ratio equals the offline one".
RATIO_RTOL = 1e-9


def run(quick: bool = True, seed: int = 0) -> ExperimentOutput:
    del seed  # the adversarial instance is deterministic
    ns = (6, 9, 12) if quick else (6, 9, 12, 16, 20)
    steps_per_user = 40 if quick else 80

    rows: List[Dict[str, object]] = []
    exact_online = True
    exact_ratio = True
    above_floor = True
    monotone = True
    bound_held = True

    for policy_name in POLICIES:
        factory = partial(make_policy, policy_name)
        prev_ratio = 0.0
        for n in ns:
            k = n - 1
            T = steps_per_user * n
            costs = lower_bound_costs(n, BETA)

            adversarial = AdaptiveAdversary(n, T).run(factory(), costs=costs)
            auditor = CompetitiveAuditor(costs, k, window=2 * k)
            watch_simulation(
                adversarial.trace, factory(), k, costs, auditor=auditor
            )
            snap = auditor.snapshot()
            offline = measure_lower_bound(factory, n, BETA, T)
            floor = theorem_1_4_floor(n, BETA)

            live = [int(m) for m in auditor.online_total]
            truth = [int(m) for m in adversarial.online_result.user_misses]
            exact_online &= live == truth

            ratio = float(snap["audit_ratio"])
            drift = abs(ratio - offline.ratio) / max(offline.ratio, 1.0)
            exact_ratio &= drift <= RATIO_RTOL
            above_floor &= ratio >= floor
            monotone &= ratio > prev_ratio
            bound_held &= bool(snap["bound_holds"])
            prev_ratio = ratio

            rows.append(
                {
                    "policy": policy_name,
                    "n": n,
                    "k": k,
                    "T": T,
                    "audited_ratio": round(ratio, 3),
                    "offline_ratio": round(offline.ratio, 3),
                    "floor_(n/4)^b": round(floor, 3),
                    "ratio/floor": round(ratio / floor, 3),
                    "bound_holds": bool(snap["bound_holds"]),
                }
            )

    checks = {
        "auditor online misses equal adversary ground truth": exact_online,
        "audited ratio equals offline measurement (rtol 1e-9)": exact_ratio,
        "audited ratio >= (n/4)^beta floor on every cell": above_floor,
        "audited ratio grows monotonically with n": monotone,
        "Theorem 1.1 gauge holds on the adversarial instance": bound_held,
    }

    text = ascii_table(
        rows,
        title=(
            f"Streaming audit of the Theorem 1.4 instance "
            f"(beta={BETA:g}, T={steps_per_user}n, window=2k)"
        ),
    )
    return ExperimentOutput(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        text=text,
        shape_checks=checks,
    )


__all__ = ["run", "EXPERIMENT_ID", "TITLE", "BETA", "POLICIES"]
