"""E19 — the price of distribution: a cache hierarchy vs one big box.

The paper prices a *single* cache of size :math:`k` at
:math:`\\sum_i f_i(a_i(\\sigma))`.  A CDN operator instead splits the
same capacity across a path of edge/mid/core caches; this experiment
measures what that split costs.  A ``DEPTH``-level path hierarchy
(equal per-level capacity, cheap inner links, an expensive origin
link) runs against a single cache of **equal total capacity** placed
at the edge, over Zipf traces of increasing skew and the §4 adaptive
adversary, under the two classical admission strategies:

* **LCE** (leave-copy-everywhere) replicates every fetched page at
  every level, so the effective capacity of the hierarchy shrinks
  toward one level's worth as the hot set concentrates — the price of
  distribution ``cost(hierarchy)/cost(single)`` starts above 1 and
  *grows with skew* (the hotter the head, the more capacity the
  duplicates burn).

* **LCD** (leave-copy-down) moves a page one level edge-ward per
  request, approximating an exclusive hierarchy: its price stays near
  1 (and can dip *below* — the level structure acts as a coarse
  frequency filter that protects the upper levels from one-hit
  wonders, cf. the reserves/marking line of work).

* On the **§4 adversary** (recorded against the single LRU box) every
  post-warmup request misses *everywhere* — an always-miss stream is
  indifferent to how capacity is arranged, so the price is exactly 1:
  distribution neither helps nor hurts the lower-bound instance.

End-to-end latency tells the same story from the client side: LCE's
duplicate-filled hierarchy serves fewer requests near the edge than
the single box does, while LCD matches it.

Expected shape: LCE price >= 1 everywhere and monotone in skew; LCD
price <= LCE price and LCD origin traffic <= LCE origin traffic on
every cell; adversary price == 1 under both; every ledger conserves.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.report import ascii_table
from repro.core.cost_functions import MonomialCost
from repro.core.lower_bound import AdaptiveAdversary, lower_bound_costs
from repro.experiments.base import ExperimentOutput
from repro.net import path_topology, simulate_network, single_node_topology
from repro.policies import make_policy
from repro.workloads import zipf_trace

EXPERIMENT_ID = "e19"
TITLE = "Price of distribution: hierarchy cost & latency vs one big cache"

DEPTH = 3
LEVEL_K = 64
POLICY = "lru"
STRATEGIES = ("lce", "lcd")
BETA = 2.0


def _run_cell(topology, single, trace, costs, strategy):
    hier = simulate_network(topology, trace, POLICY, strategy=strategy)
    hier.check_conservation()
    return hier


def run(quick: bool = True, seed: int = 0) -> ExperimentOutput:
    skews = (0.6, 0.9, 1.2) if quick else (0.6, 0.8, 1.0, 1.2)
    T = 30_000 if quick else 120_000
    num_pages = 2_048 if quick else 8_192
    adv_n = 10 if quick else 16

    topology = path_topology(
        DEPTH, LEVEL_K, read_delay=1.0, origin_delay=10.0
    )
    one_way = topology.prefix_read_delay(0)[-1]
    single = single_node_topology(
        topology.total_cache_capacity, origin_delay=one_way
    )

    rows: List[Dict[str, object]] = []
    lce_price_ge_1 = True
    lce_price_monotone = True
    lcd_le_lce = True
    lcd_origin_le_lce = True
    lce_latency_ge_single = True
    adversary_price_1 = True

    prev_lce_price = 0.0
    for skew in skews:
        trace = zipf_trace(
            num_pages=num_pages, length=T, skew=skew, seed=seed
        )
        costs = [MonomialCost(BETA) for _ in range(trace.num_users)]
        base = simulate_network(single, trace, POLICY)
        base.check_conservation()
        base_cost = base.hierarchy_cost(costs)
        cell: Dict[str, float] = {}
        for strategy in STRATEGIES:
            hier = _run_cell(topology, single, trace, costs, strategy)
            price = hier.hierarchy_cost(costs) / base_cost
            cell[strategy] = price
            rows.append(
                {
                    "workload": f"zipf({skew:g})",
                    "strategy": strategy,
                    "hier_hit": round(hier.network_hit_ratio, 3),
                    "single_hit": round(base.network_hit_ratio, 3),
                    "hier_origin": hier.origin_total,
                    "single_origin": base.origin_total,
                    "price": round(price, 4),
                    "hier_lat": round(hier.latency.mean(), 2),
                    "single_lat": round(base.latency.mean(), 2),
                }
            )
            if strategy == "lce":
                lce_price_ge_1 &= price >= 1.0
                lce_price_monotone &= price > prev_lce_price
                prev_lce_price = price
                lce_latency_ge_single &= (
                    hier.latency.mean() >= base.latency.mean()
                )
                lce_origin = hier.origin_total
            else:
                lcd_le_lce &= price <= cell["lce"]
                lcd_origin_le_lce &= hier.origin_total <= lce_origin

    # The §4 adversary, recorded against the single LRU box of the same
    # total capacity, then replayed through both arrangements.
    adv_k = adv_n - 1
    adv = AdaptiveAdversary(adv_n, 40 * adv_n).run(
        make_policy(POLICY)
    )
    adv_costs = lower_bound_costs(adv_n, BETA)
    per_level = [adv_k // DEPTH] * DEPTH
    per_level[0] += adv_k - sum(per_level)
    adv_topology = path_topology(
        DEPTH, per_level, read_delay=1.0, origin_delay=10.0
    )
    adv_single = single_node_topology(
        adv_k, origin_delay=adv_topology.prefix_read_delay(0)[-1]
    )
    base = simulate_network(adv_single, adv.trace, POLICY)
    base.check_conservation()
    base_cost = base.hierarchy_cost(adv_costs)
    for strategy in STRATEGIES:
        hier = _run_cell(adv_topology, adv_single, adv.trace, adv_costs, strategy)
        price = hier.hierarchy_cost(adv_costs) / base_cost
        adversary_price_1 &= abs(price - 1.0) < 1e-12
        rows.append(
            {
                "workload": f"§4 adv(n={adv_n})",
                "strategy": strategy,
                "hier_hit": round(hier.network_hit_ratio, 3),
                "single_hit": round(base.network_hit_ratio, 3),
                "hier_origin": hier.origin_total,
                "single_origin": base.origin_total,
                "price": round(price, 4),
                "hier_lat": round(hier.latency.mean(), 2),
                "single_lat": round(base.latency.mean(), 2),
            }
        )

    checks = {
        "LCE price of distribution >= 1 on every Zipf cell": lce_price_ge_1,
        "LCE price grows monotonically with skew": lce_price_monotone,
        "LCD price <= LCE price on every cell": lcd_le_lce,
        "LCD origin traffic <= LCE origin traffic on every cell": (
            lcd_origin_le_lce
        ),
        "LCE mean latency >= single-box latency on every Zipf cell": (
            lce_latency_ge_single
        ),
        "§4 adversary is indifferent to distribution (price == 1)": (
            adversary_price_1
        ),
    }

    text = ascii_table(
        rows,
        title=(
            f"{DEPTH}-level path (k={LEVEL_K}/level) vs one "
            f"k={DEPTH * LEVEL_K} box, policy={POLICY}, beta={BETA:g}, T={T}"
        ),
    )
    return ExperimentOutput(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        text=text,
        shape_checks=checks,
    )


__all__ = ["run", "EXPERIMENT_ID", "TITLE", "DEPTH", "LEVEL_K", "STRATEGIES"]
