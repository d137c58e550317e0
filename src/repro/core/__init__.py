"""The paper's primary contribution: cost functions, the primal-dual
online algorithms (ALG-DISCRETE / ALG-CONT), the convex programs, the
invariant machinery, offline optima, Claim 2.3, and the Theorem 1.4
lower-bound construction.
"""

from repro.core.alg_continuous import AlgContinuous
from repro.core.alg_discrete import DERIVATIVE_MODES, AlgDiscrete
from repro.core.alg_discrete_naive import NaiveAlgDiscrete
from repro.core.fractional_online import (
    FractionalRunResult,
    OnlineFractionalCaching,
    bbn_competitive_ceiling,
)
from repro.core.claims import ClaimCheck, check_claim_2_3, claim_2_3_tightness_profile
from repro.core.convex_program import (
    ConvexProgram,
    FractionalSolution,
    build_program,
    fractional_opt_lower_bound,
    solution_from_events,
    solve_fractional,
)
from repro.core.cost_functions import (
    CallableCost,
    CostFunction,
    ExponentialCost,
    LinearCost,
    MonomialCost,
    PiecewiseLinearCost,
    PolynomialCost,
    ScaledCost,
    SumCost,
    TableCost,
    combined_alpha,
    curvature_ratio,
    discrete_alpha,
    numeric_alpha,
    validate_paper_assumptions,
)
from repro.core.invariants import (
    InvariantReport,
    Violation,
    check_invariants,
    flush_weight,
    flushed_instance,
)
from repro.core.ledger import PrimalDualLedger
from repro.core.lower_bound import (
    AdaptiveAdversary,
    AdversarialRun,
    BatchedOfflinePolicy,
    LowerBoundMeasurement,
    lower_bound_costs,
    measure_lower_bound,
)
from repro.core.offline import (
    OfflineOptResult,
    WeightedBeladyPolicy,
    belady_misses,
    brute_force_offline_opt,
    exact_offline_opt,
    exact_weighted_opt_lp,
    heuristic_offline_cost,
)

__all__ = [
    # algorithms
    "AlgDiscrete",
    "NaiveAlgDiscrete",
    "DERIVATIVE_MODES",
    "AlgContinuous",
    "OnlineFractionalCaching",
    "FractionalRunResult",
    "bbn_competitive_ceiling",
    "PrimalDualLedger",
    # cost functions
    "CostFunction",
    "LinearCost",
    "MonomialCost",
    "PolynomialCost",
    "PiecewiseLinearCost",
    "ExponentialCost",
    "TableCost",
    "ScaledCost",
    "SumCost",
    "CallableCost",
    "curvature_ratio",
    "numeric_alpha",
    "discrete_alpha",
    "combined_alpha",
    "validate_paper_assumptions",
    # invariants
    "InvariantReport",
    "Violation",
    "check_invariants",
    "flushed_instance",
    "flush_weight",
    # convex programs
    "ConvexProgram",
    "build_program",
    "solution_from_events",
    "FractionalSolution",
    "solve_fractional",
    "fractional_opt_lower_bound",
    # offline optima
    "OfflineOptResult",
    "belady_misses",
    "WeightedBeladyPolicy",
    "heuristic_offline_cost",
    "exact_offline_opt",
    "exact_weighted_opt_lp",
    "brute_force_offline_opt",
    # claims
    "ClaimCheck",
    "check_claim_2_3",
    "claim_2_3_tightness_profile",
    # lower bound
    "AdaptiveAdversary",
    "AdversarialRun",
    "BatchedOfflinePolicy",
    "LowerBoundMeasurement",
    "lower_bound_costs",
    "measure_lower_bound",
]
