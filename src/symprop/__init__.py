"""Exact order statistics in symmetric and alternating groups.

The package computes, entirely in rational arithmetic, the proportion
of elements of S_n (or A_n) whose order divides m, splits it by how
the first three points are distributed over cycles, bounds it by
closed formulas with certified enclosures for the irrational pieces,
and applies the machinery to ten families of near-full-support cycle
types used for locating long cycles by powering.  A Monte-Carlo layer
cross-checks the exact values by sampling.
"""

from .divisors import (
    divisor_list,
    divisor_rich_candidates,
    gamma_value,
)
from .proportions import (
    ProportionTable,
    SplitProportions,
    prop_alternating,
    prop_order_dividing,
    prop_order_dividing_signed,
    prop_split,
)
from .bounds import (
    EXPECTED_MAJORANT_FAILURES,
    check_prop_upper_bound,
    prop_upper_bound,
    prop_upper_bound_near,
    sweep_divisor_majorant,
    sweep_prop_bound,
    verify_exceptional_m,
    verify_shat_condition,
)
from .recognition import (
    TABLE2_EXCEPTIONS,
    CaseSpec,
    case_params,
    cond_prob,
    cond_probs,
    lower_bound_for,
    prob_A,
    prob_B,
)
from .reports import BoundReport, CondProbReport
from .sampler import (
    SampleStats,
    SearchStats,
    estimate_order_divides,
    search_cost_sim,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CaseSpec",
    "CondProbReport",
    "EXPECTED_MAJORANT_FAILURES",
    "ProportionTable",
    "SampleStats",
    "SearchStats",
    "SplitProportions",
    "TABLE2_EXCEPTIONS",
    "case_params",
    "check_prop_upper_bound",
    "cond_prob",
    "cond_probs",
    "divisor_list",
    "divisor_rich_candidates",
    "estimate_order_divides",
    "gamma_value",
    "lower_bound_for",
    "prob_A",
    "prob_B",
    "prop_alternating",
    "prop_order_dividing",
    "prop_order_dividing_signed",
    "prop_split",
    "prop_upper_bound",
    "prop_upper_bound_near",
    "search_cost_sim",
    "sweep_divisor_majorant",
    "sweep_prop_bound",
    "verify_exceptional_m",
    "verify_shat_condition",
    "__version__",
]
