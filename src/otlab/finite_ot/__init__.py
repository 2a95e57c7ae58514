"""Exact-rational finite optimal transport with duality certificates."""

from .instance_io import (
    instance_from_json,
    instance_to_json,
    load_instance,
    save_instance,
)
from .monotonicity import is_cyclically_monotone, strong_monotone_potentials
from .solvers import (
    check_complementary_slackness,
    fenchel_value,
    solve_certified,
    solve_dual,
    solve_primal,
    solve_relaxed_dual,
)
from .types import (
    CostMatrix,
    DimensionMismatch,
    DualPair,
    FiniteOTError,
    InfeasibleMarginals,
    InfiniteCostInSupport,
    InfiniteCostOnPi0Support,
    Marginals,
    NegativeEpsilon,
    NoFinitePlan,
    Pi0NotACoupling,
    TransportPlan,
)

__all__ = [
    "CostMatrix",
    "Marginals",
    "TransportPlan",
    "DualPair",
    "FiniteOTError",
    "InfeasibleMarginals",
    "NoFinitePlan",
    "DimensionMismatch",
    "InfiniteCostInSupport",
    "NegativeEpsilon",
    "InfiniteCostOnPi0Support",
    "Pi0NotACoupling",
    "solve_primal",
    "solve_certified",
    "solve_dual",
    "check_complementary_slackness",
    "solve_relaxed_dual",
    "fenchel_value",
    "is_cyclically_monotone",
    "strong_monotone_potentials",
    "instance_to_json",
    "instance_from_json",
    "load_instance",
    "save_instance",
]
