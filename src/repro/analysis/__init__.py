"""Queueing analysis helpers: M/M/1 pieces, fixed points, residual times."""

from .bounds import CapacityBound, best_static_capacity, capacity_bound
from .fixedpoint import FixedPointResult, solve_fixed_point
from .mm1 import (
    MAX_UTILIZATION,
    clamp_utilization,
    mm1_expansion,
    mm1_mean_number,
    mm1_response_time,
    utilization_from_population,
    utilization_from_queue_length,
)
from .residual import (
    mean_holding_time,
    probability_local_outlives,
    triangular_residual_mean,
    uniform_residual_mean,
)
from .variance import PairedPointDelta, paired_curve_difference

__all__ = [
    "CapacityBound",
    "best_static_capacity",
    "capacity_bound",
    "FixedPointResult",
    "solve_fixed_point",
    "MAX_UTILIZATION",
    "clamp_utilization",
    "mm1_expansion",
    "mm1_mean_number",
    "mm1_response_time",
    "utilization_from_population",
    "utilization_from_queue_length",
    "mean_holding_time",
    "probability_local_outlives",
    "triangular_residual_mean",
    "uniform_residual_mean",
    "PairedPointDelta",
    "paired_curve_difference",
]
