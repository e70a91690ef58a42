"""The paper's contribution: load-sharing strategies for hybrid systems.

Exports the analytic model, the static optimiser, the four analytic
dynamic strategies, the heuristics, and a registry of named strategy
factories used by the experiment harness.
"""

from typing import Callable

from ..hybrid.config import SystemConfig
from .distributed_model import (
    DistributedEstimate,
    DistributedModel,
    crossover_locality,
)
from .dynamic import (
    MinAverageResponseRouter,
    MinIncomingResponseRouter,
    min_average_population_router,
    min_average_queue_router,
    min_incoming_population_router,
    min_incoming_queue_router,
)
from .estimators import StateEstimator, UtilizationSource
from .heuristics import (
    MeasuredResponseTimeRouter,
    QueueLengthRouter,
    SenderInitiatedRouter,
    ThresholdUtilizationRouter,
    measured_response_router,
    queue_length_router,
    sender_initiated_router_factory,
    threshold_router_factory,
)
from .model import AnalyticModel, ContentionState, ModelEstimates
from .router import (
    AlwaysLocalRouter,
    AlwaysShipRouter,
    Router,
    RouterFactory,
    RoutingObservation,
)
from .static import (
    StaticOptimum,
    StaticRouter,
    optimal_static_router_factory,
    optimize_static,
    static_router_factory,
)


def no_load_sharing_router(config: SystemConfig, site: int) -> Router:
    """Factory for the no-load-sharing baseline."""
    return AlwaysLocalRouter()


#: Named strategy factories (keyed as used in figures and reports).
#: Entries are ``name -> factory-builder(config) -> RouterFactory``; the
#: indirection lets the static strategy run its optimisation per config.
STRATEGIES: dict[str, Callable[[SystemConfig], RouterFactory]] = {
    "none": lambda config: no_load_sharing_router,
    "static-optimal": optimal_static_router_factory,
    "measured-response": lambda config: measured_response_router,
    "queue-length": lambda config: queue_length_router,
    "min-incoming-queue": lambda config: min_incoming_queue_router,
    "min-incoming-population": lambda config: min_incoming_population_router,
    "min-average-queue": lambda config: min_average_queue_router,
    "min-average-population": lambda config: min_average_population_router,
    # Literature baseline the paper cites ([EAGE86]): sender-initiated.
    "sender-initiated": lambda config: sender_initiated_router_factory(),
}

__all__ = [
    "DistributedEstimate",
    "DistributedModel",
    "crossover_locality",
    "MinAverageResponseRouter",
    "MinIncomingResponseRouter",
    "min_average_population_router",
    "min_average_queue_router",
    "min_incoming_population_router",
    "min_incoming_queue_router",
    "StateEstimator",
    "UtilizationSource",
    "MeasuredResponseTimeRouter",
    "QueueLengthRouter",
    "SenderInitiatedRouter",
    "sender_initiated_router_factory",
    "ThresholdUtilizationRouter",
    "measured_response_router",
    "queue_length_router",
    "threshold_router_factory",
    "AnalyticModel",
    "ContentionState",
    "ModelEstimates",
    "AlwaysLocalRouter",
    "AlwaysShipRouter",
    "Router",
    "RouterFactory",
    "RoutingObservation",
    "StaticOptimum",
    "StaticRouter",
    "optimal_static_router_factory",
    "optimize_static",
    "static_router_factory",
    "no_load_sharing_router",
    "STRATEGIES",
]
