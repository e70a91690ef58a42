"""Discrete-event simulation substrate (engine, resources, RNG, stats).

This package is self-contained and domain-agnostic: the hybrid database
model in :mod:`repro.hybrid` is built entirely on these primitives.
"""

from .engine import (
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    StopSimulation,
    Timeout,
)
from .network import Link, Message
from .resources import Request, Resource, Store
from .spans import PHASES, SpanRecorder
from .rng import ExponentialSampler, RandomStreams, StreamReplay, \
    UniformIntSampler, crn_seed
from .stats import (
    IntervalEstimate,
    PairedDifference,
    ReplicationSummary,
    RunningStat,
    TimeWeightedStat,
    paired_difference,
)
from .trace import NullTracer, TraceRecord, Tracer, make_tracer

__all__ = [
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "StopSimulation",
    "Timeout",
    "Link",
    "Message",
    "Request",
    "Resource",
    "Store",
    "ExponentialSampler",
    "RandomStreams",
    "StreamReplay",
    "UniformIntSampler",
    "crn_seed",
    "IntervalEstimate",
    "PairedDifference",
    "paired_difference",
    "ReplicationSummary",
    "RunningStat",
    "TimeWeightedStat",
    "NullTracer",
    "TraceRecord",
    "Tracer",
    "make_tracer",
    "PHASES",
    "SpanRecorder",
]
