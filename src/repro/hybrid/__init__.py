"""The hybrid distributed-centralized database system model."""

from .base import SiteBase
from .central import CentralSite
from .checker import InvariantChecker, InvariantViolation, attach_checker
from .config import PAPER_BASE, PROTOCOLS, SystemConfig, paper_config
from .local import LocalSite
from .metrics import MetricsCollector, SimulationResult
from .protocol import (
    AuthReply,
    AuthRequest,
    CentralSnapshot,
    CommitOrder,
    ReleaseOrder,
    TxnShipment,
    UpdateAck,
    UpdatePropagation,
)
from .system import HybridSystem, simulate, site_classes
from .telemetry import TelemetrySampler, TelemetrySeries, TelemetryWindow

__all__ = [
    "SiteBase",
    "CentralSite",
    "InvariantChecker",
    "InvariantViolation",
    "attach_checker",
    "PAPER_BASE",
    "PROTOCOLS",
    "SystemConfig",
    "paper_config",
    "LocalSite",
    "MetricsCollector",
    "SimulationResult",
    "AuthReply",
    "AuthRequest",
    "CentralSnapshot",
    "CommitOrder",
    "ReleaseOrder",
    "TxnShipment",
    "UpdateAck",
    "UpdatePropagation",
    "HybridSystem",
    "simulate",
    "site_classes",
    "TelemetrySampler",
    "TelemetrySeries",
    "TelemetryWindow",
]
