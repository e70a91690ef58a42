"""Routing interfaces: the ship-or-not decision point.

Every load-sharing strategy in the paper is expressed as a
:class:`Router`.  When a class A transaction arrives at site ``i``, the
site builds a :class:`RoutingObservation` (its own exact state plus the
*delayed* central state it last heard) and asks its router whether to
retain the transaction locally or ship it to the central complex.

Routers are deliberately simple objects: one per site, created by a
:class:`RouterFactory`, optionally notified of class A completions (the
measured-response-time heuristic needs that feedback signal).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, TYPE_CHECKING

from ..db.transaction import Placement, Transaction
from ..hybrid.protocol import CentralSnapshot

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hybrid.config import SystemConfig

__all__ = ["RoutingObservation", "Router", "RouterFactory", "AlwaysLocalRouter",
           "AlwaysShipRouter"]


@dataclass(slots=True)
class RoutingObservation:
    """System state visible to a router at decision time.

    Local fields are exact (the decision is made at the site); central
    fields come from the newest :class:`CentralSnapshot` the site has
    received and are therefore delayed by at least one communications
    delay, unless the ablation flag ``instant_central_state`` is set.
    """

    now: float
    site: int

    # Exact local-site state.
    local_queue_length: int       # q_i: CPU queue incl. running job
    local_n_txns: int             # n_i: all transactions at the site
    local_locks_held: int         # n_lock_i
    shipped_in_flight: int        # class A shipped from this site, active

    # Delayed central-site state.
    central: CentralSnapshot

    @property
    def central_state_age(self) -> float:
        """Seconds since the central snapshot was taken (inf if never)."""
        return self.now - self.central.time


class Router(abc.ABC):
    """A load-sharing strategy instance for one site."""

    #: Human-readable strategy name (used in reports and figures).
    name: str = "router"

    @abc.abstractmethod
    def decide(self, txn: Transaction,
               observation: RoutingObservation) -> Placement:
        """Return ``Placement.LOCAL`` or ``Placement.SHIPPED``."""

    def observe_completion(self, txn: Transaction) -> None:
        """Feedback hook: a class A transaction of this site completed."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}>"


#: Factory signature: (config, site_index) -> Router.
RouterFactory = Callable[["SystemConfig", int], Router]


class AlwaysLocalRouter(Router):
    """No load sharing: every class A transaction runs at its home site.

    This is the paper's baseline curve in Figure 4.1.
    """

    name = "no-load-sharing"

    def decide(self, txn: Transaction,
               observation: RoutingObservation) -> Placement:
        return Placement.LOCAL


class AlwaysShipRouter(Router):
    """Degenerate fully-centralized operation (every class A shipped).

    Not a paper curve, but the limiting case is useful in tests: it turns
    the hybrid system into the centralized architecture of the paper's
    introduction.
    """

    name = "always-ship"

    def decide(self, txn: Transaction,
               observation: RoutingObservation) -> Placement:
        return Placement.SHIPPED
