"""Transaction records and lifecycle state.

Transactions are passive records manipulated by the site logic in
:mod:`repro.hybrid`; they carry the reference string (which entities are
locked, in which mode), routing and rerun bookkeeping, and the timestamps
from which every response-time statistic in the evaluation is computed.

The paper distinguishes six *kinds* of transactions by response-time
behaviour (Section 3.1): new/rerun x local/shipped/central.  The kind is
derived from :attr:`Transaction.txn_class`, :attr:`Transaction.placement`
and :attr:`Transaction.run_count`, see :meth:`Transaction.kind`.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from ..sim.spans import SpanRecorder
from .locks import LockMode

__all__ = [
    "TransactionClass",
    "Placement",
    "TransactionState",
    "TransactionKind",
    "Reference",
    "Transaction",
    "new_transaction_ids",
]


class TransactionClass(enum.Enum):
    """Class A touches only home-site data; class B needs global data."""

    A = "A"
    B = "B"


class Placement(enum.Enum):
    """Where a transaction executes."""

    LOCAL = "local"          # class A retained at its home site
    SHIPPED = "shipped"      # class A shipped to the central site
    CENTRAL = "central"      # class B run at the central complex
    #: Class B run at its home site with remote calls for non-local data
    #: (the fully distributed alternative of the paper's introduction,
    #: enabled by ``SystemConfig.class_b_mode = "remote-call"``).
    DISTRIBUTED = "distributed"


class TransactionState(enum.Enum):
    """Lifecycle states used by the site logic and the tracer."""

    CREATED = "created"
    SETUP = "setup"              # initial I/O, no locks held
    EXECUTING = "executing"      # CPU bursts + DB calls
    LOCK_WAIT = "lock-wait"
    IO_WAIT = "io-wait"
    COMMITTING = "committing"
    AUTHENTICATING = "authenticating"
    COMMITTED = "committed"
    ABORTED = "aborted"


class TransactionKind(enum.Enum):
    """The paper's six response-time kinds (Section 3.1)."""

    LOCAL_NEW = "local-new"
    LOCAL_RERUN = "local-rerun"
    SHIPPED_NEW = "shipped-new"
    SHIPPED_RERUN = "shipped-rerun"
    CENTRAL_NEW = "central-new"
    CENTRAL_RERUN = "central-rerun"
    DISTRIBUTED_NEW = "distributed-new"
    DISTRIBUTED_RERUN = "distributed-rerun"


@dataclass(slots=True)
class Reference:
    """One database call: lock ``entity`` in ``mode`` then do work."""

    entity: int
    mode: LockMode

    @property
    def is_update(self) -> bool:
        return self.mode is LockMode.EXCLUSIVE


def new_transaction_ids() -> "itertools.count[int]":
    """A fresh monotonically increasing transaction-id source."""
    return itertools.count(1)


@dataclass
class Transaction:
    """One transaction instance flowing through the hybrid system."""

    txn_id: int
    txn_class: TransactionClass
    home_site: int
    references: tuple[Reference, ...]
    arrival_time: float

    placement: Placement | None = None
    state: TransactionState = TransactionState.CREATED
    run_count: int = 0                     # incremented at each (re)run start
    marked_for_abort: bool = False
    abort_reason: str | None = None
    aborts: int = 0
    deadlock_aborts: int = 0

    # Timestamps for metrics (simulated seconds).
    first_run_started_at: float | None = None
    completed_at: float | None = None

    #: End-to-end deadline (absolute sim time), stamped at admission
    #: when the fault plan's overload control arms one; ``None``
    #: otherwise.  Propagated through shipment and authentication
    #: messages so doomed work is cancelled early.
    deadline: float | None = None

    # Entities currently locked by this transaction at its execution site
    # (subset of the reference string; maintained by the site logic).
    locked_entities: list[int] = field(default_factory=list)

    #: Phase-attributed lifecycle timeline (anchored at the routing
    #: decision; closed by :meth:`complete`).  The phase totals sum to
    #: the response time exactly -- the basis of the per-phase
    #: response-time decomposition in :mod:`repro.hybrid.metrics`.
    spans: SpanRecorder = field(default_factory=SpanRecorder, repr=False)

    # -- derived properties ---------------------------------------------------

    @property
    def is_local(self) -> bool:
        return self.placement is Placement.LOCAL

    @property
    def runs_centrally(self) -> bool:
        return self.placement in (Placement.SHIPPED, Placement.CENTRAL)

    @property
    def is_rerun(self) -> bool:
        return self.run_count > 1

    @property
    def response_time(self) -> float:
        """Arrival to completion (valid once committed)."""
        if self.completed_at is None:
            raise ValueError(f"transaction {self.txn_id} not completed")
        return self.completed_at - self.arrival_time

    @property
    def update_entities(self) -> tuple[int, ...]:
        """Entities referenced in exclusive mode (propagated on commit)."""
        return tuple(ref.entity for ref in self.references if ref.is_update)

    @property
    def entities(self) -> tuple[int, ...]:
        return tuple(ref.entity for ref in self.references)

    def kind(self) -> TransactionKind:
        """Map to the paper's six response-time kinds."""
        if self.placement is None:
            raise ValueError(f"transaction {self.txn_id} not yet routed")
        rerun = self.is_rerun
        if self.placement is Placement.LOCAL:
            return (TransactionKind.LOCAL_RERUN if rerun
                    else TransactionKind.LOCAL_NEW)
        if self.placement is Placement.SHIPPED:
            return (TransactionKind.SHIPPED_RERUN if rerun
                    else TransactionKind.SHIPPED_NEW)
        if self.placement is Placement.DISTRIBUTED:
            return (TransactionKind.DISTRIBUTED_RERUN if rerun
                    else TransactionKind.DISTRIBUTED_NEW)
        return (TransactionKind.CENTRAL_RERUN if rerun
                else TransactionKind.CENTRAL_NEW)

    # -- lifecycle transitions --------------------------------------------------

    def route(self, placement: Placement) -> None:
        """Fix the placement decision.

        Class B runs at the central complex, or -- in the fully
        distributed mode -- at its home site with remote calls; class A
        is retained locally or shipped.
        """
        if self.txn_class is TransactionClass.B and placement not in \
                (Placement.CENTRAL, Placement.DISTRIBUTED):
            raise ValueError(
                "class B transactions run CENTRAL or DISTRIBUTED")
        if self.txn_class is TransactionClass.A and placement in \
                (Placement.CENTRAL, Placement.DISTRIBUTED):
            raise ValueError("class A transactions are LOCAL or SHIPPED")
        self.placement = placement

    def begin_run(self, now: float) -> None:
        """Start the first run or a rerun."""
        self.run_count += 1
        self.marked_for_abort = False
        self.abort_reason = None
        if self.first_run_started_at is None:
            self.first_run_started_at = now
        self.state = TransactionState.SETUP

    def mark_for_abort(self, reason: str) -> None:
        """Set the abort mark checked at commit time (Section 2)."""
        self.marked_for_abort = True
        self.abort_reason = reason

    def record_abort(self, deadlock: bool = False) -> None:
        self.aborts += 1
        if deadlock:
            self.deadlock_aborts += 1
        self.state = TransactionState.ABORTED

    def complete(self, now: float) -> None:
        self.completed_at = now
        self.state = TransactionState.COMMITTED
        self.spans.close(now)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Txn {self.txn_id} class={self.txn_class.value} "
                f"site={self.home_site} placement="
                f"{self.placement.value if self.placement else '?'} "
                f"state={self.state.value} runs={self.run_count}>")
