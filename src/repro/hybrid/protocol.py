"""Protocol message payloads exchanged between local sites and central.

Message flows (Section 2 of the paper):

* ``TxnShipment``       site -> central : a shipped class A or class B
  transaction's input message.
* ``UpdatePropagation`` site -> central : asynchronous batch of committed
  local updates (locks released locally, coherence counts incremented).
* ``UpdateAck``         central -> site : the central site has applied the
  batch; the site decrements the coherence counts.
* ``AuthRequest``       central -> site : authentication phase -- the lock
  list (and updated blocks) of a committing central/shipped transaction.
* ``AuthReply``         site -> central : positive (locks granted at the
  master, conflicting local transactions marked for abort) or negative
  (in-flight coherence updates).
* ``CommitOrder``       central -> site : second phase -- apply updates and
  release the authenticating transaction's locks at the master.
* ``ReleaseOrder``      central -> site : authentication failed somewhere;
  release any locks granted to the transaction at this master.

The ``HANDLERS`` tables of the site classes list every payload and its
receiver, one row per payload type.

Every central -> site payload carries a :class:`CentralSnapshot`, which is
how the dynamic routing strategies learn (delayed) central state: the
paper notes the central queue length "is only updated during
authentication of a centrally running transaction".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..db.locks import LockMode
from ..db.transaction import Transaction

__all__ = [
    "CentralSnapshot",
    "TxnShipment",
    "UpdatePropagation",
    "UpdateAck",
    "AuthRequest",
    "AuthReply",
    "CommitOrder",
    "ReleaseOrder",
    "TxnResponse",
    "ShipmentCancel",
    "CancelAck",
    "ShipmentReject",
    "Heartbeat",
    "LogRecord",
    "TakeoverNotice",
    "FailoverNotice",
    "RejoinRequest",
    "RejoinSnapshot",
    "RemoteLockRequest",
    "RemoteLockReply",
    "RemoteCommit",
    "RemoteRelease",
    "RemoteInvalidate",
    "TxnPrepare",
    "TxnVote",
    "TxnDecision",
    "EpochCommitOrder",
]


def message(kind: str):
    """Declare a payload: a slotted dataclass sent and traced as ``kind``."""
    def declare(cls):
        cls.kind = kind
        return dataclass(slots=True)(cls)
    return declare


@dataclass(slots=True)
class CentralSnapshot:
    """Central-site state as sampled when a message was sent.

    ``queue_length`` counts CPU-queued plus running jobs (the paper's
    ``q_c``); ``n_txns`` counts every transaction at the central site
    including those in I/O, commit processing and contention wait (the
    paper's ``n_c``); ``locks_held`` is the central lock-table population.
    """

    time: float
    queue_length: int
    n_txns: int
    locks_held: int

    @staticmethod
    def empty() -> "CentralSnapshot":
        """Initial optimistic snapshot before any message has arrived."""
        return CentralSnapshot(time=float("-inf"), queue_length=0,
                               n_txns=0, locks_held=0)


@message("txn")
class TxnShipment:
    """Input message carrying a transaction to the central site."""

    txn: Transaction


@message("update")
class UpdatePropagation:
    """Asynchronous update batch from a local commit (or several).

    ``seq`` is a per-site monotone batch number (starting at 1).  The
    matching :class:`UpdateAck` echoes it, so a site only decrements
    coherence counts for batches it still accounts as outstanding --
    a stale or duplicated ack (possible across crash recovery or a
    failover, where batches are re-sent to the standby) is then inert
    instead of driving a coherence count below zero.
    """

    source_site: int
    #: Exclusive-mode entities per committed transaction in the batch.
    updates: tuple[tuple[int, ...], ...]
    seq: int = 0

    @property
    def entities(self) -> tuple[int, ...]:
        return tuple(entity for group in self.updates for entity in group)


@message("update-ack")
class UpdateAck:
    """Acknowledgement of one :class:`UpdatePropagation` batch."""

    updates: tuple[tuple[int, ...], ...]
    snapshot: CentralSnapshot
    seq: int = 0


@message("auth-request")
class AuthRequest:
    """Authentication-phase lock list for one committing transaction.

    ``deadline`` propagates the transaction's end-to-end deadline (when
    overload control arms one): a master site refuses authentication for
    a transaction that has already missed it, so doomed work stops
    consuming master locks.
    """

    auth_id: int
    txn_id: int
    references: tuple[tuple[int, LockMode], ...]
    snapshot: CentralSnapshot
    deadline: float | None = None


@message("auth-reply")
class AuthReply:
    """Master-site answer to an :class:`AuthRequest`."""

    auth_id: int
    txn_id: int
    site: int
    granted: bool                       # False = negative acknowledgement
    aborted_local_txns: tuple[int, ...] = field(default=())


@message("commit")
class CommitOrder:
    """Commit message: apply updates, release the transaction's locks.

    ``updates`` lists the exclusive-mode entities mastered at the
    receiving site whose replica must be updated.
    """

    txn_id: int
    snapshot: CentralSnapshot
    updates: tuple[int, ...] = ()


@message("release")
class ReleaseOrder:
    """Clean-up after a failed authentication round."""

    txn_id: int
    snapshot: CentralSnapshot


# ---------------------------------------------------------------------------
# Fault-tolerant operation (active only when a FaultPlan is in force).
# Under reliable channels the completion of a shipped/central transaction
# travels as an explicit TxnResponse message (so it survives lossy links),
# and a home site whose retry budget for a shipment is exhausted settles
# the transaction's fate with a ShipmentCancel/CancelAck handshake: the
# channel's FIFO guarantee means the cancel is processed strictly after
# the shipment, so the central site can answer definitively.
# ---------------------------------------------------------------------------


@message("txn-response")
class TxnResponse:
    """Central -> site: the output message of a shipped/central txn."""

    txn: Transaction
    snapshot: CentralSnapshot


@message("cancel")
class ShipmentCancel:
    """Site -> central: give up on a shipped transaction's response."""

    txn_id: int
    site: int


@message("cancel-ack")
class CancelAck:
    """Central -> site: the shipment's definitive fate.

    ``outcome`` is ``"killed"`` (the transaction was stopped before
    committing -- the home site may safely re-run it locally) or
    ``"completed"`` (it committed; the response precedes this ack on the
    same FIFO channel).
    """

    txn_id: int
    outcome: str
    snapshot: CentralSnapshot


@message("ship-reject")
class ShipmentReject:
    """Central -> site: admission control refused the shipment.

    The central complex's bounded admission queue was full; the
    transaction never started there.  The home site re-routes class A
    work locally and fails class B work fast (cause
    ``"central-overload"``) instead of waiting out the retry budget.
    """

    txn_id: int
    snapshot: CentralSnapshot


# ---------------------------------------------------------------------------
# Hot-standby failover and site rejoin (active only when the fault plan's
# RecoveryPolicy enables them).  The primary streams its applied updates
# and heartbeats to the standby over a dedicated log channel; the standby
# declares the primary dead when the heartbeat lease expires, replays the
# shipped log and broadcasts FailoverNotice so sites re-point.  A crashed
# site runs the RejoinRequest/RejoinSnapshot catch-up before admitting
# queued arrivals.
# ---------------------------------------------------------------------------


@message("heartbeat")
class Heartbeat:
    """Primary -> standby: liveness beacon (sent unreliably).

    Deliberately outside the reliable channel: a retransmitted
    heartbeat would defeat its purpose, which is that *silence* means
    death.
    """

    time: float


@message("log")
class LogRecord:
    """Primary -> standby: one shipped log entry (reliable, in order).

    A site's propagated batch carries its ``site`` and ``seq``, which
    identify it for standby-side deduplication against direct re-sends
    after failover; a committed central or 2PC transaction's updates
    carry ``site=None``.
    """

    updates: tuple[tuple[int, ...], ...]
    site: int | None = None
    seq: int = 0


@message("takeover")
class TakeoverNotice:
    """Standby -> primary: you have been deposed.

    Delivered reliably, so it arrives once the partition heals; the
    deposed primary kills its in-flight work and stops transmitting.
    """

    time: float


@message("failover")
class FailoverNotice:
    """Standby -> every site: the standby is now the central complex.

    Sites re-point their central routing at the standby, settle
    in-flight shipments (class A re-runs locally, class B re-ships to
    the standby), re-send unacknowledged update batches and fence all
    further traffic from the deposed primary.
    """

    snapshot: CentralSnapshot


@message("rejoin")
class RejoinRequest:
    """Site -> central: a crashed site asks to be caught up."""

    site: int


@message("rejoin-snapshot")
class RejoinSnapshot:
    """Central -> site: catch-up state for a rejoining site.

    ``counts`` is the central replica's view of the site's mastered
    partition (entity -> update count); installing it replaces whatever
    volatile state the crash destroyed, including updates the site
    itself lost in flight.
    """

    site: int
    counts: dict[int, int]
    snapshot: CentralSnapshot


# ---------------------------------------------------------------------------
# Fully distributed mode (class_b_mode = "remote-call"): a class B
# transaction runs at its home site and fetches each non-local datum from
# the central data server with a synchronous remote call.
# ---------------------------------------------------------------------------


@message("remote-lock")
class RemoteLockRequest:
    """Site -> central: lock ``entity`` and return the datum."""

    call_id: int
    txn_id: int
    site: int
    entity: int
    mode: LockMode


@message("remote-reply")
class RemoteLockReply:
    """Central -> site: grant (with data) or deadlock refusal."""

    call_id: int
    txn_id: int
    granted: bool
    snapshot: CentralSnapshot


@message("remote-commit")
class RemoteCommit:
    """Site -> central: commit a distributed transaction.

    Releases its remote locks and applies its non-local updates at the
    data server, which forwards them to the owning master sites.
    """

    txn_id: int
    site: int
    updates: tuple[int, ...]


@message("remote-release")
class RemoteRelease:
    """Site -> central: abort cleanup, drop the remote locks."""

    txn_id: int
    site: int


@message("remote-invalidate")
class RemoteInvalidate:
    """Central -> site: a remote-held lock was invalidated by an
    asynchronous update; mark the distributed transaction for abort."""

    txn_id: int
    snapshot: CentralSnapshot


# ---------------------------------------------------------------------------
# Primary-copy two-phase commit (protocol "2pc").  Updating local
# transactions replace the asynchronous UpdatePropagation with a
# synchronous prepare/vote round against the central site, which acts as
# the primary-copy coordinator; the decision is the second phase.  The
# site is blocked (holding its locks) between prepare and vote -- the
# protocol's defining cost, including blocking on coordinator failure.
# ---------------------------------------------------------------------------


@message("prepare")
class TxnPrepare:
    """Site -> central: phase 1 of a local updating commit.

    The site holds its locks and enters the in-doubt state until the
    coordinator's vote arrives.
    """

    txn_id: int
    site: int
    updates: tuple[int, ...]


@message("vote")
class TxnVote:
    """Central -> site: the coordinator's vote on a ``TxnPrepare``.

    ``granted`` commits the transaction (the site applies its updates
    and acknowledges with a ``TxnDecision``); a refusal -- the updates
    conflict with another in-doubt transaction -- aborts and re-runs it.
    """

    txn_id: int
    granted: bool
    snapshot: CentralSnapshot


@message("decision")
class TxnDecision:
    """Site -> central: phase 2 -- the final outcome of a prepared
    transaction.  On commit the central applies the updates to the
    primary copy and releases the in-doubt entries."""

    txn_id: int
    site: int
    commit: bool
    updates: tuple[int, ...] = ()


# ---------------------------------------------------------------------------
# Deterministic epoch-batched commit (protocol "epoch").  Execution and
# update propagation reuse the optimistic machinery, but batches ship
# once per epoch and the central applies them in deterministic
# (site, seq) order at the epoch boundary; central commits wait for the
# boundary and lose deterministically to that epoch's site batches.
# ---------------------------------------------------------------------------


@message("epoch-commit")
class EpochCommitOrder:
    """Central -> master: apply an epoch-committed central transaction's
    updates for entities mastered at this site.  Unlike ``CommitOrder``
    there are no master locks to release (the epoch protocol runs no
    authentication round); conflicting active local holders are marked
    for abort instead."""

    txn_id: int
    snapshot: CentralSnapshot
    updates: tuple[int, ...]
