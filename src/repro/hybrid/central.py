"""Central computing complex: class B / shipped execution, coherency.

The central site

* executes class B and shipped class A transactions against its replica
  of every regional database, under local two-phase locking;
* applies asynchronous update batches from the distributed sites in
  per-site FIFO order, invalidating (marking for abort) any central
  transactions holding locks on the updated entities, and acknowledging
  each batch so the origin site can decrement its coherence counts;
* drives the authentication phase at commit: it sends the lock list
  simultaneously to every involved master site, awaits all replies,
  re-executes on any negative acknowledgement or late invalidation, and
  otherwise distributes commit orders and the response message.

Every message it sends to a site piggybacks a :class:`CentralSnapshot`,
the mechanism by which (delayed) central state reaches the routers.

**Hot standby.**  When the fault plan's recovery policy enables
failover, a second instance of the protocol's central class runs in the
standby role (``is_active`` false until takeover).  The primary ships
its applied update stream as :class:`LogRecord` frames over a reliable
log channel and sends :class:`Heartbeat` beacons *unreliably* on the
same link pair -- silence, not a nack, signals death.  The standby
replays the log into its replica (deduplicated by ``(site, seq)``, so
direct re-sends after a failover compose with it).  When the heartbeat
lease expires it takes over: it pays a takeover CPU burst, broadcasts
:class:`FailoverNotice` to every site over its own site links, and
sends a reliable :class:`TakeoverNotice` that deposes the primary once
the partition heals.  Sites then re-point their routing and settle
everything in flight conservatively (abort and retry).  Failover is
sticky: the primary never reclaims the role within a run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..db.locks import DeadlockError, LockMode
from ..db.replica import ReplicaStore
from ..db.transaction import Placement, Transaction
from ..db.workload import LockSpacePartition
from ..sim.engine import Environment, Event, Interrupt
from ..sim.network import Link, Message, ReliableEndpoint
from ..sim.spans import PHASE_AUTH, PHASE_COMM
from .base import Handlers, SiteBase
from .protocol import (
    AuthReply,
    AuthRequest,
    CancelAck,
    CentralSnapshot,
    CommitOrder,
    FailoverNotice,
    Heartbeat,
    LogRecord,
    RejoinRequest,
    RejoinSnapshot,
    ReleaseOrder,
    RemoteCommit,
    RemoteInvalidate,
    RemoteLockReply,
    RemoteLockRequest,
    RemoteRelease,
    ShipmentCancel,
    ShipmentReject,
    TakeoverNotice,
    TxnResponse,
    TxnShipment,
    UpdateAck,
    UpdatePropagation,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.faults import RecoveryPolicy
    from .config import SystemConfig
    from .metrics import MetricsCollector
    from .system import HybridSystem

__all__ = ["CentralSite"]


@dataclass
class _PendingAuth:
    """Bookkeeping for one in-progress authentication round.

    ``cancelled`` marks a round whose transaction was killed by a
    ShipmentCancel while awaiting replies.  The round stays registered
    so late replies can be matched: each master's locks are released
    only *after* its reply arrives (a master grants before replying, so
    a release sent any earlier could overtake the grant and leak the
    locks forever).  ``requests`` keeps each master's request message
    so it can be re-sent to a site whose crash destroyed the original
    (rejoin).
    """

    event: Event
    expected: int
    txn_id: int = 0
    cancelled: bool = False
    replies: list[AuthReply] = field(default_factory=list)
    requests: dict[int, Message] = field(default_factory=dict)


class CentralSite(SiteBase):
    """The central computing complex of the hybrid architecture (the
    primary, or with ``standby=True`` its hot standby)."""

    invalidated_cause = "central-invalidated"

    #: Site -> central payloads (see :meth:`_dispatch`).
    HANDLERS = {
        TxnShipment: "_on_shipment",
        UpdatePropagation: "_apply_updates",
        AuthReply: "_collect_auth_reply",
        RemoteLockRequest: "_on_remote_lock",
        RemoteCommit: "_handle_remote_commit",
        RemoteRelease: "_handle_remote_release",
    }
    FAULT_HANDLERS = {
        ShipmentCancel: "_handle_cancel",
        RejoinRequest: "_on_rejoin_request",
    }
    #: The primary <-> standby log stream (wired only for failover).
    LOG_HANDLERS = {
        TakeoverNotice: "_on_deposed",
        Heartbeat: "_on_heartbeat",
        LogRecord: "_apply_log",
    }

    def __init__(self, env: Environment, config: "SystemConfig",
                 system: "HybridSystem", partition: LockSpacePartition,
                 standby: bool = False):
        name = "standby" if standby else "central"
        super().__init__(env, config, config.central_mips, name=name)
        self.system = system
        self.partition = partition
        self.metrics: "MetricsCollector" = system.metrics

        #: Central replica of every regional database (update counters).
        self.data = ReplicaStore(name=name)
        self.to_sites: list[Link] = []
        self.from_sites: list[Link] = []

        self._auth_ids = itertools.count(1)
        self._pending_auth: dict[int, _PendingAuth] = {}
        #: Distributed-mode transactions holding remote locks here:
        #: txn_id -> home site (for invalidation notices).
        self._remote_holders: dict[int, int] = {}

        # Fault tolerance (populated only when a fault plan is active).
        self.channels: dict[int, ReliableEndpoint] = {}
        #: Transactions whose response has been sent (cancel -> completed).
        self._finished: set[int] = set()

        # Recovery subsystem (populated only when the plan's
        # RecoveryPolicy enables it; None otherwise, costing nothing).
        self.recovery: "RecoveryPolicy | None" = None
        #: This end of the primary<->standby log channel, the link it
        #: receives on, and both directions of the pair (severed
        #: together by a central outage).
        self.log_endpoint: ReliableEndpoint | None = None
        self.log_in: Link | None = None
        self.log_links: tuple[Link, ...] = ()
        self.is_standby = standby
        #: True while this site holds the central role: the primary from
        #: the start, the standby once it has taken over.
        self.is_active = not standby
        self.last_heartbeat = 0.0
        #: True once a TakeoverNotice arrived: this central lost the
        #: master role and must neither execute nor transmit.
        self.deposed = False
        #: Applied update batches per site (dedup across log replay and
        #: direct re-sends after failover).  None = dedup off.
        self._applied_batches: dict[int, set[int]] | None = None

    # -- wiring ---------------------------------------------------------------

    def attach_links(self, to_sites: list[Link],
                     from_sites: list[Link]) -> None:
        self.to_sites = to_sites
        self.from_sites = from_sites
        for site_id, link in enumerate(from_sites):
            self.env.process(self._dispatch(site_id, link),
                             name=f"{self.name}:dispatch-{site_id}")

    def enable_reliability(self, site_id: int,
                           channel: ReliableEndpoint) -> None:
        """Route central->site traffic through a reliable channel."""
        self.channels[site_id] = channel
        self.handlers.update(self.FAULT_HANDLERS)

    def enable_recovery(self, recovery: "RecoveryPolicy") -> None:
        """Arm the recovery subsystem (batch dedup, admission bound)."""
        self.recovery = recovery
        self._applied_batches = {}

    def start_log(self, endpoint: ReliableEndpoint, in_link: Link) -> None:
        """Wire this end of the primary<->standby log link pair.

        The primary sends log records (reliable) and heartbeats
        (unreliable, raw link) through ``endpoint`` and hears the
        standby's acks and, eventually, its TakeoverNotice on
        ``in_link``; the standby replays what arrives on ``in_link`` and
        arms its heartbeat lease.
        """
        self.log_endpoint = endpoint
        self.log_in = in_link
        self.log_links = (in_link, endpoint.out_link)
        self.last_heartbeat = self.env.now
        self.env.process(self._log_dispatch(),
                         name=f"{self.name}:log-dispatch")
        if self.is_standby:
            self.env.process(self._lease_monitor(),
                             name=f"{self.name}:lease-monitor")
        else:
            self.env.process(self._heartbeat_loop(),
                             name=f"{self.name}:heartbeat")

    def _log_dispatch(self):
        handlers = Handlers(self.LOG_HANDLERS)
        while True:
            message = yield self.log_in.mailbox.get()
            for delivered in self.log_endpoint.pump(message):
                payload = delivered.payload
                work = getattr(self, handlers[type(payload)])(payload)
                if work is not None:
                    yield from work

    def _on_heartbeat(self, beat: Heartbeat) -> None:
        self.last_heartbeat = self.env.now

    def _heartbeat_loop(self):
        interval = self.recovery.heartbeat_interval
        while not self.deposed:
            # Raw link send, outside the reliable channel: heartbeats
            # must not be retransmitted -- silence is the signal.
            self.log_endpoint.out_link.send(Message(
                kind=Heartbeat.kind, source=self.name,
                payload=Heartbeat(time=self.env.now)))
            yield self.env.timeout(interval)

    def _ship_log(self, updates, site: int | None = None,
                  seq: int = 0) -> None:
        """Primary only: ship an applied update to the standby."""
        if self.log_endpoint is None or self.deposed or self.is_standby:
            return
        self.log_endpoint.send(Message(
            kind=LogRecord.kind, source=self.name,
            payload=LogRecord(updates=updates, site=site, seq=seq)))

    def _mark_batch(self, site: int | None, seq: int) -> bool:
        """Record an update batch as applied; False when already seen."""
        if self._applied_batches is None or site is None or seq == 0:
            return True
        seen = self._applied_batches.setdefault(site, set())
        if seq in seen:
            return False
        seen.add(seq)
        return True

    def _on_deposed(self, notice: TakeoverNotice) -> None:
        """The standby took over: stop executing and transmitting.

        In-flight transactions are killed (their home sites already
        re-dispatched them at failover and fence this central's
        responses), pending retransmissions are abandoned, and pending
        auth rounds are dropped -- the sites released this epoch's
        master locks when they re-pointed.
        """
        if self.deposed:
            return
        self.deposed = True
        self.metrics.record_takeover("primary-deposed")
        for txn_id, process in list(self._processes.items()):
            if process.is_alive:
                process.interrupt("deposed")
        for channel in self.channels.values():
            channel.abandon()
        if self.log_endpoint is not None:
            self.log_endpoint.abandon()
        self._pending_auth.clear()

    # -- the standby role -------------------------------------------------------

    def _apply_log(self, record: LogRecord):
        """Replay one shipped log record into the standby replica."""
        if not self._mark_batch(record.site, record.seq):
            return
        instr = self.recovery.instr_log_replay if self.recovery else 0
        if instr:
            yield from self.cpu_burst(instr * max(1, len(record.updates)))
        entities = tuple(entity for group in record.updates
                         for entity in group)
        if not entities:
            return
        self.data.apply_updates(entities)
        if self.is_active:
            # Post-takeover stragglers from the dying primary can still
            # invalidate transactions that now hold locks here.
            self._mark_holders(entities, "invalidated-by-update")

    def _lease_monitor(self):
        policy = self.recovery
        while not self.is_active:
            yield self.env.timeout(policy.heartbeat_interval)
            if self.env.now - self.last_heartbeat > policy.lease_timeout:
                yield from self._take_over()
                return

    def _take_over(self):
        """Assume the central role (the lease expired).

        The recovery clock starts at the last heartbeat actually heard
        -- the latest instant the primary was provably alive, within
        one heartbeat interval of the real failure -- and stops when the
        failover notices are broadcast.
        """
        failed_at = self.last_heartbeat
        yield from self.cpu_burst(self.recovery.instr_takeover)
        self.is_active = True
        snapshot = self.snapshot()
        for site_id in range(len(self.to_sites)):
            self._send(site_id, FailoverNotice(snapshot=snapshot))
        # Depose the primary: reliable, so it lands once the partition
        # heals, whereupon the primary kills its zombie work.
        self.log_endpoint.send(Message(
            kind=TakeoverNotice.kind, source=self.name,
            payload=TakeoverNotice(time=self.env.now)))
        self.metrics.record_takeover("takeover")
        self.metrics.record_recovery("failover", None, failed_at,
                                     self.env.now)

    def snapshot(self) -> CentralSnapshot:
        """Sample the observable central state (piggybacked on messages)."""
        return CentralSnapshot(
            time=self.env.now,
            queue_length=self.cpu_queue_length,
            n_txns=len(self.active),
            locks_held=self.locks.total_locks_held(),
        )

    def _send(self, site: int, payload) -> Message:
        kind = payload.kind
        self.metrics.record_message(to_central=False, kind=kind, site=site)
        message = Message(kind=kind, source="central", payload=payload)
        channel = self.channels.get(site)
        if channel is not None:
            channel.send(message)
        else:
            self.to_sites[site].send(message)
        return message

    # -- inbound message handling ------------------------------------------------

    def _dispatch(self, site_id: int, link: Link):
        """Per-site inbound loop.

        A handler that consumes CPU returns a generator, which runs
        *inline* (one message at a time) so that the protocol's per-site
        FIFO processing requirement holds.
        """
        while True:
            message = yield link.mailbox.get()
            channel = self.channels.get(site_id)
            for delivered in (channel.pump(message) if channel is not None
                              else (message,)):
                payload = delivered.payload
                work = getattr(self, self.handlers[type(payload)])(payload)
                if work is not None:
                    yield from work

    def _on_shipment(self, shipment: TxnShipment) -> None:
        self.admit(shipment.txn)

    def _on_remote_lock(self, request: RemoteLockRequest) -> None:
        self.env.process(self._handle_remote_lock(request),
                         name=f"central:remote-lock-{request.site}")

    def _on_rejoin_request(self, request: RejoinRequest) -> None:
        self.env.process(self._handle_rejoin(request),
                         name=f"{self.name}:rejoin-{request.site}")

    def admit(self, txn: Transaction) -> None:
        """Start executing a shipped class A or class B transaction."""
        recovery = self.recovery
        if recovery is not None and recovery.admission_limit > 0 and \
                len(self.active) >= recovery.admission_limit:
            # Bounded admission: shedding here (with an explicit reject
            # the home site acts on immediately) beats accepting work
            # that will only time out after clogging the queue further.
            self.metrics.record_shed(txn, node=self.name)
            self._send(txn.home_site, ShipmentReject(
                txn_id=txn.txn_id, snapshot=self.snapshot()))
            return
        self._processes[txn.txn_id] = self.env.process(
            self._run(txn), name=f"txn-{txn.txn_id}@{self.name}")

    def _handle_cancel(self, cancel: ShipmentCancel) -> None:
        """Settle a shipment the home site has given up on.

        The reliable channel's FIFO guarantee means the shipment itself
        was processed before this cancel, so the transaction's fate is
        decidable: either its response is already on the wire
        (``completed`` -- it precedes this ack on the same FIFO channel)
        or its execution is interrupted here and now (``killed`` -- it
        will never commit, so the home site may re-run it safely).
        """
        txn_id = cancel.txn_id
        if txn_id in self._finished:
            outcome = "completed"
        else:
            outcome = "killed"
            process = self._processes.pop(txn_id, None)
            if process is not None and process.is_alive:
                process.interrupt("shipment-cancelled")
        self._send(cancel.site, CancelAck(txn_id=txn_id, outcome=outcome,
                                          snapshot=self.snapshot()))

    def _apply_updates(self, propagation: UpdatePropagation):
        """Apply an asynchronous update batch (Section 2).

        Locks at the central site on the updated data are invalidated:
        the transactions holding them are marked for abort (they discover
        the mark at their commit check).  The batch is then acknowledged.

        With recovery armed, batches are deduplicated by (site, seq):
        after a failover a site re-sends its unacknowledged batches, and
        the standby may already hold them from the shipped log.  A
        duplicate is acknowledged (so the sender drains) but not
        re-applied.
        """
        if not self._mark_batch(propagation.source_site, propagation.seq):
            self._send(propagation.source_site,
                       UpdateAck(updates=propagation.updates,
                                 snapshot=self.snapshot(),
                                 seq=propagation.seq))
            return
        yield from self.cpu_burst(self.config.instr_update_apply *
                                  len(propagation.updates))
        self.data.apply_updates(propagation.entities)
        self._mark_holders(propagation.entities, "invalidated-by-update")
        self._send(propagation.source_site,
                   UpdateAck(updates=propagation.updates,
                             snapshot=self.snapshot(),
                             seq=propagation.seq))
        self._ship_log(propagation.updates,
                       site=propagation.source_site, seq=propagation.seq)

    def _mark_holders(self, entities, reason: str) -> None:
        """Mark every holder of a lock here on one of ``entities`` for
        abort: transactions running here directly, and remote-call
        transactions through one :class:`RemoteInvalidate` each to
        their home site."""
        notified_remote: set[int] = set()
        for entity in entities:
            for holder_id in list(self.locks.held_modes(entity)):
                victim = self.active.get(holder_id)
                if victim is not None and not victim.marked_for_abort:
                    victim.mark_for_abort(reason)
                elif victim is None and holder_id in self._remote_holders \
                        and holder_id not in notified_remote:
                    notified_remote.add(holder_id)
                    self._send(self._remote_holders[holder_id],
                               RemoteInvalidate(
                                   txn_id=holder_id,
                                   snapshot=self.snapshot()))

    # -- site rejoin (crash recovery catch-up) --------------------------------

    def _handle_rejoin(self, request: RejoinRequest):
        """Catch a rejoining site up after a crash wiped its state.

        Builds a snapshot of the site's mastered partition from the
        central replica (covering every update the site missed *or lost*
        while down), re-sends auth requests the crash destroyed so
        stalled rounds resolve, and drops remote locks held by the
        site's dead distributed transactions.
        """
        recovery = self.recovery
        if recovery is not None:
            yield from self.cpu_burst(recovery.instr_snapshot)
        site = request.site
        # Stalled auth rounds: the request (or its reply) died with the
        # site's old channel incarnation; re-send over the new one.  A
        # request already sent on the new incarnation reaches the site
        # (which may be answering it now): re-sending it would grant the
        # round twice and leak the second grant.
        incarnation = self.channels[site].incarnation
        for pending in self._pending_auth.values():
            sent = pending.requests.get(site)
            if sent is not None and sent.rel_inc != incarnation and \
                    all(reply.site != site for reply in pending.replies):
                pending.requests[site] = self._send(site, sent.payload)
        # Remote locks held by distributed transactions of the dead site
        # would otherwise block other sites' work forever.
        for txn_id, home in list(self._remote_holders.items()):
            if home == site:
                self.locks.release_all(txn_id)
                del self._remote_holders[txn_id]
        low, high = self.partition.site_range(site)
        counts = {entity: count
                  for entity, count in self.data.snapshot().items()
                  if low <= entity < high}
        self._send(site, RejoinSnapshot(
            site=site, counts=counts, snapshot=self.snapshot()))

    # -- remote-call data server (fully distributed class B mode) ------------

    def _handle_remote_lock(self, request: RemoteLockRequest):
        """Lock the entity on behalf of a distributed transaction and
        return the datum (a deadlock refusal is reported, not raised)."""
        yield from self.cpu_burst(self.config.instr_per_db_call)
        grant = self.locks.acquire(request.txn_id, request.entity,
                                   request.mode)
        granted = True
        try:
            yield grant
        except DeadlockError:
            granted = False
        if granted:
            self._remote_holders[request.txn_id] = request.site
        self._send(request.site, RemoteLockReply(
            call_id=request.call_id, txn_id=request.txn_id,
            granted=granted, snapshot=self.snapshot()))

    def _handle_remote_commit(self, commit: RemoteCommit) -> None:
        """Apply a distributed commit's non-local updates and forward
        them to the owning master sites; release the remote locks."""
        self.locks.release_all(commit.txn_id)
        self._remote_holders.pop(commit.txn_id, None)
        if not commit.updates:
            return
        self.data.apply_updates(commit.updates)
        by_owner: dict[int, list[int]] = {}
        for entity in commit.updates:
            owner = self.partition.owner(entity)
            if owner is not None:
                by_owner.setdefault(owner, []).append(entity)
        for owner, entities in by_owner.items():
            self._send(owner, CommitOrder(
                txn_id=commit.txn_id, snapshot=self.snapshot(),
                updates=tuple(entities)))

    def _handle_remote_release(self, release: RemoteRelease) -> None:
        self.locks.release_all(release.txn_id)
        self._remote_holders.pop(release.txn_id, None)

    def _collect_auth_reply(self, reply: AuthReply) -> None:
        pending = self._pending_auth.get(reply.auth_id)
        if pending is None:
            if self.channels:
                # Cancelled rounds are deregistered once fully replied;
                # anything later is a harmless straggler.
                return
            raise RuntimeError(f"unknown auth round {reply.auth_id}")
        pending.replies.append(reply)
        if len(pending.replies) == pending.expected:
            del self._pending_auth[reply.auth_id]
            if pending.cancelled:
                # The transaction was killed mid-round.  Every master
                # that granted has (by FIFO) done so before replying, so
                # releasing on the completed round can never overtake a
                # grant.
                for late in pending.replies:
                    if late.granted:
                        self._send(late.site, ReleaseOrder(
                            txn_id=pending.txn_id,
                            snapshot=self.snapshot()))
                return
            pending.event.succeed(pending.replies)

    # -- central transaction execution ----------------------------------------------

    def _finish(self, txn: Transaction):
        # Returns the generator itself: no extra ``yield from`` level.
        return self._authenticate_and_commit(txn)

    def _interrupted(self, txn: Transaction) -> None:
        """ShipmentCancel: the home site gave up on this transaction.

        Release everything held here (``release_all`` also cancels any
        queued lock request) and stop without completing -- the cancel
        handshake guarantees nobody still expects a response.  Master
        locks, if an authentication round was in flight, are released
        as its replies arrive (see ``_collect_auth_reply`` and
        ``_authenticate_and_commit``).
        """
        self._release(txn)
        self.metrics.record_cancelled(txn)

    def _masters_of(self, txn: Transaction) -> dict[int, list]:
        """Group the transaction's references by master site.

        Shipped class A transactions involve only their source site; class
        B transactions involve the owner of every referenced entity.
        Entities in the unowned tail of the lock space have no master and
        need no authentication.
        """
        by_site: dict[int, list] = {}
        for reference in txn.references:
            owner = self.partition.owner(reference.entity)
            if owner is None:
                continue
            by_site.setdefault(owner, []).append(
                (reference.entity, reference.mode))
        if txn.placement is Placement.SHIPPED:
            # All of a class A transaction's data is mastered at its home
            # site by construction; assert rather than trust.
            assert set(by_site) <= {txn.home_site}
        return by_site

    def _authenticate_and_commit(self, txn: Transaction):
        """Authentication phase, final validation, commit, response.

        Returns True when the transaction committed; False to re-execute
        (negative acknowledgement or late invalidation).
        """
        config = self.config
        yield from self.cpu_burst(config.instr_auth_central, txn)
        masters = self._masters_of(txn)
        if masters:
            auth_id = next(self._auth_ids)
            done = Event(self.env)
            pending = _PendingAuth(
                event=done, expected=len(masters), txn_id=txn.txn_id)
            self._pending_auth[auth_id] = pending
            for site, references in masters.items():
                request = AuthRequest(
                    auth_id=auth_id, txn_id=txn.txn_id,
                    references=tuple(references),
                    snapshot=self.snapshot(), deadline=txn.deadline)
                pending.requests[site] = self._send(site, request)
            # Both message legs plus the master-site checks count as the
            # authentication phase of this transaction's timeline.
            txn.spans.enter(PHASE_AUTH, self.env.now)
            try:
                replies = yield done
            except Interrupt:
                # Cancelled mid-round.  The round stays registered,
                # poisoned, so master grants already in flight are
                # released once every reply has arrived (releasing
                # earlier could overtake a not-yet-processed grant).
                pending.cancelled = True
                txn.spans.exit(self.env.now)
                raise
            txn.spans.exit(self.env.now)
            self.metrics.record_auth_round(
                all(reply.granted for reply in replies))
            if not all(reply.granted for reply in replies):
                # Some master answered NAK: release any granted locks and
                # re-execute (the paper: "it re-executes the transaction
                # and repeats the process").
                self.metrics.record_negative_ack(
                    txn, sites=tuple(reply.site for reply in replies
                                     if not reply.granted))
                self._release_masters(txn, masters)
                txn.record_abort()
                return False
        # Final validation: were our locks invalidated by asynchronous
        # updates while we were authenticating?
        if txn.marked_for_abort:
            self._release_masters(txn, masters)
            self._abort_invalidated(txn)
            return False
        try:
            yield from self.cpu_burst(config.instr_commit, txn)
        except Interrupt:
            # Cancelled before the commit message: undo the granted
            # authentications, then let _interrupted clean up the rest.
            self._release_masters(txn, masters)
            raise
        if txn.marked_for_abort:
            # Invalidated during commit processing, before the commit
            # message is sent -- still safe to re-execute.
            self._release_masters(txn, masters)
            self._abort_invalidated(txn)
            return False
        # Apply the transaction's updates to the central replica and
        # distribute per-master commit orders carrying the update lists.
        self.data.apply_updates(txn.update_entities)
        if txn.update_entities:
            self._ship_log((tuple(txn.update_entities),))
        for site, references in masters.items():
            site_updates = tuple(entity for entity, mode in references
                                 if mode is LockMode.EXCLUSIVE)
            self._send(site, CommitOrder(
                txn_id=txn.txn_id, snapshot=self.snapshot(),
                updates=site_updates))
        return (yield from self._respond(txn))

    def _respond(self, txn: Transaction):
        """Release a committed transaction and deliver its response."""
        self._release(txn)
        # The transaction no longer occupies the central site; the output
        # message travels back to the user's region.
        self.active.pop(txn.txn_id, None)
        if self.channels:
            # Reliability on: the response is a real message on the
            # site's channel, so it survives outages via retransmission
            # and (being FIFO-ordered with cancel-acks) is definitive.
            # Past this point the transaction can no longer be killed.
            self._finished.add(txn.txn_id)
            self._processes.pop(txn.txn_id, None)
            txn.spans.enter(PHASE_COMM, self.env.now)
            self._send(txn.home_site,
                       TxnResponse(txn=txn, snapshot=self.snapshot()))
            return True
        txn.spans.enter(PHASE_COMM, self.env.now)
        yield self.env.timeout(self.config.comm_delay)
        txn.complete(self.env.now)
        self.metrics.record_completion(txn)
        if txn.placement is Placement.SHIPPED:
            self.system.sites[txn.home_site].on_shipped_response(txn)
        return True

    def _release_masters(self, txn: Transaction,
                         masters: dict[int, list]) -> None:
        for site in masters:
            self._send(site, ReleaseOrder(
                txn_id=txn.txn_id, snapshot=self.snapshot()))
