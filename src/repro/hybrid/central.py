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

Under a fault plan the site runs with the survivability layer of
:mod:`repro.hybrid.survival` composed over it (reliable channels, the
cancel handshake, rejoin and the hot-standby role); this module is the
fault-free Section 2 protocol alone.  The layer's cancel reactions
override ``_await_auth``, ``_commit_burst`` and ``_round_replied``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..db.locks import DeadlockError, LockMode
from ..db.replica import ReplicaStore
from ..db.transaction import Placement, Transaction
from ..db.workload import LockSpacePartition
from ..sim.engine import Environment, Event
from ..sim.network import Link, Message
from ..sim.spans import PHASE_AUTH, PHASE_COMM
from .base import SiteBase
from .protocol import (
    AuthReply,
    AuthRequest,
    CentralSnapshot,
    CommitOrder,
    ReleaseOrder,
    RemoteCommit,
    RemoteInvalidate,
    RemoteLockReply,
    RemoteLockRequest,
    RemoteRelease,
    TxnShipment,
    UpdateAck,
    UpdatePropagation,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .config import SystemConfig
    from .metrics import MetricsCollector
    from .system import HybridSystem

__all__ = ["CentralSite"]


@dataclass
class _PendingAuth:
    """One authentication round in flight: the event its transaction
    waits on, the number of masters asked and their replies so far."""

    event: Event
    expected: int
    replies: list[AuthReply] = field(default_factory=list)


class CentralSite(SiteBase):
    """The central computing complex of the hybrid architecture."""

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
    #: Whether this central holds the central role, and whether a
    #: standby's takeover deposed it: fixed for the paper's single
    #: central; the survivability layer's standby role changes them.
    is_active = True
    deposed = False

    def __init__(self, env: Environment, config: "SystemConfig",
                 system: "HybridSystem", partition: LockSpacePartition,
                 name: str = "central"):
        super().__init__(env, config, config.central_mips, name=name)
        self.system = system
        self.partition = partition
        self.metrics: "MetricsCollector" = system.metrics

        #: Central replica of every regional database (update counters).
        self.data = ReplicaStore(name=name)
        self.to_sites: list[Link] = []
        self.from_sites: list[Link] = []
        #: What central->site messages leave through, per site: the
        #: links, or the survivability layer's channels.
        self.downlinks: list = []

        self._auth_ids = itertools.count(1)
        self._pending_auth: dict[int, _PendingAuth] = {}
        #: Distributed-mode transactions holding remote locks here:
        #: txn_id -> home site (for invalidation notices).
        self._remote_holders: dict[int, int] = {}

    # -- wiring ---------------------------------------------------------------

    def attach_links(self, to_sites: list[Link],
                     from_sites: list[Link]) -> None:
        self.to_sites = to_sites
        self.from_sites = from_sites
        self.downlinks = list(to_sites)
        for site_id, link in enumerate(from_sites):
            self.env.process(self._dispatch(site_id, link),
                             name=f"{self.name}:dispatch-{site_id}")

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
        self.downlinks[site].send(message)
        return message

    def _ship_log(self, updates, site: int | None = None,
                  seq: int = 0) -> None:
        """Hook called with every update applied here; the survivability
        layer's primary ships it to the hot standby."""

    # -- inbound message handling ------------------------------------------------

    def _dispatch(self, site_id: int, link: Link):
        """Per-site inbound loop.

        A handler that consumes CPU returns a generator, which runs
        *inline* (one message at a time) so that the protocol's per-site
        FIFO processing requirement holds.
        """
        while True:
            message = yield link.mailbox.get()
            payload = message.payload
            work = getattr(self, self.handlers[type(payload)])(payload)
            if work is not None:
                yield from work

    def _on_shipment(self, shipment: TxnShipment) -> None:
        self.admit(shipment.txn)

    def _on_remote_lock(self, request: RemoteLockRequest) -> None:
        self.env.process(self._handle_remote_lock(request),
                         name=f"central:remote-lock-{request.site}")

    def admit(self, txn: Transaction) -> None:
        """Start executing a shipped class A or class B transaction."""
        self._processes[txn.txn_id] = self.env.process(
            self._run(txn), name=f"txn-{txn.txn_id}@{self.name}")

    def _apply_updates(self, propagation: UpdatePropagation):
        """Apply an asynchronous update batch (Section 2).

        Locks at the central site on the updated data are invalidated:
        the transactions holding them are marked for abort (they discover
        the mark at their commit check).  The batch is then acknowledged.
        """
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
            raise RuntimeError(f"unknown auth round {reply.auth_id}")
        pending.replies.append(reply)
        if len(pending.replies) == pending.expected:
            del self._pending_auth[reply.auth_id]
            self._round_replied(reply.auth_id, pending)

    def _round_replied(self, auth_id: int, pending: _PendingAuth) -> None:
        """Every master has replied: wake the waiting transaction."""
        pending.event.succeed(pending.replies)

    # -- central transaction execution ----------------------------------------------

    def _finish(self, txn: Transaction):
        # Returns the generator itself: no extra ``yield from`` level.
        return self._authenticate_and_commit(txn)

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
        yield from self.cpu_burst(self.config.instr_auth_central, txn)
        masters = self._masters_of(txn)
        if masters:
            auth_id = next(self._auth_ids)
            done = Event(self.env)
            self._pending_auth[auth_id] = _PendingAuth(
                event=done, expected=len(masters))
            for site, references in masters.items():
                self._send(site, AuthRequest(
                    auth_id=auth_id, txn_id=txn.txn_id,
                    references=tuple(references),
                    snapshot=self.snapshot(), deadline=txn.deadline))
            replies = yield from self._await_auth(txn, done)
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
        yield from self._commit_burst(txn, masters)
        if txn.marked_for_abort:
            # Invalidated during commit processing, before the commit
            # message is sent -- still safe to re-execute.
            self._release_masters(txn, masters)
            self._abort_invalidated(txn)
            return False
        return (yield from self._commit_and_respond(txn, masters))

    def _await_auth(self, txn: Transaction, event: Event):
        """Wait for ``event``: both message legs plus the master-site
        checks (or the epoch boundary) are the authentication phase."""
        txn.spans.enter(PHASE_AUTH, self.env.now)
        result = yield event
        txn.spans.exit(self.env.now)
        return result

    def _commit_burst(self, txn: Transaction, masters: dict[int, list]):
        # Returns the generator itself: no extra ``yield from`` level.
        # The layer releases ``masters`` when a cancel interrupts it.
        return self.cpu_burst(self.config.instr_commit, txn)

    def _commit_and_respond(self, txn: Transaction,
                            masters: dict[int, list],
                            order=CommitOrder, skip_empty: bool = False):
        """Commit a validated transaction and respond.

        Applies its updates to the central replica and sends each master
        site an ``order`` carrying that site's update list.  With
        ``skip_empty`` a master with no updates gets no order (the epoch
        protocol holds no master locks to release).
        """
        self.data.apply_updates(txn.update_entities)
        if txn.update_entities:
            self._ship_log((tuple(txn.update_entities),))
        for site, references in masters.items():
            site_updates = tuple(entity for entity, mode in references
                                 if mode is LockMode.EXCLUSIVE)
            if site_updates or not skip_empty:
                self._send(site, order(
                    txn_id=txn.txn_id, snapshot=self.snapshot(),
                    updates=site_updates))
        return (yield from self._respond(txn))

    def _respond(self, txn: Transaction):
        """Release a committed transaction and deliver its response."""
        self._release(txn)
        # The transaction no longer occupies the central site; the output
        # message travels back to the user's region.
        self.active.pop(txn.txn_id, None)
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
