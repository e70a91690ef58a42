"""Local (distributed) site: class A execution and master-site protocol.

A local site

* receives the arrival stream for its region, routes each class A
  transaction (retain or ship) by consulting its :class:`~repro.core.router.Router`,
  and ships every class B transaction;
* runs retained class A transactions under strict two-phase locking with
  the paper's commit rule: check the abort mark, release locks, increment
  coherence counts, and send the update propagation message
  *asynchronously* (the transaction completes without waiting);
* acts as the *master* in the authentication phase of central/shipped
  transactions: answers NAK when coherence counts are non-zero, grants
  locks (evicting and marking incompatible local holders for abort)
  otherwise, and applies commit/release orders;
* maintains the newest :class:`CentralSnapshot` gleaned from incoming
  central messages -- the (delayed) central state the dynamic routing
  strategies consume.

Under a fault plan the site runs with the survivability layer of
:mod:`repro.hybrid.survival` composed over it; this module is the
fault-free Section 2 protocol alone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..db.locks import DeadlockError
from ..db.replica import ReplicaStore
from ..db.transaction import Placement, Reference, Transaction, \
    TransactionClass
from ..sim.engine import Environment, Event, Process
from ..sim.network import Link, Message
from ..sim.spans import PHASE_COMM
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
    from ..core.router import Router
    from .config import SystemConfig
    from .metrics import MetricsCollector
    from .system import HybridSystem

__all__ = ["LocalSite"]


class LocalSite(SiteBase):
    """Local site with asynchronous updates and optimistic authentication.

    One geographically distributed system of the hybrid architecture,
    under the paper's protocol; the other protocols subclass it.
    """

    invalidated_cause = "local-invalidated"

    HANDLERS = {
        AuthRequest: "_on_auth_request",
        CommitOrder: "_handle_commit_order",
        ReleaseOrder: "_handle_release_order",
        UpdateAck: "_handle_update_ack",
        RemoteLockReply: "_on_remote_reply",
        RemoteInvalidate: "_on_remote_invalidate",
    }
    #: The survivability layer's standby links; perfbench reads them on
    #: every site, so a fault-free site has them too.
    to_standby: Link | None = None
    from_standby: Link | None = None

    def __init__(self, env: Environment, site_id: int,
                 config: "SystemConfig", system: "HybridSystem",
                 router: "Router"):
        super().__init__(env, config, config.local_mips,
                         name=f"site-{site_id}")
        self.site_id = site_id
        self.system = system
        self.router = router
        self.metrics: "MetricsCollector" = system.metrics

        #: Master replica of this region's data (update counters).
        self.data = ReplicaStore(name=f"site-{site_id}")
        #: Transactions shipped from this site and not yet responded.
        self.shipped_in_flight = 0
        #: Newest central state heard via protocol messages.
        self.central_snapshot = CentralSnapshot.empty()

        # Links are attached by the system after both endpoints exist.
        # ``uplink`` is what site->central messages leave through: the
        # link itself, or the survivability layer's channel.
        self.to_central: Link | None = None
        self.from_central: Link | None = None
        self.uplink: Link | None = None

        #: Per-site monotone batch number for update propagation; every
        #: sent batch is tracked until its ack arrives so a stale or
        #: duplicated ack (crash/failover re-sends) cannot drive a
        #: coherence count below zero.
        self._update_seq = 0
        self._unacked_updates: dict[int, tuple[tuple[int, ...], ...]] = {}
        # Remote-call bookkeeping (fully distributed class B mode).
        self._remote_call_ids = 0
        self._pending_remote_calls: dict[int, "Event"] = {}
        #: Remote locks each distributed transaction holds at central.
        self._remote_locked: dict[int, set[int]] = {}

    # -- wiring --------------------------------------------------------------

    def attach_links(self, to_central: Link, from_central: Link) -> None:
        self.to_central = to_central
        self.from_central = from_central
        self.uplink = to_central
        self.env.process(self._dispatch(), name=f"{self.name}:dispatch")

    # -- arrival handling --------------------------------------------------------

    def submit(self, txn: Transaction) -> None:
        """Entry point for the arrival process."""
        if txn.txn_class is TransactionClass.B:
            if self.config.class_b_mode == "remote-call":
                txn.route(Placement.DISTRIBUTED)
                self.metrics.record_routing(txn, reason="class-b")
                self._start_process(txn, self._run(txn), suffix=":dist")
            else:
                txn.route(Placement.CENTRAL)
                self.metrics.record_routing(txn, reason="class-b")
                self._ship_class_b(txn)
            return
        observation = self.observe()
        decision = self.router.decide(txn, observation)
        txn.route(decision)
        self.metrics.record_routing(txn, observation=observation,
                                    reason="strategy")
        if decision is Placement.LOCAL:
            self._start_process(txn, self._run(txn))
        else:
            self.shipped_in_flight += 1
            self._ship(txn)

    def _start_process(self, txn: Transaction, generator,
                       suffix: str = "") -> None:
        """Spawn and register a transaction process."""
        process = self.env.process(
            generator, name=f"txn-{txn.txn_id}@{self.name}{suffix}")
        self._processes[txn.txn_id] = process

    def observe(self):
        """Build the routing observation (exact local, delayed central)."""
        from ..core.router import RoutingObservation
        central = (self.system.acting_central.snapshot()
                   if self.config.instant_central_state
                   else self.central_snapshot)
        return RoutingObservation(
            now=self.env.now,
            site=self.site_id,
            local_queue_length=self.cpu_queue_length,
            local_n_txns=len(self.active),
            local_locks_held=self.locks.total_locks_held(),
            shipped_in_flight=self.shipped_in_flight,
            central=central,
        )

    def _send_central(self, payload) -> None:
        """Send one site->central message."""
        kind = payload.kind
        self.metrics.record_message(to_central=True, kind=kind,
                                    site=self.site_id)
        self.uplink.send(Message(kind=kind, source=self.site_id,
                                 payload=payload))

    def _ship_class_b(self, txn: Transaction) -> None:
        """Class B runs only centrally: ship it."""
        self._ship(txn)

    def _ship(self, txn: Transaction) -> None:
        txn.spans.enter(PHASE_COMM, self.env.now)
        self._send_central(TxnShipment(txn))

    def on_shipped_response(self, txn: Transaction) -> None:
        """The central site delivered the response for a shipped class A."""
        self.shipped_in_flight -= 1
        self.router.observe_completion(txn)

    # -- local class A execution ----------------------------------------------

    def _finish(self, txn: Transaction):
        """Commit processing, the re-check, then the commit protocol."""
        yield from self.cpu_burst(self.config.instr_commit, txn)
        # Re-check after commit processing: an authentication may have
        # evicted us while we held the CPU for the commit burst; the
        # check and the release must be atomic with respect to
        # authentication handling.
        if txn.marked_for_abort:
            self._abort_invalidated(txn)
            return False
        if txn.placement is Placement.DISTRIBUTED:
            self._commit_distributed(txn)
            return True
        return (yield from self._commit_phase(txn))

    def _commit_phase(self, txn: Transaction):
        """Commit-protocol hook: finish a transaction that passed its
        abort checks.  Returns ``True`` when the run is over (committed,
        or its completion delegated elsewhere) and ``False`` to re-run.

        The default is the optimistic protocol's synchronous local
        commit; it never yields, so ``yield from`` runs it as a call.
        """
        self._commit(txn)
        return True
        yield  # pragma: no cover - unreachable; makes this a generator

    def _commit(self, txn: Transaction) -> None:
        """Release locks, start asynchronous propagation, complete."""
        self._release(txn)
        if txn.update_entities:
            self._propagate(txn.update_entities)
        self._complete(txn)

    def _complete(self, txn: Transaction) -> None:
        """A transaction run here responds to its user."""
        txn.complete(self.env.now)
        self.metrics.record_completion(txn)
        self.router.observe_completion(txn)

    def _propagate(self, updates: tuple[int, ...]) -> None:
        """Apply committed updates to the master copy, raise their
        coherence counts and queue their propagation to central."""
        self.data.apply_updates(updates)
        for entity in updates:
            self.locks.increment_coherence(entity)
        self._queue_update(updates)

    def _queue_update(self, updates: tuple[int, ...]) -> None:
        """Send the commit's asynchronous update propagation message."""
        self._send_updates((updates,))

    def _send_updates(self, batch: tuple[tuple[int, ...], ...]) -> int:
        """Send one update batch under the next sequence number, tracked
        until its ack arrives; returns that number."""
        self._update_seq += 1
        seq = self._update_seq
        self._unacked_updates[seq] = batch
        self._send_central(UpdatePropagation(self.site_id, batch, seq=seq))
        return seq

    # -- fully distributed class B execution (remote-call mode) -----------------

    def _split_references(self, txn: Transaction) -> tuple[list, list]:
        """Home-partition references first, remote references second.

        The two-phase ordering (all local locks before any remote lock)
        prevents cross-site deadlock: a transaction holding remote locks
        never waits for a local one, so every wait cycle is confined to
        a single lock table, where the per-site detectors see it.
        """
        low, high = self.system.partition.site_range(self.site_id)
        local_refs = [ref for ref in txn.references
                      if low <= ref.entity < high]
        remote_refs = [ref for ref in txn.references
                       if not low <= ref.entity < high]
        return local_refs, remote_refs

    def _execute_calls(self, txn: Transaction, references,
                       first_run: bool):
        if txn.placement is Placement.DISTRIBUTED:
            return self._distributed_calls(txn, first_run)
        return super()._execute_calls(txn, references, first_run)

    def _distributed_calls(self, txn: Transaction, first_run: bool):
        """Home-partition data under local locking, then remote data
        from the central server (the introduction's fully distributed
        mode); a refused remote lock aborts the run like a deadlock."""
        local_refs, remote_refs = self._split_references(txn)
        yield from super()._execute_calls(txn, local_refs, first_run)
        remote_locked = self._remote_locked.setdefault(txn.txn_id, set())
        for reference in remote_refs:
            if reference.entity not in remote_locked:
                granted = yield from self._remote_call(txn, reference)
                if not granted:
                    raise DeadlockError(txn.txn_id, reference.entity)
                remote_locked.add(reference.entity)
            yield from self.cpu_burst(self.config.instr_per_db_call, txn)

    def _abort_deadlock(self, txn: Transaction) -> None:
        super()._abort_deadlock(txn)
        if self._remote_locked.pop(txn.txn_id, None):
            self._send_central(RemoteRelease(
                txn_id=txn.txn_id, site=self.site_id))

    def _remote_call(self, txn: Transaction, reference: Reference):
        """Synchronous lock-and-fetch round trip to the data server."""
        self._remote_call_ids += 1
        call_id = self._remote_call_ids
        done = Event(self.env)
        self._pending_remote_calls[call_id] = done
        self._send_central(RemoteLockRequest(
            call_id=call_id, txn_id=txn.txn_id, site=self.site_id,
            entity=reference.entity, mode=reference.mode))
        # The round trip (both legs plus central-side queueing/locking)
        # is communication from this transaction's point of view.
        txn.spans.enter(PHASE_COMM, self.env.now)
        reply = yield done
        txn.spans.exit(self.env.now)
        return reply.granted

    def _commit_distributed(self, txn: Transaction) -> None:
        """Commit: local part like a class A commit, remote part via the
        data server (which forwards updates to the owning masters)."""
        remote_locked = self._remote_locked.pop(txn.txn_id, None)
        low, high = self.system.partition.site_range(self.site_id)
        self._release(txn)
        home_updates = tuple(entity for entity in txn.update_entities
                             if low <= entity < high)
        remote_updates = tuple(entity for entity in txn.update_entities
                               if not low <= entity < high)
        if home_updates:
            self._propagate(home_updates)
        if remote_locked or remote_updates:
            self._send_central(RemoteCommit(
                txn_id=txn.txn_id, site=self.site_id,
                updates=remote_updates))
        txn.complete(self.env.now)
        self.metrics.record_completion(txn)

    # -- master-site protocol ------------------------------------------------------

    def _dispatch(self):
        """Handle central -> site messages in arrival order."""
        while True:
            message = yield self.from_central.mailbox.get()
            self._receive(message.payload)

    def _receive(self, payload) -> None:
        """Handle one central -> site payload through the table."""
        handler = getattr(self, self.handlers[type(payload)])
        snapshot = payload.snapshot
        # Section 4.2: by default the sites learn central state only
        # from authentication-phase traffic, not from the (far more
        # frequent) asynchronous-update acknowledgements.
        if snapshot.time > self.central_snapshot.time and (
                type(payload) is not UpdateAck or
                self.config.snapshot_on_update_acks):
            self.central_snapshot = snapshot
        handler(payload)

    def _on_auth_request(self, request: AuthRequest) -> Process:
        # Authentication checks consume local CPU: run each in a child
        # process so unrelated messages are not blocked.
        return self.env.process(self._handle_auth(request),
                                name=f"{self.name}:auth")

    def _on_remote_reply(self, reply: RemoteLockReply) -> None:
        pending = self._pending_remote_calls.pop(reply.call_id, None)
        if pending is not None:
            pending.succeed(reply)

    def _on_remote_invalidate(self, notice: RemoteInvalidate) -> None:
        victim = self.active.get(notice.txn_id)
        if victim is not None and not victim.marked_for_abort:
            victim.mark_for_abort("remote-lock-invalidated")

    def _handle_auth(self, request: AuthRequest):
        """Authentication phase at the master site (Section 2)."""
        yield from self.cpu_burst(self.config.instr_auth_master)
        self._answer_auth(request)

    def _answer_auth(self, request: AuthRequest) -> None:
        """NAK while asynchronous updates to the entities are in flight;
        otherwise grant the locks, evicting and marking for abort the
        incompatible local holders."""
        granted = not any(self.locks.coherence_count(entity)
                          for entity, _mode in request.references)
        if granted:
            for entity, mode in request.references:
                evicted = self.locks.force_grant(request.txn_id, entity,
                                                 mode)
                for victim_id in evicted:
                    victim = self.active.get(victim_id)
                    if victim is not None:
                        victim.mark_for_abort("invalidated-by-authentication")
                        if entity in victim.locked_entities:
                            victim.locked_entities.remove(entity)
        self._send_central(AuthReply(
            auth_id=request.auth_id, txn_id=request.txn_id,
            site=self.site_id, granted=granted))

    def _handle_commit_order(self, order: CommitOrder) -> None:
        """Apply the central transaction's updates, release its locks."""
        self.data.apply_updates(order.updates)
        self.locks.release_all(order.txn_id)

    def _handle_release_order(self, order: ReleaseOrder) -> None:
        """Failed authentication elsewhere: drop any granted locks."""
        self.locks.release_all(order.txn_id)

    def _handle_update_ack(self, ack: UpdateAck) -> None:
        """Central applied our updates: decrement the coherence counts.

        Only batches still accounted as outstanding count -- a stale or
        duplicated ack (possible across crash recovery or failover
        re-sends) must not drive a coherence count below zero.
        """
        if self._unacked_updates.pop(ack.seq, None) is None:
            return
        for group in ack.updates:
            for entity in group:
                self.locks.decrement_coherence(entity)
