"""The survivability layer: what the sites do only under a fault plan.

The paper's Section 2 protocol (:mod:`repro.hybrid.local`,
:mod:`repro.hybrid.central` and :mod:`repro.hybrid.protocols`) assumes
that nothing fails.  Under a non-empty fault plan
:func:`~repro.hybrid.system.site_classes` composes the layer classes
below over the protocol's site pair with :func:`survivable`, and
:func:`install` wires them; a fault-free run never imports this module.

The local layer adds reliable channels, the shipment watchdog and
cancel handshake, suspicion and fallback routing, deadlines and the
:class:`CircuitBreaker`, failover re-pointing and fencing, and crash
and rejoin.  The central layer adds site channels, the cancel
handshake's central side, ``(site, seq)`` batch dedup, the rejoin
snapshot and the whole hot-standby role.  A protocol's own fault hooks
(2PC's ``_on_failover``, ``on_crash`` and ``_on_deposed``, the epoch
protocol's ``on_crash`` and ``_on_deposed``) stay in its module and
reach the layer through ``super()``.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

from ..db.locks import LockManager
from ..db.replica import ReplicaStore
from ..db.transaction import Placement, Transaction, TransactionClass
from ..sim.engine import Environment, Event, Interrupt, Process
from ..sim.faults import FaultInjector
from ..sim.network import Link, Message, ReliableEndpoint
from ..sim.spans import PHASE_COMM
from .base import Handlers
from .central import CentralSite
from .local import LocalSite
from .protocol import (
    AuthReply,
    CancelAck,
    CentralSnapshot,
    FailoverNotice,
    Heartbeat,
    LogRecord,
    RejoinRequest,
    RejoinSnapshot,
    RemoteLockReply,
    ShipmentCancel,
    TakeoverNotice,
    TxnResponse,
    UpdateAck,
    UpdatePropagation,
)
from .system import publish_links

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .system import HybridSystem

__all__ = ["CircuitBreaker", "SurvivableLocalSite", "SurvivableCentralSite",
           "survivable", "install", "publish_gauges"]


class CircuitBreaker:
    """Circuit breaker for one site's path to the central complex.

    Classic three-state machine: ``closed`` (normal), ``open`` (fail
    fast after ``threshold`` consecutive shipment timeouts), and
    ``half-open`` (after ``cooldown`` seconds each candidate shipment
    probes the path with probability ``probe``, drawn from the site's
    named ``breaker:`` RNG stream so runs stay reproducible).  Any
    completed shipment closes the breaker; a timeout in half-open
    re-opens it immediately.
    """

    def __init__(self, env: Environment, threshold: int, cooldown: float,
                 probe: float, rng_factory, on_transition):
        self.env = env
        self.threshold = threshold
        self.cooldown = cooldown
        self.probe = probe
        self._rng_factory = rng_factory
        self._on_transition = on_transition
        self.state = "closed"
        self.consecutive_timeouts = 0
        self.opened_at = float("-inf")

    def allows(self) -> bool:
        """May a shipment be sent right now?  (May transition states.)"""
        if self.state == "closed":
            return True
        if self.state == "open":
            if self.env.now - self.opened_at < self.cooldown:
                return False
            self._transition("half-open")
        # Half-open: probabilistic probe.
        return self._rng_factory().random() < self.probe

    def on_timeout(self) -> None:
        self.consecutive_timeouts += 1
        if self.state == "half-open" or (
                self.state == "closed" and
                self.consecutive_timeouts >= self.threshold):
            self.opened_at = self.env.now
            self._transition("open")

    def on_success(self) -> None:
        self.consecutive_timeouts = 0
        if self.state != "closed":
            self._transition("closed")

    def reset(self) -> None:
        """Silent reset (crash recovery wipes the breaker's memory)."""
        self.state = "closed"
        self.consecutive_timeouts = 0
        self.opened_at = float("-inf")

    def _transition(self, to: str) -> None:
        if to == self.state:
            return
        self.state = to
        self._on_transition(to)


class SurvivableLocalSite(LocalSite):
    """The local site's survivability layer (see the module docstring)."""

    #: Central -> site payloads only a fault plan produces.
    FAULT_HANDLERS = {
        TxnResponse: "_complete_shipped",
        CancelAck: "_on_cancel_ack",
        RejoinSnapshot: "_on_rejoin_snapshot",
        FailoverNotice: "_on_failover",
    }
    HANDLERS = {**LocalSite.HANDLERS, **FAULT_HANDLERS}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        plan = self.system.fault_plan
        self.retry = plan.retry
        self.recovery = plan.recovery
        #: Channel ends to central and to the standby (see :func:`install`).
        self.channel: ReliableEndpoint | None = None
        self.standby_channel: ReliableEndpoint | None = None
        #: Held by the fault injector during a site-crash episode.
        self.down = False
        #: Whether repeated shipment timeouts have marked central suspect.
        self.central_suspected = False
        #: Shipped transactions awaiting their response: txn_id -> txn.
        self._pending_ship: dict[int, Transaction] = {}
        #: In-progress ShipmentCancel handshakes: txn_id -> Event.
        self._pending_cancels: dict[int, Event] = {}
        #: Shipment watchdogs, interruptible on crash.
        self._watchdogs: dict[int, Process] = {}
        #: Master authentication checks (``_handle_auth``) that may still
        #: be running, likewise interruptible on crash.
        self._auth_checks: list[Process] = []
        #: True once a FailoverNotice re-pointed routing at the standby.
        self.on_standby = False
        #: True while a rejoin-mode crash episode destroys this site.
        self.crashed = False
        #: True between episode end and rejoin-snapshot installation.
        self.recovering = False
        self._rejoin_started = 0.0
        #: Arrivals queued during crash/recovery (``admission_limit``).
        self._admission_queue: list[Transaction] = []
        self.breaker: CircuitBreaker | None = None
        recovery = self.recovery
        if recovery.breaker_threshold > 0:
            self.breaker = CircuitBreaker(
                self.env,
                threshold=recovery.breaker_threshold,
                cooldown=recovery.breaker_cooldown,
                probe=recovery.breaker_probe,
                rng_factory=lambda: self.system.streams.stream(
                    f"breaker:{self.name}"),
                on_transition=lambda state: self.metrics.record_breaker(
                    self.site_id, state))

    # -- arrivals and shipping -----------------------------------------------

    def submit(self, txn: Transaction) -> None:
        recovery = self.recovery
        if self.down or self.crashed or self.recovering:
            if recovery.rejoin:
                # Queue for post-rejoin admission (bounded).
                limit = recovery.admission_limit
                if limit and len(self._admission_queue) >= limit:
                    self.metrics.record_shed(txn, node=self.name)
                else:
                    self._admission_queue.append(txn)
                return
            # A crashed site accepts no work; the arrival is turned away
            # (and counted against availability).
            self.metrics.record_rejected_arrival(txn)
            return
        if recovery.deadline > 0 and txn.deadline is None:
            txn.deadline = self.env.now + recovery.deadline
        if txn.txn_class is TransactionClass.A:
            fallback = self._fallback_reason()
            if fallback is not None:
                # Failure-aware routing: with central suspected (or its
                # state aged beyond trust) class A work stays home
                # without even consulting the strategy.
                txn.route(Placement.LOCAL)
                self.metrics.record_fallback_routing(txn, fallback)
                self.metrics.record_routing(txn,
                                            reason=f"fallback:{fallback}")
                self._start_process(txn, self._run(txn))
                return
        super().submit(txn)

    def _ship_class_b(self, txn: Transaction) -> None:
        if self.breaker is not None and not self.breaker.allows():
            # Class B can only run centrally: fail fast while the
            # breaker holds the path open.
            self.metrics.record_failure(txn, cause="breaker-open")
            return
        super()._ship_class_b(txn)

    def _fallback_reason(self) -> str | None:
        """Why class A must stay local, or ``None`` when central is fine.

        The bootstrap state -- no central message heard yet, snapshot
        time ``-inf`` -- is *not* stale: the paper's optimistic start
        behaviour is preserved.
        """
        if self.central_suspected:
            return "central-suspected"
        if self.breaker is not None and not self.breaker.allows():
            return "breaker-open"
        snapshot_time = self.central_snapshot.time
        if snapshot_time > float("-inf") and \
                self.env.now - snapshot_time > self.retry.snapshot_max_age:
            return "snapshot-stale"
        return None

    def _ship(self, txn: Transaction) -> None:
        super()._ship(txn)
        self._pending_ship[txn.txn_id] = txn
        self._watchdogs[txn.txn_id] = self.env.process(
            self._ship_watchdog(txn),
            name=f"txn-{txn.txn_id}@{self.name}:watchdog")

    # -- shipment supervision --------------------------------------------------

    def _ship_watchdog(self, txn: Transaction):
        """Bound the transaction-level wait for a shipment's response.

        The channel retries each message forever; this is the bounded
        budget on the whole exchange.  When it runs out (or the deadline
        passes) the site settles the transaction with a cancel
        handshake: the FIFO, exactly-once channel processes the cancel
        after the shipment, so central's "killed" or "completed" is
        definitive and the transaction never runs twice.
        """
        try:
            retry = self.retry
            delay = retry.shipment_timeout
            deadline_hit = False
            for _attempt in range(retry.shipment_attempts):
                sleep = delay
                if txn.deadline is not None:
                    sleep = min(sleep,
                                max(txn.deadline - self.env.now, 0.0))
                yield self.env.timeout(sleep)
                if txn.txn_id not in self._pending_ship:
                    return  # response arrived
                if txn.deadline is not None and \
                        self.env.now >= txn.deadline:
                    # A missed deadline is a failed exchange on the
                    # site->central path; it feeds the breaker just
                    # like an exhausted retry budget.
                    deadline_hit = True
                    if self.breaker is not None:
                        self.breaker.on_timeout()
                    break
                delay *= retry.backoff
            else:
                self.metrics.record_timeout(txn)
                self._suspect_central()
                if self.breaker is not None:
                    self.breaker.on_timeout()
            outcome = yield from self._cancel_shipment(txn)
            if txn.txn_id not in self._pending_ship:
                return  # response (or a failover) raced the cancel
            if outcome != "killed":
                return  # "completed": the response is on the wire
            del self._pending_ship[txn.txn_id]
            if deadline_hit:
                # Past its deadline: the transaction fails outright --
                # re-running it anywhere would still miss it.
                if txn.placement is Placement.SHIPPED:
                    self.shipped_in_flight -= 1
                self.metrics.record_deadline_cancel(txn)
                self.metrics.record_failure(txn, cause="deadline")
                return
            if txn.txn_class is TransactionClass.A:
                self._rerun_locally(txn)
            else:
                # Class B can only run centrally; the transaction fails.
                self.metrics.record_failure(txn,
                                            cause="shipment-cancelled")
        except Interrupt:
            return  # site crash: the shipment was settled by on_crash()
        finally:
            self._watchdogs.pop(txn.txn_id, None)

    def _cancel_shipment(self, txn: Transaction):
        """ShipmentCancel round trip; returns central's verdict."""
        done = Event(self.env)
        self._pending_cancels[txn.txn_id] = done
        self._send_central(ShipmentCancel(txn_id=txn.txn_id,
                                          site=self.site_id))
        ack: CancelAck = yield done
        return ack.outcome

    def _suspect_central(self) -> None:
        """Mark central suspect and age out its (now stale) snapshot."""
        if self.central_suspected:
            return
        self.central_suspected = True
        self.central_snapshot = CentralSnapshot.empty()

    def _complete_shipped(self, response: TxnResponse) -> None:
        """A TxnResponse closed out a shipped/central transaction."""
        txn = response.txn
        if self._pending_ship.pop(txn.txn_id, None) is None:
            return  # already settled by the cancel handshake
        if self.breaker is not None:
            self.breaker.on_success()
        txn.complete(self.env.now)
        self.metrics.record_completion(txn)
        if txn.placement is Placement.SHIPPED:
            self.on_shipped_response(txn)

    def _on_cancel_ack(self, ack: CancelAck) -> None:
        pending = self._pending_cancels.pop(ack.txn_id, None)
        if pending is not None:
            pending.succeed(ack)

    def _rerun_locally(self, txn: Transaction) -> None:
        """Fail a shipped class A transaction over to a run at home."""
        self.shipped_in_flight -= 1
        txn.route(Placement.LOCAL)
        self.metrics.record_failover(txn)
        self._start_process(txn, self._run(txn), suffix=":failover")

    def _interrupted(self, txn: Transaction) -> None:
        """The site crashed under this running transaction."""
        self._release(txn)
        self.metrics.record_lost_in_crash(txn)

    # -- inbound streams ---------------------------------------------------------

    def _dispatch(self):
        """Handle central -> site frames through the reliable channel;
        after a failover the deposed primary's frames are pumped (the
        ack stops its retransmissions) but *fenced*, never processed."""
        while True:
            message = yield self.from_central.mailbox.get()
            if self.crashed:
                # A dead site neither acks nor processes anything.
                continue
            if not self.on_standby:
                # Any frame from the *active* central -- app message or
                # bare ack -- proves it is reachable again.
                self.central_suspected = False
            for delivered in self.channel.pump(message):
                if self.on_standby:
                    self.metrics.record_fenced(self.site_id)
                    continue
                self._receive(delivered.payload)

    def _dispatch_standby(self):
        """Handle standby -> site messages: only the
        :class:`FailoverNotice` before takeover, the central stream after."""
        while True:
            message = yield self.from_standby.mailbox.get()
            if self.crashed:
                continue
            for delivered in self.standby_channel.pump(message):
                payload = delivered.payload
                if self.on_standby:
                    self.central_suspected = False
                elif type(payload) is not FailoverNotice:
                    self.metrics.record_fenced(self.site_id)
                    continue
                self._receive(payload)

    # -- the master's side of authentication -----------------------------------

    def _on_auth_request(self, request) -> Process:
        self._auth_checks = [check for check in self._auth_checks
                             if check.is_alive]
        check = super()._on_auth_request(request)
        self._auth_checks.append(check)
        return check

    def _handle_auth(self, request):
        try:
            yield from super()._handle_auth(request)
        except Interrupt:
            return  # the site crashed mid-check: no grant, no reply

    def _answer_auth(self, request) -> None:
        if request.deadline is not None and self.env.now > request.deadline:
            # Deadline propagation: refuse authentication for doomed
            # work so it stops consuming master locks.
            self.metrics.record_auth_deadline_refusal(self.site_id)
            self._send_central(AuthReply(
                auth_id=request.auth_id, txn_id=request.txn_id,
                site=self.site_id, granted=False))
            return
        super()._answer_auth(request)

    # -- failover (hot standby took over) ------------------------------------

    def _on_failover(self, notice: FailoverNotice) -> None:
        """The standby is the central complex now: re-point and settle.

        Everything that was in flight against the dead primary is
        resolved conservatively: class A shipments re-run locally,
        class B shipments re-ship to the standby, cancel handshakes are
        answered "killed" on the primary's behalf, the primary's phantom
        master locks are released (it can no longer commit anything),
        and unacknowledged update batches are re-sent -- the standby
        deduplicates them against the shipped log by ``(site, seq)``.
        """
        if self.on_standby:
            return
        self.on_standby = True
        # The standby *is* the central complex now.
        self.uplink = self.standby_channel
        self.central_suspected = False
        self.metrics.record_takeover(f"repoint-site-{self.site_id}")
        # Stop retransmitting to the dead primary.
        self.channel.abandon()
        self._release_phantom_locks()
        # Resolve in-flight cancel handshakes: the primary will never
        # answer, and it can no longer commit, so "killed" is safe.
        for txn_id in sorted(self._pending_cancels):
            done = self._pending_cancels.pop(txn_id)
            done.succeed(CancelAck(txn_id=txn_id, outcome="killed",
                                   snapshot=notice.snapshot))
        # Settle every in-flight shipment.
        for txn_id in sorted(self._pending_ship):
            txn = self._pending_ship.pop(txn_id)
            self._redispatch_after_failover(txn)
        # Re-send unacknowledged update batches to the standby.
        for seq in sorted(self._unacked_updates):
            self._send_central(UpdatePropagation(
                self.site_id, self._unacked_updates[seq], seq=seq))
        # Distributed-mode remote calls: refuse, the caller aborts and
        # retries against the standby.
        for call_id in sorted(self._pending_remote_calls):
            done = self._pending_remote_calls.pop(call_id)
            done.succeed(RemoteLockReply(call_id=call_id, txn_id=0,
                                         granted=False,
                                         snapshot=notice.snapshot))

    def _release_phantom_locks(self) -> None:
        """Release master locks held by the dead primary's transactions:
        a holder not running *here* was granted to the deposed primary,
        which can never commit or release it now."""
        for txn_id in self.locks.holders():
            if txn_id not in self.active:
                self.locks.release_all(txn_id)

    def _redispatch_after_failover(self, txn: Transaction) -> None:
        if txn.txn_class is TransactionClass.A:
            self._rerun_locally(txn)
        else:
            # Class B can only run centrally: re-ship to the standby.
            # This is the availability win over degrade-only operation,
            # where the same transaction would simply fail.
            self.metrics.record_reship(txn)
            self._ship(txn)

    # -- site crash and rejoin ------------------------------------------------

    def on_crash(self) -> None:
        """A SITE_CRASH episode begins (rejoin mode): lose volatile state.

        Running transactions are interrupted (their locks die with the
        lock table), shipped work is written off, the replica counters
        and channel bookkeeping are wiped.  Durable state is exactly
        what the rejoin snapshot can rebuild: nothing.
        """
        self.crashed = True
        for process in [*self._processes.values(),
                        *self._watchdogs.values(), *self._auth_checks]:
            if process.is_alive:
                process.interrupt("site-crash")
        self._auth_checks = []
        for txn_id in sorted(self._pending_ship):
            txn = self._pending_ship.pop(txn_id)
            if txn.placement is Placement.SHIPPED:
                self.shipped_in_flight -= 1
            self.metrics.record_lost_in_crash(txn)
        self._pending_cancels.clear()
        self._pending_remote_calls.clear()
        # Remote locks of the dead transactions are cleaned up by the
        # central complex during the rejoin handshake.
        self._remote_locked.clear()
        self._unacked_updates.clear()
        # Fresh volatile state: lock table (with its coherence counts)
        # and replica counters are gone.
        self.locks = LockManager(self.env, name=self.name)
        self.data = ReplicaStore(name=f"site-{self.site_id}")
        self.central_snapshot = CentralSnapshot.empty()
        self.central_suspected = False
        if self.breaker is not None:
            self.breaker.reset()

    def _reset_channels(self) -> None:
        """Start a new channel incarnation on every path touching this
        site (both ends together, standby pair included)."""
        system = self.system
        pairs = [(self.channel, system.central.channels[self.site_id])]
        if system.standby is not None:
            pairs.append((self.standby_channel,
                          system.standby.channels[self.site_id]))
        for site_end, central_end in pairs:
            incarnation = site_end.incarnation + 1
            site_end.reset(incarnation)
            central_end.reset(incarnation)

    def begin_rejoin(self) -> None:
        """The crash episode ended: run the catch-up protocol.

        Channel incarnations are reset on both ends first, so every
        frame from before (or during) the crash -- including the
        central's retransmissions of messages the dead site never
        processed -- is recognisably stale and dropped.
        """
        self.crashed = False
        self.recovering = True
        self._rejoin_started = self.env.now
        self._reset_channels()
        standby = self.system.standby
        if standby is not None and standby.is_active and \
                not self.on_standby:
            # A failover happened while this site was dead; the notice
            # was lost with everything else.  Re-point before rejoining.
            self._receive(FailoverNotice(snapshot=standby.snapshot()))
        self._send_central(RejoinRequest(site=self.site_id))

    def _on_rejoin_snapshot(self, snap: RejoinSnapshot) -> None:
        self.env.process(self._install_rejoin_snapshot(snap),
                         name=f"{self.name}:rejoin-install")

    def _install_rejoin_snapshot(self, snap: RejoinSnapshot):
        """Catch-up state arrived: install it and open for business.

        The store is replaced on arrival, before the apply burst: the
        channel is FIFO, so every commit order received earlier is
        already in the snapshot and every later one must land on top.
        """
        store = ReplicaStore(name=f"site-{self.site_id}")
        store.restore(snap.counts)
        self.data = store
        yield from self.cpu_burst(self.recovery.instr_snapshot_apply)
        self.recovering = False
        self.metrics.record_recovery("rejoin", self.site_id,
                                     self._rejoin_started, self.env.now)
        queued = self._admission_queue
        self._admission_queue = []
        for txn in queued:
            self.submit(txn)


class SurvivableCentralSite(CentralSite):
    """The central site's survivability layer.

    With failover armed a second instance (``standby=True``) is the hot
    standby, inactive until takeover.  The primary ships its applied
    updates as reliable :class:`LogRecord` frames and sends
    :class:`Heartbeat` beacons unreliably -- silence signals death.  When
    the heartbeat lease expires the standby takes over, broadcasts
    :class:`FailoverNotice` to every site and deposes the primary with a
    reliable :class:`TakeoverNotice`.  Failover is sticky.
    """

    #: Site -> central payloads only a fault plan produces.
    FAULT_HANDLERS = {
        ShipmentCancel: "_handle_cancel",
        RejoinRequest: "_on_rejoin_request",
    }
    HANDLERS = {**CentralSite.HANDLERS, **FAULT_HANDLERS}
    #: The primary <-> standby log stream (wired only for failover).
    LOG_HANDLERS = {
        TakeoverNotice: "_on_deposed",
        Heartbeat: "_on_heartbeat",
        LogRecord: "_apply_log",
    }

    def __init__(self, *args, standby: bool = False, **kwargs):
        super().__init__(*args, name="standby" if standby else "central",
                         **kwargs)
        self.recovery = self.system.fault_plan.recovery
        #: This end of each site's reliable channel: the downlinks, once
        #: :func:`install` has made them.
        self.channels: list[ReliableEndpoint] = []
        #: Transactions whose response has been sent (cancel -> completed).
        self._finished: set[int] = set()
        #: Applied ``(site, seq)`` update batches: dedup across log
        #: replay and direct re-sends after failover or rejoin.
        self._applied_batches: set[tuple[int, int]] = set()
        #: This end of the primary<->standby log channel and both
        #: directions of the pair (severed together by a central outage).
        self.log_endpoint: ReliableEndpoint | None = None
        self.log_links: tuple[Link, ...] = ()
        self.is_standby = standby
        self.is_active = not standby
        self.last_heartbeat = 0.0
        #: True once a TakeoverNotice arrived: this central lost the
        #: master role and must neither execute nor transmit.
        self.deposed = False

    # -- the site streams ---------------------------------------------------------

    def _dispatch(self, site_id: int, link: Link):
        """Per-site inbound loop over the site's reliable channel."""
        while True:
            message = yield link.mailbox.get()
            for delivered in self.channels[site_id].pump(message):
                payload = delivered.payload
                work = getattr(self, self.handlers[type(payload)])(payload)
                if work is not None:
                    yield from work

    def _respond(self, txn: Transaction):
        """Send the response on the site's channel: retransmitted across
        outages, and definitive (FIFO with cancel-acks), so the
        transaction can no longer be killed."""
        self._release(txn)
        self.active.pop(txn.txn_id, None)
        self._finished.add(txn.txn_id)
        self._processes.pop(txn.txn_id, None)
        txn.spans.enter(PHASE_COMM, self.env.now)
        self._send(txn.home_site,
                   TxnResponse(txn=txn, snapshot=self.snapshot()))
        return True
        yield  # pragma: no cover - unreachable; makes this a generator

    def _collect_auth_reply(self, reply: AuthReply) -> None:
        # Cancelled rounds are deregistered once fully replied, and a
        # deposed central drops its rounds: anything later is a
        # harmless straggler.
        if reply.auth_id in self._pending_auth:
            super()._collect_auth_reply(reply)

    # -- the cancel handshake ------------------------------------------------------

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

    def _interrupted(self, txn: Transaction) -> None:
        """ShipmentCancel (or deposition) stopped this transaction:
        release everything held here and stop without completing.
        Master locks of an authentication round in flight are released
        as its replies arrive (see ``_collect_auth_reply``)."""
        self._release(txn)
        self.metrics.record_cancelled(txn)

    # -- update batches -------------------------------------------------------------

    def _apply_updates(self, propagation: UpdatePropagation):
        """Apply a batch unless ``(site, seq)`` was applied before (a
        failover re-send the standby has from the log): a duplicate is
        acknowledged, so the sender drains, but not re-applied."""
        if not self._mark_batch(propagation.source_site, propagation.seq):
            self._send(propagation.source_site,
                       UpdateAck(updates=propagation.updates,
                                 snapshot=self.snapshot(),
                                 seq=propagation.seq))
            return
        yield from super()._apply_updates(propagation)

    def _mark_batch(self, site: int | None, seq: int) -> bool:
        """Record an update batch as applied; False when already seen."""
        if site is None or seq == 0:
            return True
        if (site, seq) in self._applied_batches:
            return False
        self._applied_batches.add((site, seq))
        return True

    # -- site rejoin (crash recovery catch-up) --------------------------------

    def _on_rejoin_request(self, request: RejoinRequest) -> None:
        self.env.process(self._handle_rejoin(request),
                         name=f"{self.name}:rejoin-{request.site}")

    def _handle_rejoin(self, request: RejoinRequest):
        """Catch a rejoining site up after a crash wiped its state.

        Builds a snapshot of the site's mastered partition from the
        central replica (covering every update the site missed *or lost*
        while down), re-sends auth requests the crash destroyed so
        stalled rounds resolve, and drops remote locks held by the
        site's dead distributed transactions.
        """
        yield from self.cpu_burst(self.recovery.instr_snapshot)
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

    # -- the primary <-> standby log stream ---------------------------------------

    def start_log(self, endpoint: ReliableEndpoint, in_link: Link) -> None:
        """Wire this end of the primary<->standby log link pair: the
        primary sends log records (reliably) and heartbeats (raw) through
        ``endpoint``; the standby replays what arrives on ``in_link`` and
        arms its heartbeat lease."""
        self.log_endpoint = endpoint
        self.log_links = (in_link, endpoint.out_link)
        self.last_heartbeat = self.env.now
        self.env.process(self._log_dispatch(in_link),
                         name=f"{self.name}:log-dispatch")
        if self.is_standby:
            self.env.process(self._lease_monitor(),
                             name=f"{self.name}:lease-monitor")
        else:
            self.env.process(self._heartbeat_loop(),
                             name=f"{self.name}:heartbeat")

    def _log_dispatch(self, in_link: Link):
        handlers = Handlers(self.LOG_HANDLERS)
        while True:
            message = yield in_link.mailbox.get()
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

    def _on_deposed(self, notice: TakeoverNotice) -> None:
        """The standby took over: kill in-flight transactions (their
        home sites re-dispatched them at failover), abandon
        retransmissions and drop auth rounds (the sites released their
        master locks when they re-pointed)."""
        if self.deposed:
            return
        self.deposed = True
        self.metrics.record_takeover("primary-deposed")
        for process in list(self._processes.values()):
            if process.is_alive:
                process.interrupt("deposed")
        for channel in self.channels:
            channel.abandon()
        self.log_endpoint.abandon()
        self._pending_auth.clear()

    # -- the standby role -------------------------------------------------------

    def _apply_log(self, record: LogRecord):
        """Replay one shipped log record into the standby replica."""
        if not self._mark_batch(record.site, record.seq):
            return
        instr = self.recovery.instr_log_replay
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


@functools.cache
def survivable(protocol_cls: type) -> type:
    """Compose the survivability layer over one protocol site class.

    The stock classes get the layer itself.  A protocol subclass gets
    ``type(name, (protocol_cls, layer), ...)``: the layer sits between
    it and the stock class in the MRO, so the protocol's fault hooks
    reach the layer via ``super()``, and the composed message table adds
    the layer's fault rows to the protocol's.
    """
    layer = (SurvivableLocalSite if issubclass(protocol_cls, LocalSite)
             else SurvivableCentralSite)
    if layer.__base__ is protocol_cls:
        return layer
    return type(f"Survivable{protocol_cls.__name__}", (protocol_cls, layer), {
        "__module__": __name__,
        "HANDLERS": {**protocol_cls.HANDLERS, **layer.FAULT_HANDLERS},
    })


def install(system: "HybridSystem", to_central: list[Link],
            from_central: list[Link]) -> None:
    """Wire the fault plan's channels, standby and injector: a reliable
    channel on every site<->central link pair and, with failover armed,
    a hot standby (a second instance of the central class) with its own
    site link pairs and a log link pair to the primary."""
    env = system.env
    config = system.config
    metrics = system.metrics
    plan = system.fault_plan
    retry = plan.retry

    def endpoint(link: Link, name: str) -> ReliableEndpoint:
        return ReliableEndpoint(
            env, link, name=name,
            timeout=retry.message_timeout, backoff=retry.backoff,
            max_timeout=retry.max_message_timeout,
            on_retransmit=metrics.record_retransmit,
            on_duplicate=metrics.record_duplicate)

    def lossy(name: str) -> Link:
        link = Link(env, config.comm_delay, name=name)
        link.on_drop = metrics.record_drop
        return link

    for site, up, down in zip(system.sites, to_central, from_central):
        for link in (up, down):
            link.on_drop = metrics.record_drop
        site.channel = site.uplink = endpoint(
            up, f"chan:site-{site.site_id}")
        system.central.channels.append(endpoint(
            down, f"chan:central-{site.site_id}"))
    system.central.downlinks = system.central.channels

    if plan.recovery.failover:
        standby = type(system.central)(env, config, system,
                                       system.partition, standby=True)
        system.standby = standby
        for site in system.sites:
            site.to_standby = lossy(f"site-{site.site_id}->standby")
            site.from_standby = lossy(f"standby->site-{site.site_id}")
            site.standby_channel = endpoint(
                site.to_standby, f"chan:site-{site.site_id}-sb")
            env.process(site._dispatch_standby(),
                        name=f"{site.name}:standby-dispatch")
            standby.channels.append(endpoint(
                site.from_standby, f"chan:standby-{site.site_id}"))
        standby.attach_links(
            to_sites=[site.from_standby for site in system.sites],
            from_sites=[site.to_standby for site in system.sites])
        standby.downlinks = standby.channels
        # Dedicated primary->standby log/heartbeat link pair.
        log_up = lossy("central->standby")
        log_down = lossy("standby->central")
        system.central.start_log(endpoint(log_up, "chan:log-primary"),
                                  log_down)
        standby.start_log(endpoint(log_down, "chan:log-standby"), log_up)
    system.injector = FaultInjector(system, plan)


def publish_gauges(system: "HybridSystem", grants, link_msgs) -> None:
    """Harvest the layer's end-of-run state into the registry: channel
    counters, breaker end states, and the standby's CPU and log links."""
    reg = system.registry
    sites = system.sites
    standby = system.standby
    frames = reg.gauge("channel_frames",
                       "reliable channel counters by endpoint and event",
                       labels=("endpoint", "event"))
    endpoints = [site.channel for site in sites]
    endpoints += system.central.channels
    if standby is not None:
        endpoints += [site.standby_channel for site in sites]
        endpoints += [*standby.channels,
                      system.central.log_endpoint, standby.log_endpoint]
    for chan in endpoints:
        frames.labels(chan.name, "retransmits").set(chan.retransmits)
        frames.labels(chan.name, "duplicates").set(
            chan.duplicates_discarded)
        frames.labels(chan.name, "acks_sent").set(chan.acks_sent)
        frames.labels(chan.name, "stale_frames").set(chan.stale_frames)
        frames.labels(chan.name, "ack_lag").set(chan.unacked)
    breakers = reg.gauge("breaker_state",
                         "circuit breaker end state by site",
                         labels=("site", "state"))
    for site in sites:
        if site.breaker is not None:
            breakers.labels(site.name, site.breaker.state).set(1)
    if standby is not None:
        grants.labels("standby").set(standby.cpu.grants)
        publish_links(link_msgs, standby.log_links)
