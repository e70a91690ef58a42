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

Under a fault plan with a :class:`~repro.sim.faults.RecoveryPolicy` the
site additionally participates in the survivability protocols:

* **failover** -- on a :class:`FailoverNotice` from the hot standby the
  site re-points its central routing, fences all further traffic from
  the deposed primary (frames are still acked so retransmission stops,
  but never processed), settles every in-flight shipment (class A
  re-runs locally, class B re-ships to the standby), releases the dead
  primary's phantom master locks and re-sends unacknowledged update
  batches;
* **crash rejoin** -- a site crash destroys all volatile state (running
  transactions, lock table, replica counters, channel bookkeeping);
  when the outage ends the site resets its channel incarnations and
  runs the RejoinRequest/RejoinSnapshot catch-up before admitting the
  arrivals it queued while down;
* **overload control** -- bounded admission (shed when the active set
  is full), end-to-end deadlines propagated through shipment and
  authentication messages (doomed work is cancelled early), and a
  circuit breaker on the site->central path that trips on consecutive
  shipment timeouts and half-opens probabilistically.

All of this is inert -- zero events, zero RNG draws -- unless the
recovery policy enables it, so plain runs stay bit-identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..db.locks import DeadlockError, LockManager
from ..db.replica import ReplicaStore
from ..db.transaction import Placement, Reference, Transaction, \
    TransactionClass
from ..sim.engine import Environment, Event, Interrupt, Process
from ..sim.network import Link, Message, ReliableEndpoint
from ..sim.spans import PHASE_COMM
from .base import SiteBase
from .protocol import (
    AuthReply,
    AuthRequest,
    CancelAck,
    CentralSnapshot,
    CommitOrder,
    FailoverNotice,
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
    TxnResponse,
    TxnShipment,
    UpdateAck,
    UpdatePropagation,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.router import Router
    from ..sim.faults import RecoveryPolicy, RetryPolicy
    from .config import SystemConfig
    from .metrics import MetricsCollector
    from .system import HybridSystem

__all__ = ["LocalSite", "CircuitBreaker"]


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
        TxnResponse: "_complete_shipped",
        RemoteLockReply: "_on_remote_reply",
        RemoteInvalidate: "_on_remote_invalidate",
    }
    FAULT_HANDLERS = {
        CancelAck: "_on_cancel_ack",
        ShipmentReject: "_handle_ship_reject",
        RejoinSnapshot: "_on_rejoin_snapshot",
        FailoverNotice: "_on_failover",
    }

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
        self.to_central: Link | None = None
        self.from_central: Link | None = None

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

        # Fault tolerance (populated only when a fault plan is active;
        # everything below stays inert otherwise).
        self.channel: ReliableEndpoint | None = None
        self.retry: "RetryPolicy | None" = None
        #: Whether repeated shipment timeouts have marked central suspect.
        self.central_suspected = False
        #: Shipped transactions awaiting their response: txn_id -> txn.
        self._pending_ship: dict[int, Transaction] = {}
        #: In-progress ShipmentCancel handshakes: txn_id -> Event.
        self._pending_cancels: dict[int, "Event"] = {}

        # Recovery subsystem (populated only when the fault plan's
        # RecoveryPolicy enables it; inert otherwise).
        self.recovery: "RecoveryPolicy | None" = None
        self.to_standby: Link | None = None
        self.from_standby: Link | None = None
        self.standby_channel: ReliableEndpoint | None = None
        #: True once a FailoverNotice re-pointed routing at the standby.
        self.on_standby = False
        #: True while a SITE_CRASH episode is destroying this site.
        self.crashed = False
        #: True between episode end and rejoin-snapshot installation.
        self.recovering = False
        self._rejoin_started = 0.0
        #: Arrivals queued during crash/recovery (bounded admission).
        self._admission_queue: list[Transaction] = []
        #: Shipment watchdogs, likewise interruptible on crash.
        self._watchdogs: dict[int, Process] = {}
        #: Master authentication checks (``_handle_auth``) that may still
        #: be running, likewise interruptible on crash.
        self._auth_checks: list[Process] = []
        self.breaker: CircuitBreaker | None = None
        #: App frames discarded because they came from a deposed
        #: primary (or arrived at a crashed site).
        self.fenced_messages = 0
        self.txns_lost_in_crash = 0

    # -- wiring --------------------------------------------------------------

    def attach_links(self, to_central: Link, from_central: Link) -> None:
        self.to_central = to_central
        self.from_central = from_central
        self.env.process(self._dispatch(), name=f"{self.name}:dispatch")

    def enable_reliability(self, channel: ReliableEndpoint,
                           retry: "RetryPolicy") -> None:
        """Route site->central traffic through a reliable channel."""
        self.channel = channel
        self.retry = retry
        self.handlers.update(self.FAULT_HANDLERS)

    def enable_recovery(self, recovery: "RecoveryPolicy") -> None:
        """Arm the survivability protocols this site participates in."""
        self.recovery = recovery
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

    def attach_standby(self, to_standby: Link, from_standby: Link,
                       channel: ReliableEndpoint) -> None:
        """Wire the pre-established link pair to the hot standby."""
        self.to_standby = to_standby
        self.from_standby = from_standby
        self.standby_channel = channel
        self.env.process(self._dispatch_standby(),
                         name=f"{self.name}:standby-dispatch")

    @property
    def standby_links(self) -> tuple[Link, ...]:
        """Both directions of the site<->standby pair (for the injector)."""
        if self.to_standby is None or self.from_standby is None:
            return ()
        return (self.to_standby, self.from_standby)

    # -- arrival handling --------------------------------------------------------

    def submit(self, txn: Transaction) -> None:
        """Entry point for the arrival process."""
        recovery = self.recovery
        if self.down or self.crashed or self.recovering:
            if recovery is not None and recovery.rejoin:
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
        if recovery is not None:
            if recovery.deadline > 0 and txn.deadline is None:
                txn.deadline = self.env.now + recovery.deadline
            limit = recovery.admission_limit
            if limit and len(self.active) >= limit:
                # Bounded admission: shed rather than build an unbounded
                # backlog that would miss every deadline anyway.
                self.metrics.record_shed(txn, node=self.name)
                return
        if txn.txn_class is TransactionClass.B:
            if self.config.class_b_mode == "remote-call":
                txn.route(Placement.DISTRIBUTED)
                self.metrics.record_routing(txn, reason="class-b")
                self._start_process(txn, self._run(txn), suffix=":dist")
            else:
                txn.route(Placement.CENTRAL)
                self.metrics.record_routing(txn, reason="class-b")
                if self.breaker is not None and not self.breaker.allows():
                    # Class B can only run centrally: fail fast while
                    # the breaker holds the path open.
                    self.metrics.record_failure(txn, cause="breaker-open")
                    return
                self._ship(txn)
            return
        fallback = self._fallback_reason()
        if fallback is not None:
            # Failure-aware routing: with central suspected (or its state
            # aged beyond trust) class A work stays home without even
            # consulting the strategy.
            txn.route(Placement.LOCAL)
            self.metrics.record_fallback_routing(txn, fallback)
            self.metrics.record_routing(txn,
                                        reason=f"fallback:{fallback}")
            self._start_process(txn, self._run(txn))
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
        """Spawn and register a transaction process (crash-interruptible)."""
        process = self.env.process(
            generator, name=f"txn-{txn.txn_id}@{self.name}{suffix}")
        self._processes[txn.txn_id] = process

    def _fallback_reason(self) -> str | None:
        """Why class A must stay local, or ``None`` when central is fine.

        Only meaningful under a fault plan (``retry`` is ``None``
        otherwise).  The bootstrap state -- no central message heard yet,
        snapshot time ``-inf`` -- is *not* stale: the paper's optimistic
        start behaviour is preserved.
        """
        if self.retry is None:
            return None
        if self.central_suspected:
            return "central-suspected"
        if self.breaker is not None and not self.breaker.allows():
            return "breaker-open"
        snapshot_time = self.central_snapshot.time
        if snapshot_time > float("-inf") and \
                self.env.now - snapshot_time > self.retry.snapshot_max_age:
            return "snapshot-stale"
        return None

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
        """Send one site->central message (reliably under a fault plan).

        After a failover the message goes to the standby -- which *is*
        the central complex now -- over the pre-wired standby channel.
        """
        kind = payload.kind
        self.metrics.record_message(to_central=True, kind=kind,
                                    site=self.site_id)
        message = Message(kind=kind, source=self.site_id, payload=payload)
        if self.on_standby and self.standby_channel is not None:
            self.standby_channel.send(message)
        elif self.channel is not None:
            self.channel.send(message)
        else:
            self.to_central.send(message)

    def _ship(self, txn: Transaction) -> None:
        txn.spans.enter(PHASE_COMM, self.env.now)
        self._send_central(TxnShipment(txn))
        if self.channel is not None:
            self._pending_ship[txn.txn_id] = txn
            self._watchdogs[txn.txn_id] = self.env.process(
                self._ship_watchdog(txn),
                name=f"txn-{txn.txn_id}@{self.name}:watchdog")

    def on_shipped_response(self, txn: Transaction) -> None:
        """The central site delivered the response for a shipped class A."""
        self.shipped_in_flight -= 1
        self.router.observe_completion(txn)

    # -- shipment supervision (active only under a fault plan) ---------------

    def _ship_watchdog(self, txn: Transaction):
        """Bound the transaction-level wait for a shipment's response.

        The reliable channel already retries individual messages forever;
        this watchdog is the *bounded* retry budget the protocol puts on
        the whole request/response exchange.  When the budget is
        exhausted the site suspects the central complex and settles the
        transaction's fate with a cancel handshake: because the channel
        is FIFO and exactly-once, the cancel is processed strictly after
        the shipment, so central's answer ("killed" or "completed") is
        definitive and the transaction can never run twice.

        With a deadline armed the watchdog additionally cancels the
        shipment as soon as the deadline passes -- doomed work is pulled
        back before it wastes more central capacity.
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
                self._rerun_locally(txn, ":failover")
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

    def _handle_ship_reject(self, reject: ShipmentReject) -> None:
        """Central admission control refused the shipment outright."""
        txn = self._pending_ship.pop(reject.txn_id, None)
        if txn is None:
            return
        if txn.txn_class is TransactionClass.A:
            self._rerun_locally(txn, ":overload")
        else:
            self.metrics.record_failure(txn, cause="central-overload")

    def _rerun_locally(self, txn: Transaction, suffix: str) -> None:
        """Fail a shipped class A transaction over to a run at home."""
        self.shipped_in_flight -= 1
        txn.route(Placement.LOCAL)
        self.metrics.record_failover(txn)
        self._start_process(txn, self._run(txn), suffix=suffix)

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

    def _interrupted(self, txn: Transaction) -> None:
        """The site crashed under this running transaction."""
        self._release(txn)
        self.txns_lost_in_crash += 1
        self.metrics.record_lost_in_crash(txn)

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
        """Handle central -> site messages in arrival order.

        After a failover the deposed primary is *fenced*: its frames are
        still pumped through the channel (the ack stops its
        retransmission timers) but never processed.
        """
        while True:
            message = yield self.from_central.mailbox.get()
            if self.crashed:
                # A dead site neither acks nor processes anything.
                continue
            if self.channel is not None:
                if not self.on_standby:
                    # Any frame from the *active* central -- app message
                    # or bare ack -- proves it is reachable again.
                    self.central_suspected = False
                for delivered in self.channel.pump(message):
                    if self.on_standby:
                        self.fenced_messages += 1
                        self.metrics.record_fenced(self.site_id)
                        continue
                    self._receive(delivered.payload)
            else:
                self._receive(message.payload)

    def _dispatch_standby(self):
        """Handle standby -> site messages.

        Before the takeover the standby sends nothing but the
        :class:`FailoverNotice` itself; afterwards this is the central
        message stream.
        """
        while True:
            message = yield self.from_standby.mailbox.get()
            if self.crashed:
                continue
            for delivered in self.standby_channel.pump(message):
                payload = delivered.payload
                if self.on_standby:
                    self.central_suspected = False
                elif type(payload) is not FailoverNotice:
                    self.fenced_messages += 1
                    self.metrics.record_fenced(self.site_id)
                    continue
                self._receive(payload)

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

    def _on_auth_request(self, request: AuthRequest) -> None:
        # Authentication checks consume local CPU: run each in a child
        # process so unrelated messages are not blocked.
        self._auth_checks = [check for check in self._auth_checks
                             if check.is_alive]
        self._auth_checks.append(self.env.process(
            self._handle_auth(request), name=f"{self.name}:auth"))

    def _on_cancel_ack(self, ack: CancelAck) -> None:
        pending = self._pending_cancels.pop(ack.txn_id, None)
        if pending is not None:
            pending.succeed(ack)

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
        try:
            yield from self.cpu_burst(self.config.instr_auth_master)
        except Interrupt:
            return  # the site crashed mid-check: no grant, no reply
        entities = [entity for entity, _mode in request.references]
        aborted: list[int] = []
        expired = (request.deadline is not None and
                   self.env.now > request.deadline)
        if expired:
            # Deadline propagation: refuse authentication for doomed
            # work so it stops consuming master locks.
            granted = False
            self.metrics.record_auth_deadline_refusal(self.site_id)
        elif any(self.locks.coherence_count(entity)
                 for entity in entities):
            granted = False  # in-flight asynchronous updates -> NAK
        else:
            granted = True
            for entity, mode in request.references:
                evicted = self.locks.force_grant(request.txn_id, entity,
                                                 mode)
                for victim_id in evicted:
                    victim = self.active.get(victim_id)
                    if victim is not None:
                        victim.mark_for_abort("invalidated-by-authentication")
                        if entity in victim.locked_entities:
                            victim.locked_entities.remove(entity)
                        aborted.append(victim_id)
        self._send_central(AuthReply(
            auth_id=request.auth_id, txn_id=request.txn_id,
            site=self.site_id, granted=granted,
            aborted_local_txns=tuple(aborted)))

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
        self.central_suspected = False
        self.metrics.record_takeover(f"repoint-site-{self.site_id}")
        if self.channel is not None:
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
        """Release master locks held by the dead primary's transactions.

        Any holder that is not a transaction running *at this site* was
        granted during the authentication of a central/shipped
        transaction at the deposed primary; the primary can never send
        its commit or release order now, so the grant would pin the
        entities forever.  Conservative abort-and-retry: drop them.
        """
        for txn_id in self.locks.holders():
            if txn_id not in self.active:
                self.locks.release_all(txn_id)

    def _redispatch_after_failover(self, txn: Transaction) -> None:
        if txn.txn_class is TransactionClass.A:
            self._rerun_locally(txn, ":failover")
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
            self.txns_lost_in_crash += 1
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
        self.system.reset_site_channels(self.site_id)
        standby = getattr(self.system, "standby", None)
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
        recovery = self.recovery
        if recovery is not None and recovery.instr_snapshot_apply:
            yield from self.cpu_burst(recovery.instr_snapshot_apply)
        self.recovering = False
        self.metrics.record_recovery("rejoin", self.site_id,
                                     self._rejoin_started, self.env.now)
        queued = self._admission_queue
        self._admission_queue = []
        for txn in queued:
            self.submit(txn)
