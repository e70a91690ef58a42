"""Deterministic epoch-batched group commit (protocol ``epoch``).

Execution stays optimistic -- local transactions run under their site's
lock table exactly as in the default protocol -- but the site<->central
interaction is batched into fixed epochs of ``config.epoch_interval``
seconds:

* **Sites** buffer committed updates for a whole epoch and ship them as
  one ``UpdatePropagation`` batch at the boundary.  Updating
  transactions *group-commit*: their locks release and their updates
  apply immediately (so they never block local conflicts), but their
  response is withheld until the central acknowledges the epoch's
  batch -- the durability point.  Read-only transactions respond
  immediately.
* **The central** buffers incoming site batches and central commit
  requests for an epoch, then resolves the epoch deterministically:
  site batches are applied in ``(site, seq)`` order first, then the
  buffered central commits run in arrival order.  A central transaction
  invalidated by that epoch's site batches loses -- deterministically --
  and re-executes; survivors commit without any authentication round
  (the epoch ordering *is* the commit order), distributing
  :class:`EpochCommitOrder` updates to the masters.

Recovery rides on the survivability layer: unacknowledged epoch
batches are re-sent on failover
(``SurvivableLocalSite._on_failover``) and the standby deduplicates
them against the shipped log by ``(site, seq)`` -- which is exactly an
in-flight-epoch replay; the waiting group-committed transactions
complete when the standby's ack arrives.
"""

from __future__ import annotations

from ..central import CentralSite
from ..local import LocalSite
from ..protocol import EpochCommitOrder, UpdatePropagation
from ...db.locks import LockMode
from ...db.transaction import Transaction
from ...sim.engine import Event, Interrupt
from ...sim.spans import PHASE_AUTH, PHASE_COMM

__all__ = ["EpochLocalSite", "EpochCentralSite"]


class EpochLocalSite(LocalSite):
    """Local site with epoch-batched update shipping and group commit."""

    HANDLERS = {**LocalSite.HANDLERS,
                EpochCommitOrder: "_handle_epoch_commit"}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: Update groups committed this epoch, shipped as one batch at
        #: the boundary.
        self._update_buffer: list[tuple[int, ...]] = []
        #: Updating transactions committed this epoch, awaiting the
        #: boundary flush.
        self._epoch_pending: list[Transaction] = []
        #: seq -> the transactions group-committing on that batch's ack.
        self._awaiting_ack: dict[int, tuple[Transaction, ...]] = {}

    def attach_links(self, to_central, from_central) -> None:
        super().attach_links(to_central, from_central)
        self.env.process(self._epoch_loop(), name=f"{self.name}:epoch")

    def _epoch_loop(self):
        interval = self.config.epoch_interval
        while True:
            yield self.env.timeout(interval)
            self._flush_updates()

    def _queue_update(self, updates: tuple[int, ...]) -> None:
        self._update_buffer.append(updates)

    def _flush_updates(self) -> None:
        pending = tuple(self._epoch_pending)
        self._epoch_pending.clear()
        if not self._update_buffer:
            return
        seq = self._send_updates(tuple(self._update_buffer))
        self._update_buffer.clear()
        if pending:
            self._awaiting_ack[seq] = pending
        self.metrics.record_protocol_event("epoch-flush")

    def _commit_phase(self, txn):
        self._release(txn)
        updates = txn.update_entities
        if not updates:
            # Read-only: nothing to make durable, respond immediately.
            self._complete(txn)
            return True
        # Group commit: apply and unlock now (later local transactions
        # see the writes), respond at the epoch ack.
        self._propagate(updates)
        self._epoch_pending.append(txn)
        self.metrics.record_protocol_event("group-commit-deferred")
        txn.spans.enter(PHASE_COMM, self.env.now)
        return True
        yield  # pragma: no cover - unreachable; makes this a generator

    def _handle_update_ack(self, ack) -> None:
        fresh = ack.seq in self._unacked_updates
        super()._handle_update_ack(ack)
        if not fresh:
            return
        for txn in self._awaiting_ack.pop(ack.seq, ()):
            self.metrics.record_protocol_event("group-commit")
            self._complete(txn)

    def _handle_epoch_commit(self, order: EpochCommitOrder) -> None:
        """A central transaction epoch-committed: apply its updates for
        entities mastered here and invalidate conflicting local holders
        (the epoch order wins; there are no master locks to release)."""
        self.data.apply_updates(order.updates)
        self._mark_holders(order.updates, "invalidated-by-epoch-commit")

    def on_crash(self) -> None:
        # Transactions whose response was parked on an epoch ack die
        # with the volatile state (the base hook clears the unacked
        # batches they ride on).
        waiting = [txn for seq in sorted(self._awaiting_ack)
                   for txn in self._awaiting_ack[seq]]
        waiting.extend(self._epoch_pending)
        super().on_crash()
        for txn in waiting:
            self.metrics.record_lost_in_crash(txn)
        self._awaiting_ack.clear()
        self._epoch_pending.clear()
        self._update_buffer.clear()


class EpochCentralSite(CentralSite):
    """The epoch sequencer: epoch buffering and the deterministic
    boundary resolution.

    Its hot standby only replays the shipped log before takeover (its
    epoch ticker idles); afterwards re-sent in-flight batches land in its
    epoch buffer, are deduplicated against the log by ``(site, seq)`` and
    acknowledged -- completing the sites' parked group commits.
    """

    HANDLERS = {**CentralSite.HANDLERS,
                UpdatePropagation: "_buffer_updates"}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: Site batches received this epoch, applied at the boundary.
        self._epoch_updates: list[UpdatePropagation] = []
        #: (txn_id, wakeup) of central commits waiting for the boundary.
        self._epoch_commits: list[tuple[int, Event]] = []

    def attach_links(self, to_sites, from_sites) -> None:
        super().attach_links(to_sites=to_sites, from_sites=from_sites)
        self.env.process(self._epoch_ticker(), name=f"{self.name}:epoch")

    def _epoch_ticker(self):
        interval = self.config.epoch_interval
        while True:
            yield self.env.timeout(interval)
            if self.deposed:
                return
            if not self.is_active:
                continue  # a standby ticks only after takeover
            yield from self._close_epoch()

    def _close_epoch(self):
        """Resolve one epoch: site batches in deterministic (site, seq)
        order, then the buffered central commits in arrival order."""
        batches = sorted(self._epoch_updates,
                         key=lambda p: (p.source_site, p.seq))
        self._epoch_updates.clear()
        for batch in batches:
            # The stock application path: dedup against the shipped log,
            # invalidate central holders, ack, ship to the standby.
            yield from self._apply_updates(batch)
            self.metrics.record_protocol_event("epoch-batch")
        waiters, self._epoch_commits = self._epoch_commits, []
        for _txn_id, wakeup in waiters:
            if not wakeup.triggered:
                wakeup.succeed(None)

    def _buffer_updates(self, propagation: UpdatePropagation) -> None:
        self._epoch_updates.append(propagation)

    def _authenticate_and_commit(self, txn: Transaction):
        """Epoch commit: wait for the boundary instead of an
        authentication round; the deterministic ordering resolves
        conflicts (that epoch's site batches win)."""
        config = self.config
        yield from self.cpu_burst(config.instr_auth_central, txn)
        wakeup = Event(self.env)
        entry = (txn.txn_id, wakeup)
        self._epoch_commits.append(entry)
        txn.spans.enter(PHASE_AUTH, self.env.now)
        try:
            yield wakeup
        except Interrupt:
            # Cancelled mid-epoch: deregister so the boundary does not
            # wake a dead transaction's event.
            self._epoch_commits = [e for e in self._epoch_commits
                                   if e is not entry]
            txn.spans.exit(self.env.now)
            raise
        txn.spans.exit(self.env.now)
        if txn.marked_for_abort:
            # Lost to this epoch's site batches -- deterministically.
            self._abort_invalidated(txn)
            return False
        yield from self.cpu_burst(config.instr_commit, txn)
        if txn.marked_for_abort:
            self._abort_invalidated(txn)
            return False
        self.metrics.record_protocol_event("epoch-central-commit")
        self.data.apply_updates(txn.update_entities)
        if txn.update_entities:
            self._ship_log((tuple(txn.update_entities),))
        for site, references in self._masters_of(txn).items():
            site_updates = tuple(entity for entity, mode in references
                                 if mode is LockMode.EXCLUSIVE)
            if site_updates:
                self._send(site, EpochCommitOrder(
                    txn_id=txn.txn_id, snapshot=self.snapshot(),
                    updates=site_updates))
        return (yield from self._respond(txn))

    def _on_deposed(self, notice) -> None:
        super()._on_deposed(notice)
        self._epoch_updates.clear()
        self._epoch_commits.clear()

