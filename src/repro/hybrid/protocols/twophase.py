"""Primary-copy two-phase commit (protocol ``2pc``).

The central site is the primary-copy coordinator for every updating
commit.  The two legs:

* **Site-coordinated leg** (local class A commits).  Where the
  optimistic protocol commits locally and propagates updates
  asynchronously, 2PC blocks: the site sends a :class:`TxnPrepare`,
  keeps its locks and enters the *in-doubt* state until the
  coordinator's :class:`TxnVote` arrives.  A granted vote commits the
  transaction (updates applied at the master replica, a
  :class:`TxnDecision` carries them to the primary copy); a refusal --
  the updates conflict with another in-doubt transaction at the
  coordinator -- aborts and re-executes it.
* **Central-coordinated leg** (shipped / class B commits).  The stock
  authentication round already *is* a prepare/vote/decision exchange
  (``AuthRequest`` = prepare, ``AuthReply`` = vote, ``CommitOrder`` /
  ``ReleaseOrder`` = decision), and with no asynchronous updates in
  flight the coherence-count NAK can never fire -- so the base
  machinery is reused as-is, with one 2PC refinement at the masters:
  an in-doubt transaction's locks cannot be force-granted away (its
  outcome belongs to the coordinator), so such prepares are voted
  down.

**Blocking on coordinator failure** is the protocol's defining
liability and is modelled faithfully: a prepared transaction waits on
its vote with no watchdog, so a central outage leaves it blocked --
holding its locks -- until the coordinator returns or a hot standby
takes over.  On failover the pending votes resolve as refusals (the
new coordinator has an empty in-doubt registry, so retrying is safe)
and the transactions re-prepare against the standby.
"""

from __future__ import annotations

from ..central import CentralSite
from ..local import LocalSite
from ..protocol import AuthReply, TxnDecision, TxnPrepare, TxnVote
from ...sim.engine import Event, Interrupt
from ...sim.spans import PHASE_AUTH

__all__ = ["TwoPhaseLocalSite", "TwoPhaseCentralSite"]


class TwoPhaseLocalSite(LocalSite):
    """Local site under primary-copy 2PC: prepared commits block."""

    HANDLERS = {**LocalSite.HANDLERS, TxnVote: "_on_vote"}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: Transactions between prepare and vote (holding their locks).
        self._indoubt: set[int] = set()
        #: txn_id -> Event the committing process is blocked on.
        self._pending_votes: dict[int, Event] = {}

    # -- the site-coordinated leg -------------------------------------------

    def _commit_phase(self, txn):
        updates = txn.update_entities
        if not updates:
            # Read-only commits have nothing to coordinate; the base
            # commit is pure local bookkeeping then (no propagation).
            self._commit(txn)
            return True
        done = Event(self.env)
        self._pending_votes[txn.txn_id] = done
        self._indoubt.add(txn.txn_id)
        self.metrics.record_protocol_event("prepare-sent")
        self._send_central(TxnPrepare(
            txn_id=txn.txn_id, site=self.site_id, updates=updates))
        # Blocking window: locks held, no watchdog -- coordinator
        # failure leaves this transaction in-doubt until failover.
        txn.spans.enter(PHASE_AUTH, self.env.now)
        try:
            vote = yield done
        except Interrupt:
            txn.spans.exit(self.env.now)
            raise
        finally:
            self._pending_votes.pop(txn.txn_id, None)
            self._indoubt.discard(txn.txn_id)
        txn.spans.exit(self.env.now)
        if not vote.granted:
            self.metrics.record_protocol_event("vote-refused")
            txn.record_abort()
            self.metrics.record_abort(txn, "local-invalidated")
            return False  # re-execute, locks kept (Section 3.1 rule)
        self.metrics.record_protocol_event("vote-granted")
        # Phase 2: commit locally and tell the primary copy.
        self._send_central(TxnDecision(
            txn_id=txn.txn_id, site=self.site_id, commit=True,
            updates=updates))
        self._release(txn)
        self.data.apply_updates(updates)
        self._complete(txn)
        return True

    # -- the central-coordinated leg at the master --------------------------

    def _handle_auth(self, request):
        blocked = any(
            holder in self._indoubt
            for entity, _mode in request.references
            for holder in self.locks.held_modes(entity))
        if blocked:
            # An in-doubt holder cannot be evicted: its outcome is owned
            # by the coordinator's vote, not this authentication round.
            try:
                yield from self.cpu_burst(self.config.instr_auth_master)
            except Interrupt:
                return  # the site crashed mid-check: no reply
            self.metrics.record_protocol_event("indoubt-refusal")
            self._send_central(AuthReply(
                auth_id=request.auth_id, txn_id=request.txn_id,
                site=self.site_id, granted=False))
            return
        yield from super()._handle_auth(request)

    def _on_vote(self, vote: TxnVote) -> None:
        # Popped here (not on wakeup) so a duplicate vote can never hit
        # an already-succeeded event.
        done = self._pending_votes.pop(vote.txn_id, None)
        if done is not None:
            done.succeed(vote)

    # -- recovery hooks ------------------------------------------------------

    def _on_failover(self, notice):
        if self.on_standby:
            return
        super()._on_failover(notice)
        # Blocked-on-coordinator-failure resolution: the standby has an
        # empty in-doubt registry, so failing the pending votes (abort,
        # re-execute, re-prepare against the new coordinator) is safe.
        for txn_id in sorted(self._pending_votes):
            done = self._pending_votes.pop(txn_id)
            self.metrics.record_protocol_event("blocked-resolved")
            done.succeed(TxnVote(txn_id=txn_id, granted=False,
                                 snapshot=notice.snapshot))

    def on_crash(self) -> None:
        super().on_crash()
        # The blocked processes were interrupted with the rest; the
        # in-doubt bookkeeping dies with the volatile state.
        self._pending_votes.clear()
        self._indoubt.clear()


class TwoPhaseCentralSite(CentralSite):
    """The primary-copy coordinator.  Its hot standby takes over with an
    empty in-doubt registry; blocked site transactions resolve via
    refused votes and re-prepare there."""

    HANDLERS = {**CentralSite.HANDLERS, TxnPrepare: "_handle_prepare",
                TxnDecision: "_handle_decision"}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: txn_id -> its TxnPrepare, between vote and decision.
        self._indoubt_sites: dict[int, TxnPrepare] = {}
        #: entity -> in-doubt txn_id (the conflict-detection index).
        self._indoubt_entities: dict[int, int] = {}

    def _handle_prepare(self, prepare: TxnPrepare):
        """Phase 1 at the coordinator: vote on a site's updating commit.

        Refused iff an update conflicts with a transaction that is
        in-doubt *here* -- two prepared transactions must never overlap,
        since both outcomes are already promised.  Conflicts with
        running central transactions resolve the other way (site wins):
        their central locks are invalidated at decision time, exactly
        like the optimistic protocol's update application.
        """
        yield from self.cpu_burst(self.config.instr_auth_central)
        granted = not any(entity in self._indoubt_entities
                          for entity in prepare.updates)
        if granted:
            self._indoubt_sites[prepare.txn_id] = prepare
            for entity in prepare.updates:
                self._indoubt_entities[entity] = prepare.txn_id
            self.metrics.record_protocol_event("prepare-granted")
        else:
            self.metrics.record_protocol_event("prepare-refused")
        self.metrics.record_auth_round(granted)
        self._send(prepare.site, TxnVote(
            txn_id=prepare.txn_id, granted=granted,
            snapshot=self.snapshot()))

    def _handle_decision(self, decision: TxnDecision):
        """Phase 2: settle an in-doubt transaction at the primary copy."""
        prepare = self._indoubt_sites.pop(decision.txn_id, None)
        if prepare is None:
            return  # stale decision (post-failover straggler)
        for entity in prepare.updates:
            if self._indoubt_entities.get(entity) == decision.txn_id:
                del self._indoubt_entities[entity]
        if not decision.commit:
            self.metrics.record_protocol_event("decision-abort")
            return
        self.metrics.record_protocol_event("decision-commit")
        yield from self.cpu_burst(self.config.instr_update_apply)
        self.data.apply_updates(decision.updates)
        self._mark_holders(decision.updates, "invalidated-by-update")
        self._ship_log((tuple(decision.updates),))

    def _on_deposed(self, notice) -> None:
        super()._on_deposed(notice)
        self._indoubt_sites.clear()
        self._indoubt_entities.clear()

