"""Stateful property testing of the lock manager.

A hypothesis rule-based state machine drives random interleavings of
acquire / release / cancel / force-grant / coherence operations against
:class:`~repro.db.locks.LockManager` and checks the manager's structural
invariants after every step:

* no two holders of one entity hold incompatible modes;
* a transaction never appears both as holder and waiter of one entity;
* waiters only wait while an incompatible holder (or an earlier waiter)
  exists;
* the waits-for graph never contains a cycle (cycles are refused at
  acquire time);
* coherence counts are never negative and pin their lock records.

Every operation is also replayed on :class:`ScanLockManager`, a naive
reference that finds a transaction's locks by scanning the whole table.
The two must release the same entities in the same order, grant and
refuse waiters in the same order, and end every step in the same state;
the manager's per-transaction index must match a recount of its table.
"""

from collections import deque

from hypothesis import settings
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.db import LockManager, LockMode
from repro.db.deadlock import WaitsForGraph
from repro.db.locks import DeadlockError
from repro.sim import Environment

ENTITIES = list(range(6))
TXNS = list(range(1, 8))


class _ScanLock:
    def __init__(self):
        self.holders = {}
        self.waiters = deque()  # (txn_id, mode, event)
        self.coherence_count = 0

    def compatible(self, mode, txn_id):
        return all(mode.compatible_with(held)
                   for holder, held in self.holders.items()
                   if holder != txn_id)


class ScanLockManager:
    """Reference lock manager with no index: every per-transaction
    operation scans the whole table in lock-record creation order."""

    def __init__(self, env):
        self.env = env
        self._locks = {}
        self._waits_for = WaitsForGraph()

    def _lock(self, entity):
        if entity not in self._locks:
            self._locks[entity] = _ScanLock()
        return self._locks[entity]

    def acquire(self, txn_id, entity, mode):
        event = self.env.event()
        lock = self._lock(entity)
        held = lock.holders.get(txn_id)
        if held is not None:
            if held is LockMode.EXCLUSIVE or mode is LockMode.SHARE:
                return event.succeed()
            grantable = lock.compatible(mode, txn_id)
        else:
            grantable = not lock.waiters and lock.compatible(mode, txn_id)
        if grantable:
            lock.holders[txn_id] = mode
            event.succeed()
            if self._settle_covered(lock, txn_id) and not any(
                    waiter[0] == txn_id for other in self._locks.values()
                    for waiter in other.waiters):
                self._waits_for.clear_waits(txn_id)
            return event
        blockers = [holder for holder in lock.holders if holder != txn_id]
        blockers.extend(waiter[0] for waiter in lock.waiters)
        if self._waits_for.would_deadlock(txn_id, blockers):
            event.fail(DeadlockError(txn_id, entity))
            event.defused()
            return event
        self._waits_for.add_waiter(txn_id, blockers)
        lock.waiters.append((txn_id, mode, event))
        return event

    def _grant_waiters(self, lock):
        while lock.waiters and lock.compatible(lock.waiters[0][1],
                                               lock.waiters[0][0]):
            txn_id, mode, event = lock.waiters.popleft()
            lock.holders[txn_id] = mode
            self._waits_for.clear_waits(txn_id)
            if not event.triggered:
                event.succeed()
            self._settle_covered(lock, txn_id)

    def _settle_covered(self, lock, txn_id):
        held = lock.holders[txn_id]
        covered = [w for w in lock.waiters if w[0] == txn_id and
                   (held is LockMode.EXCLUSIVE or w[1] is LockMode.SHARE)]
        lock.waiters = deque(w for w in lock.waiters if w not in covered)
        for _, _, event in covered:
            if not event.triggered:
                event.succeed()
        return bool(covered)

    def _collect(self, entity):
        lock = self._locks[entity]
        if not (lock.holders or lock.waiters or lock.coherence_count):
            del self._locks[entity]

    def release(self, txn_id, entity):
        lock = self._locks[entity]
        del lock.holders[txn_id]
        self._grant_waiters(lock)
        self._collect(entity)

    def release_all(self, txn_id):
        released = []
        for entity in list(self._locks):
            if txn_id in self._locks[entity].holders:
                released.append(entity)
                self.release(txn_id, entity)
        self.cancel_waits(txn_id)
        return released

    def cancel_waits(self, txn_id):
        for entity in list(self._locks):
            lock = self._locks[entity]
            kept = deque(w for w in lock.waiters if w[0] != txn_id)
            if len(kept) != len(lock.waiters):
                lock.waiters = kept
                self._grant_waiters(lock)
                self._collect(entity)
        self._waits_for.remove(txn_id)

    def force_grant(self, txn_id, entity, mode):
        lock = self._lock(entity)
        kept = deque(w for w in lock.waiters if w[0] != txn_id)
        if len(kept) != len(lock.waiters):
            lock.waiters = kept
            self._waits_for.clear_waits(txn_id)
        evicted = [holder for holder, held in lock.holders.items()
                   if holder != txn_id and not mode.compatible_with(held)]
        for holder in evicted:
            del lock.holders[holder]
        held = lock.holders.get(txn_id)
        if held is None or (held is LockMode.SHARE and
                            mode is LockMode.EXCLUSIVE):
            lock.holders[txn_id] = mode
        self._grant_waiters(lock)
        return evicted

    def increment_coherence(self, entity):
        self._lock(entity).coherence_count += 1

    def decrement_coherence(self, entity):
        self._locks[entity].coherence_count -= 1
        self._collect(entity)

    def total_locks_held(self):
        return sum(len(lock.holders) for lock in self._locks.values())

    def entities_locked_by(self, txn_id):
        return [entity for entity, lock in self._locks.items()
                if txn_id in lock.holders]

    def state(self):
        return [(entity, list(lock.holders.items()),
                 [(txn_id, mode) for txn_id, mode, _ in lock.waiters],
                 lock.coherence_count)
                for entity, lock in self._locks.items()]


def manager_state(manager):
    return [(entity, list(lock.holders.items()),
             [(request.txn_id, request.mode) for request in lock.waiters],
             lock.coherence_count)
            for entity, lock in manager._locks.items()]


class LockManagerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.env = Environment()
        self.manager = LockManager(self.env)
        self.reference_env = Environment()
        self.reference = ScanLockManager(self.reference_env)
        # Mirror of intended state: txn -> set of entities requested.
        self.requested: dict[int, set[int]] = {t: set() for t in TXNS}
        # Acquire-call numbers, in the order each manager granted them.
        self.calls = 0
        self.granted: list[int] = []
        self.reference_granted: list[int] = []

    def _run(self):
        self.env.run()
        self.reference_env.run()

    # -- operations --------------------------------------------------------

    @rule(txn=st.sampled_from(TXNS), entity=st.sampled_from(ENTITIES),
          exclusive=st.booleans())
    def acquire(self, txn, entity, exclusive):
        mode = LockMode.EXCLUSIVE if exclusive else LockMode.SHARE
        call = self.calls = self.calls + 1
        event = self.manager.acquire(txn, entity, mode)
        reference = self.reference.acquire(txn, entity, mode)
        refused = event.triggered and not event._ok
        assert refused == (reference.triggered and not reference._ok)
        if refused:
            event.defused()  # deadlock refusal is a legal outcome
        else:
            self.requested[txn].add(entity)
            event.callbacks.append(
                lambda _event: self.granted.append(call))
            reference.callbacks.append(
                lambda _event: self.reference_granted.append(call))
        self._run()

    @rule(txn=st.sampled_from(TXNS))
    def release_all(self, txn):
        released = self.manager.release_all(txn)
        assert released == self.reference.release_all(txn)
        self.requested[txn].clear()
        self._run()

    @rule(txn=st.sampled_from(TXNS), entity=st.sampled_from(ENTITIES))
    def release_one_if_held(self, txn, entity):
        if self.manager.is_held_by(entity, txn):
            self.manager.release(txn, entity)
            self.reference.release(txn, entity)
            self._run()

    @rule(txn=st.sampled_from(TXNS))
    def cancel_waits(self, txn):
        self.manager.cancel_waits(txn)
        self.reference.cancel_waits(txn)
        self._run()

    @rule(entity=st.sampled_from(ENTITIES))
    def coherence_cycle(self, entity):
        self.manager.increment_coherence(entity)
        self.reference.increment_coherence(entity)
        assert self.manager.coherence_count(entity) >= 1
        self.manager.decrement_coherence(entity)
        self.reference.decrement_coherence(entity)

    @rule(txn=st.sampled_from(TXNS), entity=st.sampled_from(ENTITIES),
          exclusive=st.booleans())
    def force_grant(self, txn, entity, exclusive):
        mode = LockMode.EXCLUSIVE if exclusive else LockMode.SHARE
        evicted = self.manager.force_grant(txn, entity, mode)
        assert evicted == self.reference.force_grant(txn, entity, mode)
        for victim in evicted:
            assert not self.manager.is_held_by(entity, victim)
        self._run()

    # -- invariants ----------------------------------------------------------

    @invariant()
    def holders_are_compatible(self):
        for entity, lock in self.manager._locks.items():
            modes = list(lock.holders.values())
            if len(modes) > 1:
                assert all(m is LockMode.SHARE for m in modes), \
                    f"incompatible holders on {entity}: {lock.holders}"

    @invariant()
    def no_holder_is_also_waiter(self):
        """A holder may only wait for an *upgrade* (holds S, wants X)."""
        for lock in self.manager._locks.values():
            for request in lock.waiters:
                held = lock.holders.get(request.txn_id)
                if held is None:
                    continue
                assert held is LockMode.SHARE and \
                    request.mode is LockMode.EXCLUSIVE, \
                    f"non-upgrade holder/waiter: {held} -> {request.mode}"

    @invariant()
    def waiters_have_a_reason(self):
        for lock in self.manager._locks.values():
            if not lock.waiters:
                continue
            head = lock.waiters[0]
            # The queue head must be genuinely blocked by some holder.
            assert not lock.grant_compatible(head.mode,
                                             txn_id=head.txn_id)

    @invariant()
    def waits_for_graph_is_acyclic(self):
        assert not self.manager._waits_for.has_cycle()

    @invariant()
    def coherence_counts_nonnegative(self):
        for lock in self.manager._locks.values():
            assert lock.coherence_count >= 0

    @invariant()
    def lock_records_not_leaked(self):
        for entity, lock in self.manager._locks.items():
            assert not lock.is_free(), \
                f"free lock record {entity} not collected"


    @invariant()
    def matches_scan_reference(self):
        assert manager_state(self.manager) == self.reference.state()
        assert self.granted == self.reference_granted

    @invariant()
    def index_matches_recount(self):
        table = self.manager._locks
        assert self.manager.total_locks_held() == sum(
            len(lock.holders) for lock in table.values())
        for txn in TXNS:
            assert self.manager.entities_locked_by(txn) == [
                entity for entity, lock in table.items()
                if txn in lock.holders]
        assert self.manager.holders() == sorted(
            {txn for lock in table.values() for txn in lock.holders})


TestLockManagerStateful = LockManagerMachine.TestCase
TestLockManagerStateful.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None)
