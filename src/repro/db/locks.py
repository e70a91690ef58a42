"""Lock manager with the paper's dual-field locks.

Section 2 of the paper specifies that *"the lock manager maintains two
fields for each lock -- a concurrency control field (share or exclusive)
and a coherence control field"*:

* The **concurrency field** implements ordinary two-phase locking among
  transactions running at the *same* site: compatible requests are
  granted, incompatible requests queue FIFO.
* The **coherence field** is a counter of committed local updates whose
  asynchronous propagation to the central site has not yet been
  acknowledged.  The authentication phase of a central/shipped
  transaction must see a zero count ("null") for every entity it locked,
  otherwise the master site answers with a negative acknowledgement.

The manager also provides the *forced grant* primitive used by the
authentication phase: grant a lock to a central/shipped transaction even
if local transactions hold it incompatibly, marking those local holders
for abort (their locks transfer to the authenticating transaction).

Deadlock handling: every blocked request adds waits-for edges; a cycle
aborts the *requesting* transaction (the paper: "in the case of a
contention that leads into a deadlock the transaction is aborted and all
locks held are released").  The acquire event then fails with
:class:`DeadlockError`.
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterable

from ..sim.engine import Environment, Event

from .deadlock import WaitsForGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .transaction import Transaction

__all__ = [
    "LockMode",
    "LockError",
    "DeadlockError",
    "Lock",
    "LockRequest",
    "LockManager",
    "AuthenticationStatus",
]


class LockMode(enum.Enum):
    """Lock modes of the concurrency control field."""

    SHARE = "S"
    EXCLUSIVE = "X"

    def compatible_with(self, other: "LockMode") -> bool:
        """S/S is the only compatible pairing."""
        return self is LockMode.SHARE and other is LockMode.SHARE


class AuthenticationStatus(enum.Enum):
    """Outcome of an authentication-phase lock check at a master site."""

    GRANTED = "granted"
    NEGATIVE = "negative"  # in-flight coherence updates -> NAK


class LockError(Exception):
    """Misuse of the lock manager (double grant, foreign release, ...)."""


class DeadlockError(Exception):
    """Raised into a transaction whose lock request closed a cycle."""

    def __init__(self, txn_id: int, entity: int):
        super().__init__(f"transaction {txn_id} deadlocked on entity {entity}")
        self.txn_id = txn_id
        self.entity = entity


@dataclass(slots=True, eq=False)
class LockRequest:
    """A queued (not yet granted) request on one entity."""

    txn_id: int
    mode: LockMode
    event: Event
    enqueued_at: float = 0.0


@dataclass(slots=True, eq=False)
class Lock:
    """State of one lockable entity.

    ``holders`` maps transaction id -> granted mode (insertion ordered so
    grant history is deterministic); ``waiters`` is the FIFO queue of
    blocked requests; ``coherence_count`` is the paper's coherence control
    field.  ``ticket`` numbers the record in creation order, which is
    the order a transaction's locks are released in.
    """

    entity: int
    ticket: int = 0
    holders: dict[int, LockMode] = field(default_factory=dict)
    waiters: deque[LockRequest] = field(default_factory=deque)
    coherence_count: int = 0

    def is_free(self) -> bool:
        return not self.holders and not self.waiters and \
            self.coherence_count == 0

    def grant_compatible(self, mode: LockMode,
                         txn_id: int | None = None) -> bool:
        """Would granting ``mode`` be compatible with current holders?

        ``txn_id`` excludes the requester itself (re-request / upgrade).
        """
        for holder, held in self.holders.items():
            if holder == txn_id:
                continue
            if not mode.compatible_with(held):
                return False
        return True


#: Release order of a transaction's locks: lock-record creation order.
_TICKET = attrgetter("ticket")


class LockManager:
    """Per-site lock table implementing the dual-field protocol.

    One instance exists at every local site and one at the central site.
    Locks are created lazily and discarded when fully free, so the 32K
    lock space of the paper's simulation costs memory only for active
    entities.

    Beside the table, a per-transaction index records the locks each
    transaction holds and those it has queued requests on, so commit,
    abort and the ``n_lock`` statistic cost only what the transaction
    touches, never a scan of the table.
    """

    def __init__(self, env: Environment, name: str = "locks",
                 on_deadlock: Callable[[int, int], None] | None = None):
        self.env = env
        self.name = name
        self._locks: dict[int, Lock] = {}
        self._tickets = itertools.count()
        #: txn -> {entity: lock} for every lock the transaction holds.
        self._held: dict[int, dict[int, Lock]] = {}
        #: txn -> {entity: queued requests} for every lock it waits on.
        self._queued: dict[int, dict[int, int]] = {}
        #: Running number of (entity, holder) grants.
        self._held_count = 0
        self._waits_for = WaitsForGraph()
        self._on_deadlock = on_deadlock
        # Counters surfaced to the dynamic routing strategies and metrics.
        self.locks_granted = 0
        self.lock_waits = 0
        self.deadlocks = 0
        self.forced_grants = 0

    # -- inspection ---------------------------------------------------------

    def lock_for(self, entity: int) -> Lock | None:
        """The :class:`Lock` record for ``entity`` (``None`` if free)."""
        return self._locks.get(entity)

    def held_modes(self, entity: int) -> dict[int, LockMode]:
        lock = self._locks.get(entity)
        return dict(lock.holders) if lock else {}

    def is_held_by(self, entity: int, txn_id: int) -> bool:
        lock = self._locks.get(entity)
        return bool(lock) and txn_id in lock.holders

    def coherence_count(self, entity: int) -> int:
        lock = self._locks.get(entity)
        return lock.coherence_count if lock else 0

    def total_locks_held(self) -> int:
        """Number of (entity, holder) grants -- the ``n_lock`` statistic."""
        return self._held_count

    def waiting_requests(self) -> int:
        return sum(len(lock.waiters) for lock in self._locks.values())

    def entities_locked_by(self, txn_id: int) -> list[int]:
        """Entities held by ``txn_id``, in lock-record creation order."""
        held = self._held.get(txn_id)
        if not held:
            return []
        return [lock.entity for lock in sorted(held.values(), key=_TICKET)]

    def holders(self) -> list[int]:
        """Ids of every transaction holding a lock here, ascending."""
        return sorted(self._held)

    # -- concurrency control --------------------------------------------------

    def _lock(self, entity: int) -> Lock:
        """The record for ``entity``, created if the entity is free."""
        lock = self._locks.get(entity)
        if lock is None:
            lock = self._locks[entity] = Lock(entity, next(self._tickets))
        return lock

    def acquire(self, txn_id: int, entity: int, mode: LockMode) -> Event:
        """Request ``entity`` in ``mode`` for ``txn_id``.

        Returns an event: it succeeds when the lock is granted (possibly
        immediately) and fails with :class:`DeadlockError` if the wait
        would close a waits-for cycle.  Re-requesting a held lock in the
        same or weaker mode succeeds immediately; a S->X upgrade succeeds
        if the requester is the sole holder and queues otherwise.
        """
        event = Event(self.env)
        lock = self._lock(entity)

        held = lock.holders.get(txn_id)
        if held is not None:
            if held is LockMode.EXCLUSIVE or mode is LockMode.SHARE:
                event.succeed()  # already strong enough
                return event
            # S -> X upgrade.
            if lock.grant_compatible(LockMode.EXCLUSIVE, txn_id=txn_id):
                lock.holders[txn_id] = LockMode.EXCLUSIVE
                self.locks_granted += 1
                event.succeed()
                if self._settle_covered(lock, txn_id) and \
                        txn_id not in self._queued:
                    self._waits_for.clear_waits(txn_id)
                return event
            return self._block(lock, txn_id, mode, event)

        if not lock.waiters and lock.grant_compatible(mode, txn_id=txn_id):
            self._grant(lock, txn_id, mode)
            self.locks_granted += 1
            event.succeed()
            return event
        return self._block(lock, txn_id, mode, event)

    def _block(self, lock: Lock, txn_id: int, mode: LockMode,
               event: Event) -> Event:
        """Queue a request, checking for deadlock first."""
        blockers = [holder for holder in lock.holders if holder != txn_id]
        # Waiters ahead of us also (transitively) block us.
        blockers.extend(request.txn_id for request in lock.waiters)
        cycle = self._waits_for.would_deadlock(txn_id, blockers)
        if cycle:
            self.deadlocks += 1
            if self._on_deadlock is not None:
                self._on_deadlock(txn_id, lock.entity)
            error = DeadlockError(txn_id, lock.entity)
            error.cycle = cycle
            event.fail(error)
            event.defused()  # the acquiring process handles it
            return event
        self._waits_for.add_waiter(txn_id, blockers)
        self.lock_waits += 1
        lock.waiters.append(LockRequest(txn_id, mode, event,
                                        enqueued_at=self.env.now))
        queued = self._queued.get(txn_id)
        if queued is None:
            self._queued[txn_id] = {lock.entity: 1}
        else:
            queued[lock.entity] = queued.get(lock.entity, 0) + 1
        return event

    def _grant(self, lock: Lock, txn_id: int, mode: LockMode) -> None:
        """Record ``txn_id`` as a holder of ``lock`` in ``mode``."""
        if txn_id not in lock.holders:
            held = self._held.get(txn_id)
            if held is None:
                self._held[txn_id] = {lock.entity: lock}
            else:
                held[lock.entity] = lock
            self._held_count += 1
        lock.holders[txn_id] = mode

    def _drop_holder(self, lock: Lock, txn_id: int) -> None:
        """Remove ``txn_id`` from the holders of ``lock``."""
        del lock.holders[txn_id]
        held = self._held[txn_id]
        del held[lock.entity]
        if not held:
            del self._held[txn_id]
        self._held_count -= 1

    def _unqueue(self, txn_id: int, entity: int, requests: int = 1) -> None:
        """Forget ``requests`` queued requests of ``txn_id`` on ``entity``."""
        queued = self._queued[txn_id]
        left = queued[entity] - requests
        if left:
            queued[entity] = left
        else:
            del queued[entity]
            if not queued:
                del self._queued[txn_id]

    def release(self, txn_id: int, entity: int) -> None:
        """Release one lock held by ``txn_id`` and grant any waiters."""
        lock = self._locks.get(entity)
        if lock is None or txn_id not in lock.holders:
            raise LockError(
                f"{self.name}: txn {txn_id} does not hold entity {entity}")
        self._drop_holder(lock, txn_id)
        self._grant_waiters(lock)
        self._collect(lock)

    def release_all(self, txn_id: int) -> list[int]:
        """Release every lock held by ``txn_id``; returns released entities.

        Locks are released in lock-record creation order, which decides
        which waiters are granted first.
        """
        released = []
        held = self._held.pop(txn_id, None)
        if held:
            self._held_count -= len(held)
            for lock in sorted(held.values(), key=_TICKET):
                del lock.holders[txn_id]
                released.append(lock.entity)
                self._grant_waiters(lock)
                self._collect(lock)
        self.cancel_waits(txn_id)
        return released

    def cancel_waits(self, txn_id: int) -> None:
        """Drop any queued (ungranted) requests of ``txn_id``.

        Used when a waiting transaction is aborted: its pending request
        events are abandoned, so they are removed from the queues and the
        waits-for graph.
        """
        queued = self._queued.pop(txn_id, None)
        if queued:
            locks = self._locks
            for lock in sorted([locks[entity] for entity in queued],
                               key=_TICKET):
                pending = [request for request in lock.waiters
                           if request.txn_id == txn_id]
                for request in pending:
                    lock.waiters.remove(request)
                self._grant_waiters(lock)
                self._collect(lock)
        self._waits_for.remove(txn_id)

    def _grant_waiters(self, lock: Lock) -> None:
        """Grant from the head of the FIFO queue while compatible."""
        while lock.waiters:
            request = lock.waiters[0]
            if not lock.grant_compatible(request.mode,
                                         txn_id=request.txn_id):
                break
            lock.waiters.popleft()
            self._unqueue(request.txn_id, lock.entity)
            self._grant(lock, request.txn_id, request.mode)
            self.locks_granted += 1
            # Granted: it waits for nobody now, but waiters queued
            # behind it still wait for it -- keep their incoming edges.
            self._waits_for.clear_waits(request.txn_id)
            if not request.event.triggered:
                request.event.succeed()
            self._settle_covered(lock, request.txn_id)

    def _settle_covered(self, lock: Lock, txn_id: int) -> bool:
        """Succeed the queued requests of ``txn_id`` on ``lock`` that the
        mode it now holds already covers; returns whether there were any.

        Without this a holder could stay queued behind others for a mode
        it holds (or, once granted from the queue, be downgraded to it).
        """
        queued = self._queued.get(txn_id)
        if not queued or lock.entity not in queued:
            return False
        exclusive = lock.holders[txn_id] is LockMode.EXCLUSIVE
        covered = [request for request in lock.waiters
                   if request.txn_id == txn_id and
                   (exclusive or request.mode is LockMode.SHARE)]
        if not covered:
            return False
        for request in covered:
            lock.waiters.remove(request)
        self._unqueue(txn_id, lock.entity, len(covered))
        for request in covered:
            if not request.event.triggered:
                request.event.succeed()
        return True

    def _collect(self, lock: Lock) -> None:
        if lock.is_free():
            self._locks.pop(lock.entity, None)

    # -- coherence control ----------------------------------------------------

    def increment_coherence(self, entity: int) -> None:
        """A committed local update to ``entity`` is now in flight."""
        self._lock(entity).coherence_count += 1

    def decrement_coherence(self, entity: int) -> None:
        """The central site acknowledged one in-flight update."""
        lock = self._locks.get(entity)
        if lock is None or lock.coherence_count <= 0:
            raise LockError(
                f"{self.name}: coherence underflow on entity {entity}")
        lock.coherence_count -= 1
        self._collect(lock)

    # -- authentication-phase primitives ---------------------------------------

    def check_authentication(self, entities: Iterable[int]) -> \
            AuthenticationStatus:
        """NAK if any entity has in-flight asynchronous updates."""
        for entity in entities:
            if self.coherence_count(entity) != 0:
                return AuthenticationStatus.NEGATIVE
        return AuthenticationStatus.GRANTED

    def force_grant(self, txn_id: int, entity: int,
                    mode: LockMode) -> list[int]:
        """Grant ``entity`` to an authenticating central/shipped transaction.

        Incompatible local holders lose the lock and are returned so the
        site can mark them for abort (the paper: "the local transactions
        holding these locks are marked for abort, the central/shipped
        transaction is granted the locks and the locks held by the
        conflicting local transactions are released").  Compatible holders
        keep their locks and share with the grantee.
        """
        lock = self._lock(entity)
        # If the grantee itself has a queued request on this entity it is
        # superseded by the grant.
        own_requests = [request for request in lock.waiters
                        if request.txn_id == txn_id]
        for request in own_requests:
            lock.waiters.remove(request)
        if own_requests:
            self._unqueue(txn_id, entity, len(own_requests))
            self._waits_for.clear_waits(txn_id)
        evicted = [holder for holder, held in lock.holders.items()
                   if holder != txn_id and not mode.compatible_with(held)]
        for holder in evicted:
            self._drop_holder(lock, holder)
        held = lock.holders.get(txn_id)
        if held is None or (held is LockMode.SHARE and
                            mode is LockMode.EXCLUSIVE):
            # Grant, or upgrade -- never downgrade.
            self._grant(lock, txn_id, mode)
        self.forced_grants += 1
        # Evictions (or a share-mode grant) may unblock compatible FIFO
        # waiters; incompatible ones stay queued behind the grantee until
        # its commit/abort resolution.
        self._grant_waiters(lock)
        return evicted
