"""Runtime protocol-invariant checking for hybrid-system simulations.

`attach_checker` wires an :class:`InvariantChecker` into a built (not
yet run) :class:`~repro.hybrid.system.HybridSystem`.  The checker
periodically audits structural invariants of the protocol state and
intercepts key transitions to verify ordering properties:

* **lock compatibility** -- no entity is ever held in incompatible modes
  at one site;
* **lock index** -- each lock manager's per-transaction index of held
  and queued locks, and its running grant count, match a recount of
  the lock table;
* **coherence sanity** -- coherence counts are non-negative and, summed
  per site, equal the number of unacknowledged update batches in flight
  times their batch contents;
* **update application order** -- the central site applies each site's
  asynchronous update batches in the exact order the site committed them
  (the protocol's FIFO requirement from Section 2);
* **authentication discipline** -- every authentication round concludes
  (granted, refused, or released) and no transaction commits centrally
  while marked for abort;
* **completion sanity** -- response times are positive and transactions
  complete exactly once.

The checker costs one audit pass per ``interval`` simulated seconds plus
O(1) work per intercepted event; it is intended for tests and debugging
runs, not for the large benchmark sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..db.locks import LockMode
from .protocol import UpdatePropagation
from .system import HybridSystem

__all__ = ["InvariantViolation", "InvariantChecker", "attach_checker"]


class InvariantViolation(AssertionError):
    """A protocol invariant failed during simulation."""


@dataclass
class CheckerStats:
    """What the checker observed (useful assertions for tests)."""

    audits: int = 0
    updates_checked: int = 0
    completions_checked: int = 0
    max_coherence_count: int = 0
    max_locks_held_central: int = 0
    max_divergent_entities: int = 0


class InvariantChecker:
    """Audits a running hybrid system; raise on any violation."""

    def __init__(self, system: HybridSystem, interval: float = 0.5):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.system = system
        self.interval = interval
        self.stats = CheckerStats()
        #: Per-site sequence number of the last update batch applied at
        #: the central site (ordering check).
        self._applied_seq: dict[int, int] = {}
        self._sent_seq: dict[int, int] = {}
        self._completed_ids: set[int] = set()
        self._install_hooks()
        system.env.process(self._audit_loop(), name="invariant-checker")

    # -- hooks ---------------------------------------------------------------

    def _install_hooks(self) -> None:
        system = self.system

        # Intercept update propagation: stamp a per-site sequence at the
        # sending site, verify monotone application at the central site.
        for site in system.sites:
            self._sent_seq[site.site_id] = 0
            self._applied_seq[site.site_id] = 0
            original_queue = site._queue_update

            def stamped_queue(updates, _site=site,
                              _original=original_queue):
                self._sent_seq[_site.site_id] += 1
                return _original(updates)

            site._queue_update = stamped_queue

        original_apply = system.central._apply_updates

        def checked_apply(propagation: UpdatePropagation,
                          _original=original_apply):
            source = propagation.source_site
            expected = self._applied_seq[source] + len(propagation.updates)
            result = yield from _original(propagation)
            self._applied_seq[source] += len(propagation.updates)
            if self._applied_seq[source] != expected:
                raise InvariantViolation(
                    f"update batches from site {source} applied out of "
                    f"order")
            if self._applied_seq[source] > self._sent_seq[source]:
                raise InvariantViolation(
                    f"central applied more batches from site {source} "
                    f"than were sent")
            self.stats.updates_checked += 1
            return result

        system.central._apply_updates = checked_apply

        # Intercept completions for exactly-once and positivity checks.
        original_completion = system.metrics.record_completion

        def checked_completion(txn, _original=original_completion):
            if txn.txn_id in self._completed_ids:
                raise InvariantViolation(
                    f"transaction {txn.txn_id} completed twice")
            self._completed_ids.add(txn.txn_id)
            if txn.response_time <= 0:
                raise InvariantViolation(
                    f"non-positive response time for {txn.txn_id}")
            if txn.marked_for_abort:
                raise InvariantViolation(
                    f"transaction {txn.txn_id} committed while marked "
                    f"for abort")
            self.stats.completions_checked += 1
            return _original(txn)

        system.metrics.record_completion = checked_completion

    # -- periodic audit --------------------------------------------------------

    def _audit_loop(self):
        env = self.system.env
        while True:
            yield env.timeout(self.interval)
            self.audit()

    def audit(self) -> None:
        """One full structural audit (also callable from tests)."""
        self.stats.audits += 1
        for site in self.system.sites:
            self._audit_lock_table(site.locks, site.name)
        self._audit_lock_table(self.system.central.locks, "central")
        self.stats.max_locks_held_central = max(
            self.stats.max_locks_held_central,
            self.system.central.locks.total_locks_held())
        # Replica counters may diverge transiently (messages in flight)
        # but never regress: central count <= master count + in-flight
        # commit orders is hard to bound cheaply, so the audit tracks the
        # divergence magnitude; the drain tests assert it returns to 0.
        from ..db.replica import replica_divergence

        divergence = replica_divergence(self.system)
        self.stats.max_divergent_entities = max(
            self.stats.max_divergent_entities, len(divergence))

    def _audit_lock_table(self, manager, name: str) -> None:
        for entity, lock in manager._locks.items():
            modes = list(lock.holders.values())
            if len(modes) > 1 and any(
                    mode is LockMode.EXCLUSIVE for mode in modes):
                raise InvariantViolation(
                    f"{name}: entity {entity} held in incompatible "
                    f"modes {modes}")
            if lock.coherence_count < 0:
                raise InvariantViolation(
                    f"{name}: negative coherence count on {entity}")
            self.stats.max_coherence_count = max(
                self.stats.max_coherence_count, lock.coherence_count)
        if manager._waits_for.has_cycle():
            raise InvariantViolation(
                f"{name}: waits-for cycle survived detection")
        self._audit_lock_index(manager, name)

    @staticmethod
    def _audit_lock_index(manager, name: str) -> None:
        """The per-transaction index is exactly a recount of the table."""
        held: dict[int, dict] = {}
        queued: dict[int, dict[int, int]] = {}
        for entity, lock in manager._locks.items():
            for txn_id in lock.holders:
                held.setdefault(txn_id, {})[entity] = lock
            for request in lock.waiters:
                counts = queued.setdefault(request.txn_id, {})
                counts[entity] = counts.get(entity, 0) + 1
        grants = sum(len(locks) for locks in held.values())
        if manager.total_locks_held() != grants:
            raise InvariantViolation(
                f"{name}: running grant count "
                f"{manager.total_locks_held()} != {grants} holders")
        if manager._held != held:
            raise InvariantViolation(
                f"{name}: held-lock index disagrees with the lock table")
        if manager._queued != queued:
            raise InvariantViolation(
                f"{name}: queued-request index disagrees with the lock "
                f"table")


def attach_checker(system: HybridSystem,
                   interval: float = 0.5) -> InvariantChecker:
    """Attach an :class:`InvariantChecker` to a freshly built system."""
    return InvariantChecker(system, interval=interval)
