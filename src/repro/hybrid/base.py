"""Shared machinery for local and central site processors.

A site owns a single CPU (the paper's sites are uniprocessors rated in
MIPS) and a lock manager.  Transactions use the CPU in *bursts*: the
paper specifies that "the CPU is released by a transaction when lock
contention occurs, for each I/O, and for the communication to another
site", which is exactly the request/hold/release pattern of
:meth:`SiteBase.cpu_burst`.  CPU service times are deterministic,
computed from instruction pathlengths and the site's MIPS rating (the
paper stresses they are *not* exponentially distributed).

:meth:`SiteBase._run` is the Section 2 transaction path both kinds of
site share: run the database calls under locks, check the abort mark,
then hand over to the site's commit step.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..db.locks import DeadlockError, LockManager
from ..sim.engine import Environment, Interrupt, Process
from ..sim.resources import Resource
from ..sim.spans import (
    PHASE_CPU_SERVICE,
    PHASE_CPU_WAIT,
    PHASE_IO,
    PHASE_LOCK_WAIT,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Iterable

    from ..db.transaction import Reference, Transaction
    from .config import SystemConfig
    from .metrics import MetricsCollector

__all__ = ["SiteBase"]


class Handlers(dict):
    """A site's message table: payload type -> handler method name."""

    def __missing__(self, payload_type: type):
        raise TypeError(f"unexpected payload {payload_type.__name__}")


class SiteBase:
    """Common CPU / lock-table behaviour of local and central sites."""

    #: Abort cause recorded when the commit check finds the abort mark.
    invalidated_cause = ""
    metrics: "MetricsCollector"
    #: Inbound payload type -> handler method name; a protocol subclass
    #: merges its own rows in.  A site's ``FAULT_HANDLERS``, the rows for
    #: payloads only a fault plan produces, join in ``enable_reliability``.
    HANDLERS: dict[type, str] = {}

    def __init__(self, env: Environment, config: "SystemConfig",
                 mips: float, name: str):
        self.env = env
        self.config = config
        self.mips = mips
        self.name = name
        self.cpu = Resource(env, capacity=1)
        self.locks = LockManager(env, name=name)
        #: Fault injection: CPU service-time multiplier (1.0 = healthy)
        #: and crash flag (a down site rejects new arrivals).
        self.service_scale = 1.0
        self.down = False
        #: Transactions currently running at this site.
        self.active: dict[int, Transaction] = {}
        #: Their processes, so a crash or a cancel can interrupt them.
        self._processes: dict[int, Process] = {}
        self.handlers = Handlers(self.HANDLERS)

    def service_time(self, instructions: float) -> float:
        """Deterministic CPU time for an instruction pathlength."""
        return instructions * self.service_scale / (self.mips * 1_000_000.0)

    def cpu_burst(self, instructions: float,
                  txn: "Transaction | None" = None):
        """Process fragment: queue for the CPU, hold it, release it.

        Use as ``yield from site.cpu_burst(n_instr)`` inside a process.
        Zero-instruction bursts complete immediately without touching the
        CPU queue.  Passing ``txn`` attributes the queueing and service
        time to that transaction's lifecycle spans.
        """
        if instructions <= 0:
            return
        env = self.env
        grant = self.cpu.request()
        if txn is None:
            try:
                yield grant
                yield env.timeout(self.service_time(instructions))
            finally:
                grant.cancel()
            return
        spans = txn.spans
        try:
            spans.enter(PHASE_CPU_WAIT, env.now)
            yield grant
            spans.enter(PHASE_CPU_SERVICE, env.now)
            yield env.timeout(self.service_time(instructions))
        finally:
            grant.cancel()
        spans.exit(env.now)

    def io_wait(self, seconds: float, txn: "Transaction | None" = None):
        """Process fragment: a synchronous I/O (CPU is not held)."""
        if seconds <= 0:
            return
        env = self.env
        if txn is None:
            yield env.timeout(seconds)
            return
        spans = txn.spans
        spans.enter(PHASE_IO, env.now)
        yield env.timeout(seconds)
        spans.exit(env.now)

    def lock_wait(self, txn: "Transaction", reference: "Reference"):
        """Process fragment: acquire one lock, span-attributing the wait.

        Raises :class:`~repro.db.locks.DeadlockError` (from the grant
        event) when the transaction is chosen as a deadlock victim, with
        the elapsed wait still attributed to the ``lock-wait`` phase.
        """
        env = self.env
        spans = txn.spans
        grant = self.locks.acquire(txn.txn_id, reference.entity,
                                   reference.mode)
        spans.enter(PHASE_LOCK_WAIT, env.now)
        try:
            yield grant
        finally:
            spans.exit(env.now)
        txn.locked_entities.append(reference.entity)

    # -- the transaction path (Section 2) ------------------------------------

    def _run(self, txn: "Transaction"):
        """Run a transaction here until it commits (or is interrupted).

        Each run: the set-up I/O (first run only), the initiation
        overhead, the database calls under two-phase locking, the abort
        checks, then :meth:`_finish`.  A deadlock victim or a marked
        transaction re-runs.
        """
        config = self.config
        self.active[txn.txn_id] = txn
        try:
            while True:
                txn.begin_run(self.env.now)
                first_run = txn.run_count == 1
                if first_run:
                    yield from self.io_wait(config.io_initial, txn)
                yield from self.cpu_burst(config.instr_txn_overhead, txn)
                try:
                    yield from self._execute_calls(txn, txn.references,
                                                   first_run)
                except DeadlockError:
                    self._abort_deadlock(txn)
                    continue
                # Commit check: the abort mark set by a conflicting
                # commit at the other copy (Section 2).
                if txn.marked_for_abort:
                    self._abort_invalidated(txn)
                    continue
                committed = yield from self._finish(txn)
                if committed:
                    return
        except Interrupt:
            self._interrupted(txn)
        finally:
            self.active.pop(txn.txn_id, None)
            self._processes.pop(txn.txn_id, None)

    def _finish(self, txn: "Transaction"):
        """The site's commit step: a generator returning ``True`` once
        the run committed (or handed its completion on) and ``False`` to
        re-run."""
        raise NotImplementedError

    def _interrupted(self, txn: "Transaction") -> None:
        """Clean up after the transaction's process was interrupted."""
        raise NotImplementedError

    def _execute_calls(self, txn: "Transaction",
                       references: "Iterable[Reference]", first_run: bool):
        """The database calls: lock, CPU burst, data I/O (first run)."""
        config = self.config
        for reference in references:
            if not self.locks.is_held_by(reference.entity, txn.txn_id):
                # Raises DeadlockError on a cycle.
                yield from self.lock_wait(txn, reference)
            yield from self.cpu_burst(config.instr_per_db_call, txn)
            if first_run:
                yield from self.io_wait(config.io_per_db_call, txn)

    def _release(self, txn: "Transaction") -> None:
        """Release every lock the transaction holds at this site."""
        self.locks.release_all(txn.txn_id)
        txn.locked_entities.clear()

    def _mark_holders(self, entities: "Iterable[int]", reason: str) -> None:
        """Mark every transaction running here that holds a lock on one
        of ``entities`` for abort (a conflicting commit won)."""
        for entity in entities:
            for holder_id in list(self.locks.held_modes(entity)):
                victim = self.active.get(holder_id)
                if victim is not None and not victim.marked_for_abort:
                    victim.mark_for_abort(reason)

    def _abort_deadlock(self, txn: "Transaction") -> None:
        """Deadlock victim: release *all* locks (Section 4.1) and re-run."""
        txn.record_abort(deadlock=True)
        self.metrics.record_abort(txn, "deadlock")
        self._release(txn)

    def _abort_invalidated(self, txn: "Transaction") -> None:
        """Aborted by a conflicting commit at the other copy.

        Under the paper's modelling assumption the surviving locks are
        kept for the re-run; entities an authenticating transaction took
        were already removed from ``locked_entities`` at eviction.
        """
        txn.record_abort()
        self.metrics.record_abort(txn, self.invalidated_cause)
        if not self.config.keep_locks_on_abort:
            self._release(txn)

    @property
    def cpu_queue_length(self) -> int:
        """Jobs queued for plus running on the CPU (the paper's ``q``)."""
        return self.cpu.queue_length
