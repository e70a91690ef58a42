"""Shared machinery for local and central site processors.

A site owns a single CPU (the paper's sites are uniprocessors rated in
MIPS) and a lock manager.  Transactions use the CPU in *bursts*: the
paper specifies that "the CPU is released by a transaction when lock
contention occurs, for each I/O, and for the communication to another
site", which is exactly the request/hold/release pattern of
:meth:`SiteBase.cpu_burst`.  CPU service times are deterministic,
computed from instruction pathlengths and the site's MIPS rating (the
paper stresses they are *not* exponentially distributed).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..db.locks import LockManager
from ..sim.engine import Environment
from ..sim.resources import Resource
from ..sim.spans import (
    PHASE_CPU_SERVICE,
    PHASE_CPU_WAIT,
    PHASE_IO,
    PHASE_LOCK_WAIT,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..db.transaction import Reference, Transaction
    from .config import SystemConfig

__all__ = ["SiteBase"]


class SiteBase:
    """Common CPU / lock-table behaviour of local and central sites."""

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

    @property
    def cpu_queue_length(self) -> int:
        """Jobs queued for plus running on the CPU (the paper's ``q``)."""
        return self.cpu.queue_length
