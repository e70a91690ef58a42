"""Hot-standby central complex: log-shipped replica, lease, takeover.

:class:`StandbyCentral` is a second :class:`~repro.hybrid.central.CentralSite`
kept warm next to the primary.  While the primary is alive the standby

* receives the primary's applied update stream as :class:`LogRecord`
  frames over a reliable log channel and replays it into its own
  replica (deduplicated by ``(site, seq)`` so direct re-sends after a
  failover compose with the shipped log);
* tracks the primary's liveness by :class:`Heartbeat` beacons sent
  *unreliably* on the same link pair -- silence, not a nack, signals
  death.

When the heartbeat lease expires the standby deterministically takes
over: it pays a takeover CPU burst, assumes the central role, and
broadcasts :class:`FailoverNotice` to every site over its own
(pre-wired, independent) site links.  Sites re-point their routing,
settle in-flight shipments (class A re-runs locally, class B re-ships
here), release the dead primary's master locks and re-send
unacknowledged update batches -- the conservative abort-and-retry
resolution of everything that was in flight.  A reliable
:class:`TakeoverNotice` deposes the primary once the partition heals.

Failover is sticky: the primary never reclaims the role within a run.
The standby exists only when the fault plan's
:class:`~repro.sim.faults.RecoveryPolicy` enables ``failover``, so
plain and failover-disabled runs are untouched.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..db.workload import LockSpacePartition
from ..sim.engine import Environment
from ..sim.network import Link, Message, ReliableEndpoint
from .central import CentralSite
from .protocol import FailoverNotice, Heartbeat, LogRecord, TakeoverNotice

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.faults import RecoveryPolicy
    from .config import SystemConfig
    from .system import HybridSystem

__all__ = ["StandbyCentral"]


class StandbyCentral(CentralSite):
    """The backup central complex (see module docstring)."""

    def __init__(self, env: Environment, config: "SystemConfig",
                 system: "HybridSystem", partition: LockSpacePartition):
        super().__init__(env, config, system, partition, name="standby")
        #: True once this standby has assumed the central role.
        self.is_active = False
        self.last_heartbeat = 0.0
        #: Both directions of the primary<->standby log link pair
        #: (severed together by a central outage).
        self.log_links: tuple[Link, ...] = ()

    def start_standby(self, endpoint: ReliableEndpoint,
                      in_link: Link, log_links: tuple[Link, ...]) -> None:
        """Wire the standby side of the log channel and arm the lease."""
        self.log_endpoint = endpoint
        self.log_in = in_link
        self.log_links = log_links
        self.last_heartbeat = self.env.now
        self.env.process(self._log_dispatch(),
                         name="standby:log-dispatch")
        self.env.process(self._lease_monitor(),
                         name="standby:lease-monitor")

    def _ship_log(self, kind: str, updates, site=None, seq: int = 0) -> None:
        """The standby has no standby of its own: nothing to ship."""
        return

    # -- log stream ----------------------------------------------------------

    def _log_dispatch(self):
        while True:
            message = yield self.log_in.mailbox.get()
            for delivered in self.log_endpoint.pump(message):
                payload = delivered.payload
                if isinstance(payload, Heartbeat):
                    self.last_heartbeat = self.env.now
                elif isinstance(payload, LogRecord):
                    yield from self._apply_log(payload)

    def _apply_log(self, record: LogRecord):
        """Replay one shipped log record into the standby replica."""
        if not self._mark_batch(record.site, record.seq):
            return
        instr = self.recovery.instr_log_replay if self.recovery else 0
        if instr:
            yield from self.cpu_burst(instr * max(1, len(record.updates)))
        entities = tuple(entity for group in record.updates
                         for entity in group)
        if not entities:
            return
        self.data.apply_updates(entities)
        if self.is_active and self.active:
            # Post-takeover stragglers from the dying primary can still
            # invalidate transactions now running here.
            self._mark_holders(entities, "invalidated-by-update")

    # -- failure detection and takeover --------------------------------------

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
            self._send(site_id, "failover",
                       FailoverNotice(snapshot=snapshot))
        # Depose the primary: reliable, so it lands once the partition
        # heals, whereupon the primary kills its zombie work.
        self.log_endpoint.send(Message(
            kind="takeover", source=self.name,
            payload=TakeoverNotice(time=self.env.now)))
        self.metrics.record_takeover("takeover")
        self.metrics.record_recovery("failover", None, failed_at,
                                     self.env.now)
