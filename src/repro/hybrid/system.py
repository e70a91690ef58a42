"""Assembly and execution of the full hybrid system simulation.

:class:`HybridSystem` wires together the substrate pieces -- one
:class:`~repro.hybrid.central.CentralSite`, ``n_sites``
:class:`~repro.hybrid.local.LocalSite` instances, constant-delay links in
both directions, per-site Poisson arrival processes, a metrics collector
and a windowed :class:`~repro.hybrid.telemetry.TelemetrySampler` -- and
runs the discrete-event simulation with warm-up deletion.
:func:`simulate` is the one-call convenience entry point used by the
examples and the experiment harness.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from ..db.workload import ArrivalProcess, LockSpacePartition, \
    TransactionFactory
from ..obs.registry import MetricsRegistry
from ..sim.engine import Environment
from ..sim.faults import FaultInjector, FaultPlan, episode_reports
from ..sim.network import Link
from ..sim.rng import RandomStreams
from ..sim.stats import TimeWeightedStat
from ..sim.trace import NullTracer, Tracer
from .central import CentralSite
from .config import SystemConfig
from .local import LocalSite
from .metrics import MetricsCollector, SimulationResult
from .telemetry import TelemetrySampler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.router import RouterFactory
    from ..obs.audit import RoutingAudit

__all__ = ["HybridSystem", "simulate", "site_classes"]

#: How often the population/queue-length time series are sampled.  The
#: paper's strategies read these quantities at arrival instants; for the
#: *reported* averages a periodic sample is statistically sufficient and
#: far cheaper than recording every change.
SAMPLE_INTERVAL = 0.25

#: Default telemetry window length (simulated seconds) and ring capacity.
TELEMETRY_INTERVAL = 1.0
TELEMETRY_CAPACITY = 512


def site_classes(protocol: str, fault_plan: "FaultPlan | None" = None
                 ) -> tuple[type[LocalSite], type[CentralSite]]:
    """The (local site, central site) classes realising a commit protocol.

    The ``2pc`` and ``epoch`` branches import their own module, so an
    optimistic run never loads them.  Under a non-empty ``fault_plan``
    each class has the survivability layer of
    :mod:`repro.hybrid.survival` composed over it.
    """
    if protocol == "optimistic":
        pair = LocalSite, CentralSite
    elif protocol == "2pc":
        from .protocols.twophase import TwoPhaseCentralSite, \
            TwoPhaseLocalSite
        pair = TwoPhaseLocalSite, TwoPhaseCentralSite
    elif protocol == "epoch":
        from .protocols.epoch import EpochCentralSite, EpochLocalSite
        pair = EpochLocalSite, EpochCentralSite
    else:
        raise ValueError(f"unknown commit protocol {protocol!r}")
    if fault_plan is None or fault_plan.is_empty:
        return pair
    from .survival import survivable
    return survivable(pair[0]), survivable(pair[1])


def publish_links(link_msgs, links) -> None:
    """Publish each link's sent, delivered and (if any) dropped count."""
    for link in links:
        link_msgs.labels(link.name, "sent").set(link.messages_sent)
        link_msgs.labels(link.name, "delivered").set(
            link.messages_delivered)
        if link.messages_dropped:
            link_msgs.labels(link.name, "dropped").set(
                link.messages_dropped)


class HybridSystem:
    """One fully wired simulated hybrid distributed-centralized system."""

    def __init__(self, config: SystemConfig,
                 router_factory: "RouterFactory",
                 seed: int | None = None,
                 tracer: "Tracer | NullTracer | None" = None,
                 telemetry_interval: float = TELEMETRY_INTERVAL,
                 telemetry_capacity: int = TELEMETRY_CAPACITY,
                 fault_plan: "FaultPlan | None" = None,
                 registry: "MetricsRegistry | None" = None,
                 audit: "RoutingAudit | None" = None):
        self.config = config
        self.seed = config.seed if seed is None else seed
        self.env = Environment()
        self.streams = RandomStreams(self.seed)
        self.tracer = tracer if tracer is not None else NullTracer()
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.audit = audit
        self.metrics = MetricsCollector(self.env, config.warmup_time,
                                        tracer=self.tracer,
                                        registry=self.registry,
                                        audit=audit)
        self.partition = LockSpacePartition(config.workload.lockspace,
                                            config.workload.n_sites)

        # The commit protocol is a class selection: the local and central
        # site classes wired below, with the survivability layer composed
        # over them under a fault plan (the hot standby, if any, is a
        # second instance of the central class).
        self.fault_plan = fault_plan
        self.injector: FaultInjector | None = None
        self.standby: CentralSite | None = None
        local_cls, central_cls = site_classes(config.protocol, fault_plan)
        self.central = central_cls(self.env, config, self, self.partition)
        self.routers = [router_factory(config, site_id)
                        for site_id in range(config.n_sites)]
        self.sites = [local_cls(self.env, site_id, config, self,
                                self.routers[site_id])
                      for site_id in range(config.n_sites)]
        self.strategy_name = self.routers[0].name if self.routers else "none"
        if audit is not None and not audit.strategy:
            audit.strategy = self.strategy_name

        # Bidirectional constant-delay links per site.
        to_central = []
        from_central = []
        for site in self.sites:
            up = Link(self.env, config.comm_delay,
                      name=f"site-{site.site_id}->central")
            down = Link(self.env, config.comm_delay,
                        name=f"central->site-{site.site_id}")
            site.attach_links(to_central=up, from_central=down)
            to_central.append(up)
            from_central.append(down)
        self.central.attach_links(to_sites=from_central,
                                  from_sites=to_central)

        # Fault injection is strictly opt-in: with no plan (or an empty
        # one) nothing schedules an event, touches a random stream or
        # changes a message path, so the run stays bit-identical to a
        # plain one.
        if fault_plan is not None and not fault_plan.is_empty:
            from .survival import install
            install(self, to_central, from_central)

        self.factory = TransactionFactory(config.workload, self.streams)
        self.arrivals = [
            ArrivalProcess(self.env, site.site_id, self.factory,
                           self.streams, submit=site.submit)
            for site in self.sites
        ]

        # Time series of populations and queue lengths.
        self._n_local_tw = TimeWeightedStat()
        self._n_central_tw = TimeWeightedStat()
        self._q_local_tw = TimeWeightedStat()
        self._q_central_tw = TimeWeightedStat()
        self.env.process(self._sampler(), name="sampler")

        # Windowed run telemetry (ring-buffered; see telemetry module).
        self.telemetry = TelemetrySampler(self, telemetry_interval,
                                          telemetry_capacity)

    # -- observation helpers ------------------------------------------------

    @property
    def n_local_total(self) -> int:
        """Class A transactions currently running at all local sites."""
        return sum(len(site.active) for site in self.sites)

    @property
    def acting_central(self) -> CentralSite:
        """The central complex currently in charge (standby after a
        failover, the primary otherwise)."""
        standby = self.standby
        if standby is not None and standby.is_active:
            return standby
        return self.central

    @property
    def n_central(self) -> int:
        return len(self.acting_central.active)

    def _sampler(self):
        interval = SAMPLE_INTERVAL
        while True:
            yield self.env.timeout(interval)
            now = self.env.now
            self._n_local_tw.record(now, self.n_local_total)
            self._n_central_tw.record(now, self.n_central)
            mean_q_local = (sum(site.cpu_queue_length
                                for site in self.sites) /
                            len(self.sites))
            self._q_local_tw.record(now, mean_q_local)
            self._q_central_tw.record(
                now, self.acting_central.cpu_queue_length)

    def _reset_after_warmup(self) -> None:
        now = self.env.now
        self.central.cpu.reset_utilization()
        for site in self.sites:
            site.cpu.reset_utilization()
        self.telemetry.rebase()
        for series in (self._n_local_tw, self._n_central_tw,
                       self._q_local_tw, self._q_central_tw):
            series.reset(now)

    def _publish_gauges(self) -> None:
        """Harvest end-of-run state from the substrate into the registry.

        The hot paths (CPU grants, link counters) keep plain ints and are
        read once here, so instrumentation costs nothing per event.  Only
        simulation-deterministic values are published -- never wall-clock
        quantities -- so the snapshot is safe for bit-identity checks
        (the ``engine_*`` gauges are filtered alongside the profile
        fields when observer processes are present).
        """
        reg = self.registry
        grants = reg.gauge("cpu_grants", "CPU service grants per server",
                           labels=("server",))
        grants.labels("central").set(self.central.cpu.grants)
        link_msgs = reg.gauge("link_messages",
                              "link traffic by link and event",
                              labels=("link", "event"))
        for site in self.sites:
            grants.labels(f"site-{site.site_id}").set(site.cpu.grants)
            publish_links(link_msgs, (site.to_central, site.from_central))
        if self.injector is not None:
            from .survival import publish_gauges
            publish_gauges(self, grants, link_msgs)
        reg.gauge("engine_events",
                  "kernel events dispatched").single.set(
            self.env.events_processed)
        reg.gauge("engine_events_scheduled",
                  "kernel events scheduled").single.set(
            self.env.events_scheduled)
        reg.gauge("engine_heap_peak",
                  "calendar peak depth").single.set(self.env.heap_peak)

    # -- execution ----------------------------------------------------------

    def run(self) -> SimulationResult:
        """Run warm-up plus measurement window; return the frozen result."""
        config = self.config
        wall_start = time.perf_counter()
        if config.warmup_time > 0:
            self.env.run(until=config.warmup_time)
        self._reset_after_warmup()
        self.env.run(until=config.run_until)
        wall_clock = time.perf_counter() - wall_start
        self._publish_gauges()
        series = self.telemetry.series
        fault_episodes = ()
        if self.injector is not None:
            fault_episodes = episode_reports(
                self.injector.applied, series.windows,
                recoveries=self.metrics.recoveries)
        return self.metrics.freeze(
            total_rate=config.workload.total_arrival_rate,
            comm_delay=config.comm_delay,
            strategy=self.strategy_name,
            protocol=config.protocol,
            seed=self.seed,
            local_utilizations=[
                site.cpu.utilization(since=config.warmup_time)
                for site in self.sites],
            central_utilization=self.central.cpu.utilization(
                since=config.warmup_time),
            mean_local_queue=self._q_local_tw.mean(self.env.now),
            mean_central_queue=self._q_central_tw.mean(self.env.now),
            telemetry=series.windows,
            telemetry_interval=self.telemetry.interval,
            telemetry_windows_dropped=series.dropped,
            warmup_adequate=series.warmup_adequate(config.warmup_time),
            warmup_trend=series.warmup_trend(config.warmup_time),
            engine_events=self.env.events_processed,
            engine_events_per_sec=(self.env.events_processed / wall_clock
                                   if wall_clock > 0 else 0.0),
            engine_heap_peak=self.env.heap_peak,
            wall_clock_seconds=wall_clock,
            fault_episodes=fault_episodes,
        )


def simulate(config: SystemConfig, router_factory: "RouterFactory",
             seed: int | None = None,
             fault_plan: "FaultPlan | None" = None) -> SimulationResult:
    """Build a :class:`HybridSystem` and run it to completion."""
    return HybridSystem(config, router_factory, seed=seed,
                        fault_plan=fault_plan).run()
