"""Measurement collection for hybrid-system simulations.

The collector honours a warm-up period: observations before
``warmup_time`` are discarded so the steady-state estimates are not
biased by the empty-and-idle initial state.  Everything the paper's
figures need is gathered here:

* mean response time over **all** transactions (class A and B -- the
  y-axis of Figures 4.1/4.2/4.4/4.5/4.7), split by the six transaction
  kinds and by class;
* a per-phase *decomposition* of the mean response time (communication,
  CPU queueing, CPU service, I/O, lock waits, authentication, residue)
  computed from each transaction's lifecycle spans, so every figure can
  be attributed to a cause rather than just plotted;
* throughput (committed transactions per second of measured time);
* the fraction of class A transactions shipped (Figures 4.3/4.6);
* abort statistics split by cause (deadlock, invalidation of local
  transactions by authentication, invalidation of central transactions by
  asynchronous updates, negative acknowledgements);
* message counts and mean CPU utilisations;
* windowed time-series telemetry and engine profiling, attached by the
  system at freeze time (see :mod:`repro.hybrid.telemetry`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

from ..db.transaction import (
    Placement,
    Transaction,
    TransactionClass,
    TransactionKind,
)
from ..obs.registry import MetricsRegistry
from ..sim.quantiles import QuantileSet
from ..sim.spans import PHASE_OTHER, PHASES
from ..sim.stats import RunningStat, TimeWeightedStat

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.audit import RoutingAudit
    from ..sim.engine import Environment
    from .telemetry import TelemetryWindow

__all__ = ["MetricsCollector", "SimulationResult"]


@dataclass(frozen=True)
class SimulationResult:
    """Immutable summary of one simulation run (one curve point)."""

    total_rate: float
    comm_delay: float
    strategy: str
    seed: int

    mean_response_time: float
    response_time_by_class: dict[TransactionClass, float]
    response_time_by_kind: dict[TransactionKind, float]
    #: Streaming P^2 estimates: keys p50/p90/p95/p99/min/max.
    response_time_percentiles: dict[str, float]
    throughput: float
    completed: int

    class_a_arrivals: int
    class_a_shipped: int

    aborts_total: int
    aborts_deadlock: int
    aborts_local_invalidated: int
    aborts_central_invalidated: int
    auth_negative_acks: int

    mean_local_utilization: float
    mean_central_utilization: float
    mean_local_queue_length: float
    mean_central_queue_length: float
    messages_to_central: int
    messages_to_sites: int

    # -- observability extensions (defaulted for compatibility) ------------

    #: Mean seconds per lifecycle phase over all completed transactions.
    #: The values sum to :attr:`mean_response_time` (exactly, up to
    #: floating-point error) because the span recorder attributes every
    #: instant of a transaction's lifetime to exactly one phase.
    response_time_decomposition: dict[str, float] = \
        field(default_factory=dict)
    #: The same decomposition split by transaction class.
    decomposition_by_class: dict[TransactionClass, dict[str, float]] = \
        field(default_factory=dict)
    #: The same decomposition split by placement (local/shipped/...).
    decomposition_by_placement: dict[Placement, dict[str, float]] = \
        field(default_factory=dict)

    #: Windowed time-series telemetry (ring-buffered; oldest windows may
    #: have been evicted -- see ``telemetry_windows_dropped``).
    telemetry: tuple["TelemetryWindow", ...] = ()
    telemetry_interval: float = 0.0
    telemetry_windows_dropped: int = 0
    #: ``None`` when too few post-warm-up windows exist to judge;
    #: otherwise whether the post-warm-up series looks trend-free.
    warmup_adequate: bool | None = None
    #: Relative first-half vs second-half drift per monitored metric.
    warmup_trend: dict[str, float] = field(default_factory=dict)

    #: Engine profile: events processed, wall-clock rate, calendar peak.
    engine_events: int = 0
    engine_events_per_sec: float = 0.0
    engine_heap_peak: int = 0
    wall_clock_seconds: float = 0.0

    # -- robustness / availability extensions (defaulted; all zero when
    # -- no fault plan is active) ------------------------------------------

    #: Shipped transactions whose response retry budget was exhausted.
    txns_timed_out: int = 0
    #: Class A transactions re-run locally after a shipment was cancelled.
    txns_failed_over: int = 0
    #: Transactions abandoned outright (cancelled class B shipments).
    txns_failed: int = 0
    #: Central-side executions killed by a ShipmentCancel.
    txns_cancelled_central: int = 0
    #: Class A arrivals routed locally by failure-awareness (central
    #: suspected or snapshot stale) without consulting the strategy.
    fallback_routings: int = 0
    #: Arrivals rejected because their home site was crashed.
    arrivals_rejected: int = 0
    #: Messages lost on degraded links / retransmitted by the reliable
    #: channels / discarded as duplicates at the receivers.
    messages_dropped: int = 0
    messages_retransmitted: int = 0
    duplicate_messages: int = 0
    #: Fault-episode transitions (applies + reverts) over the whole run.
    fault_events: int = 0
    #: Per-episode availability summaries
    #: (:class:`~repro.sim.faults.EpisodeReport`).
    fault_episodes: tuple = ()

    # -- survivability extensions (defaulted; all zero/None without a
    # -- recovery policy) ---------------------------------------------------

    #: Arrivals shed by bounded admission control (site or central).
    arrivals_shed: int = 0
    #: Transactions destroyed with a site's volatile state by a crash.
    txns_lost_in_crash: int = 0
    #: Shipments cancelled because their end-to-end deadline passed.
    txns_deadline_cancelled: int = 0
    #: Class B shipments re-shipped to the standby after a failover.
    txns_reshipped: int = 0
    #: Circuit-breaker state transitions (open/half-open/closed).
    breaker_transitions: int = 0
    #: Hot-standby takeovers (0 or 1 per run -- failover is sticky).
    failover_takeovers: int = 0
    #: Completed site rejoin (catch-up) protocols.
    site_rejoins: int = 0
    #: Per-recovery protocol timings
    #: (:class:`~repro.sim.faults.RecoveryRecord`).
    recoveries: tuple = ()
    #: Mean protocol-level repair time over all recoveries (seconds;
    #: ``None`` when no recovery ran).
    mttr: float | None = None
    #: Mean sim-time between failure episodes: uptime divided by the
    #: number of fault episodes (``None`` without any episode).
    mtbf: float | None = None

    #: Flattened metrics-registry snapshot (``name{labels} -> value``):
    #: every instrument the subsystems published during the run.  All
    #: values are simulation-deterministic (no wall-clock quantities are
    #: ever published), so the snapshot participates in bit-identity
    #: checks; the ``engine_*`` gauges mirror the profile fields and are
    #: filtered alongside them by ``identity_dict(include_profile=False)``.
    metrics: dict[str, float] = field(default_factory=dict)

    # -- control-variate extensions (defaulted for compatibility) ----------

    #: Covariate observations with analytically known expectations,
    #: emitted on every run (pure counter bookkeeping -- no extra RNG
    #: draws, no trace events, so sample paths and golden traces are
    #: untouched).  Keys: ``arrivals_a`` / ``arrivals_b`` (measured
    #: thinned-Poisson arrival counts) and ``demand_seconds`` (summed
    #: local service demand).  See :mod:`repro.analysis.variance`.
    covariates: dict[str, float] = field(default_factory=dict)
    #: The matching analytic expectations (``p_local * rate * T`` etc.),
    #: computed from the configuration alone.
    covariate_means: dict[str, float] = field(default_factory=dict)

    # -- commit-protocol extensions (defaulted for compatibility) ----------

    #: The commit protocol that produced this run (a name from
    #: :mod:`repro.hybrid.protocols`).
    protocol: str = "optimistic"
    #: Protocol-specific event counters (``record_protocol_event``
    #: mirror: prepare rounds, epoch flushes, blocked-transaction
    #: resolutions, ...).  Empty under the default protocol, which keeps
    #: pre-extraction results field-identical.
    protocol_counters: dict[str, int] = field(default_factory=dict)

    @property
    def shipped_fraction(self) -> float:
        """Fraction of measured class A arrivals routed to the central site."""
        if self.class_a_arrivals == 0:
            return 0.0
        return self.class_a_shipped / self.class_a_arrivals

    @property
    def abort_rate(self) -> float:
        """Aborts per committed transaction."""
        if self.completed == 0:
            return 0.0
        return self.aborts_total / self.completed

    @property
    def availability(self) -> float:
        """Fraction of measured work requests eventually served.

        Committed transactions over committed plus permanently failed
        plus rejected-at-arrival plus shed-by-admission plus
        lost-in-crash.  1.0 for any run without faults.
        """
        denominator = (self.completed + self.txns_failed +
                       self.arrivals_rejected + self.arrivals_shed +
                       self.txns_lost_in_crash)
        if denominator == 0:
            return 1.0
        return self.completed / denominator

    #: Fields that legitimately differ between two otherwise identical
    #: runs (wall-clock timing) -- always excluded from identity
    #: comparisons.
    TIMING_FIELDS = ("wall_clock_seconds", "engine_events_per_sec")
    #: Engine-profile fields: identical for byte-for-byte duplicate runs,
    #: but different when a run carries extra *observer* processes (the
    #: invariant checker's audit loop schedules its own timeouts).
    PROFILE_FIELDS = ("engine_events", "engine_heap_peak")

    def identity_dict(self, *, include_profile: bool = True,
                      include_strategy: bool = True) -> dict:
        """Deep dict of every deterministic field, for bit-identity checks.

        Two runs that followed the same sample path produce equal
        ``identity_dict()`` values; wall-clock-dependent fields are always
        dropped.  ``include_profile=False`` additionally drops the engine
        event/heap counters (use when one run carries read-only observer
        processes); ``include_strategy=False`` drops the strategy label
        (use when comparing differently-named but semantically forced
        routings, e.g. ``static(p=0)`` against ``no-load-sharing``).
        Used by :mod:`repro.verify.differential` and
        :mod:`repro.verify.metamorphic`.
        """
        data = asdict(self)
        for name in self.TIMING_FIELDS:
            data.pop(name, None)
        if not include_profile:
            for name in self.PROFILE_FIELDS:
                data.pop(name, None)
            # The registry mirrors the engine profile as gauges; an
            # observer that schedules its own (read-only) events shifts
            # them exactly like the profile fields, so they are filtered
            # together.
            data["metrics"] = {key: value
                               for key, value in data["metrics"].items()
                               if not key.startswith("engine_")}
        if not include_strategy:
            data.pop("strategy", None)
        return data

    @property
    def decomposition_residual(self) -> float:
        """Relative gap between the phase-mean sum and the mean RT.

        Near zero by construction; a large value indicates an
        instrumentation bug (a phase left open or double-counted).
        """
        if not self.response_time_decomposition or \
                self.mean_response_time == 0:
            return 0.0
        total = sum(self.response_time_decomposition.values())
        return abs(total - self.mean_response_time) / \
            self.mean_response_time


def _phase_stats() -> dict[str, RunningStat]:
    return {phase: RunningStat() for phase in PHASES}


def _phase_means(stats: dict[str, RunningStat]) -> dict[str, float]:
    return {phase: stat.mean for phase, stat in stats.items() if stat.count}


class MetricsCollector:
    """Accumulates statistics during a run and freezes them into a result.

    Every protocol-visible transition flows through this collector, so it
    doubles as the system's trace point: pass a
    :class:`~repro.sim.trace.Tracer` to record a structured event log
    (kinds: ``route``, ``commit``, ``spans``, ``abort``, ``negative-ack``,
    ``message``).  Trace emission is unconditional (not gated on the
    warm-up window) so debugging runs see the start-up transient too.

    The scalar protocol counters live in a
    :class:`~repro.obs.registry.MetricsRegistry` (one is created when
    none is passed): each hook increments a pre-bound registry child,
    and the historical attribute names (``completed``,
    ``aborts_deadlock``, ...) remain available as read-only properties.
    An optional :class:`~repro.obs.audit.RoutingAudit` receives every
    placement decision together with the observation that drove it.
    Both are strictly observational and deterministic.
    """

    def __init__(self, env: "Environment", warmup_time: float,
                 tracer=None, registry: MetricsRegistry | None = None,
                 audit: "RoutingAudit | None" = None):
        self.env = env
        self.warmup_time = warmup_time
        from ..sim.trace import NullTracer

        self.tracer = tracer if tracer is not None else NullTracer()
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.audit = audit

        self.response_all = RunningStat()
        self.response_quantiles = QuantileSet()
        self.response_by_class: dict[TransactionClass, RunningStat] = {
            cls: RunningStat() for cls in TransactionClass}
        self.response_by_kind: dict[TransactionKind, RunningStat] = {
            kind: RunningStat() for kind in TransactionKind}

        # Per-phase response-time decomposition (seconds per txn).
        self.phase_stats = _phase_stats()
        self.phase_by_class: dict[TransactionClass,
                                  dict[str, RunningStat]] = {
            cls: _phase_stats() for cls in TransactionClass}
        self.phase_by_placement: dict[Placement,
                                      dict[str, RunningStat]] = {
            placement: _phase_stats() for placement in Placement}

        self.n_central = TimeWeightedStat()
        self.n_local = TimeWeightedStat()

        # -- registry instruments (children bound once; hooks do one
        # -- attribute add per event).  All are gated on the measurement
        # -- window exactly as the historical plain-int fields were.
        reg = self.registry
        self._completed = reg.counter(
            "txn_completed", "transactions committed in the "
            "measurement window").single
        arrivals = reg.counter(
            "txn_arrivals", "measured arrivals by class",
            labels=("txn_class",))
        self._arrivals_a = arrivals.labels("A")
        self._arrivals_b = arrivals.labels("B")
        self._shipped_a = reg.counter(
            "txn_shipped", "class A arrivals routed to the central "
            "complex").single
        aborts = reg.counter("txn_aborts", "aborts by cause",
                             labels=("cause",))
        self._aborts_deadlock = aborts.labels("deadlock")
        self._aborts_local = aborts.labels("local-invalidated")
        self._aborts_central = aborts.labels("central-invalidated")
        self._nak = reg.counter(
            "auth_negative_acks", "authentication rounds answered "
            "NAK").single
        auth_rounds = reg.counter(
            "auth_rounds", "completed authentication rounds by verdict",
            labels=("verdict",))
        self._auth_granted = auth_rounds.labels("granted")
        self._auth_refused = auth_rounds.labels("refused")
        messages = reg.counter(
            "messages_sent", "protocol messages by direction",
            labels=("direction",))
        self._msg_central = messages.labels("to-central")
        self._msg_sites = messages.labels("to-sites")
        self._routing = reg.counter(
            "routing_decisions", "placement decisions by placement "
            "and reason (counted from simulation start)",
            labels=("placement", "reason"))
        self._response_hist_family = reg.histogram(
            "response_time_seconds", "measured response times by class",
            labels=("txn_class",))
        self._response_hist = {
            cls: self._response_hist_family.labels(cls.value)
            for cls in TransactionClass}

        # Robustness / availability counters (all stay zero without a
        # fault plan -- none of the hooks below fire then).
        self._timed_out = reg.counter(
            "txn_timeouts", "shipments whose retry budget was "
            "exhausted").single
        self._failed_over = reg.counter(
            "txn_failovers", "timed-out class A shipments re-run at "
            "home").single
        self._failed = reg.counter(
            "txn_failures", "transactions abandoned permanently").single
        self._cancelled = reg.counter(
            "txn_cancelled_central", "central executions killed by a "
            "ShipmentCancel").single
        self._fallbacks = reg.counter(
            "fallback_routings", "class A arrivals kept local by "
            "failure awareness").single
        self._rejected = reg.counter(
            "arrivals_rejected", "arrivals turned away by crashed "
            "sites").single
        self._dropped = reg.counter(
            "messages_dropped", "messages lost on degraded links").single
        self._retransmitted = reg.counter(
            "messages_retransmitted", "reliable-channel "
            "retransmissions").single
        self._duplicates = reg.counter(
            "messages_duplicate", "duplicate deliveries discarded").single
        self._faults = reg.counter(
            "fault_events", "fault-episode transitions (applies + "
            "reverts)").single

        # Survivability counters (all stay zero unless the fault plan's
        # recovery policy arms the corresponding protocol).
        self._shed = reg.counter(
            "arrivals_shed", "arrivals shed by bounded admission",
            labels=("node",))
        self._shed_total = 0
        self._lost_in_crash = reg.counter(
            "txns_lost_in_crash", "transactions destroyed with a "
            "site's volatile state").single
        self._deadline_cancelled = reg.counter(
            "txn_deadline_cancels", "shipments cancelled past their "
            "deadline").single
        self._reshipped = reg.counter(
            "txn_reshipped", "class B shipments re-shipped to the "
            "standby after failover").single
        self._breaker = reg.counter(
            "breaker_transitions", "circuit-breaker transitions by "
            "site and new state", labels=("site", "state"))
        self._breaker_total = 0
        self._takeovers = reg.counter(
            "takeover_events", "standby takeover protocol events",
            labels=("event",))
        self._recovery_counter = reg.counter(
            "recoveries", "completed recovery protocols by kind",
            labels=("kind",))
        self._fenced = reg.counter(
            "fenced_frames", "frames discarded from a deposed primary",
            labels=("site",))
        self._auth_deadline = reg.counter(
            "auth_deadline_refusals", "authentication rounds refused "
            "for an expired deadline", labels=("site",))
        # Commit-protocol event counters (prepare rounds, epoch flushes,
        # ...).  The default protocol never fires these, so the registry
        # snapshot -- and with it every golden fingerprint -- is
        # unchanged for pre-existing runs.
        self._protocol_events = reg.counter(
            "protocol_events", "commit-protocol events by kind",
            labels=("event",))
        self.protocol_event_counts: dict[str, int] = {}
        #: Protocol-level recovery timings
        #: (:class:`~repro.sim.faults.RecoveryRecord`).
        self.recoveries: list = []

    # -- recording hooks (called by the sites) ------------------------------

    @property
    def measuring(self) -> bool:
        return self.env.now >= self.warmup_time

    def record_routing(self, txn: Transaction, observation=None,
                       reason: str = "strategy") -> None:
        """The placement decision for ``txn`` was made.

        ``observation`` is the :class:`RoutingObservation` the router
        consulted (``None`` for forced placements) and ``reason`` the
        decision category -- both feed the routing audit and the
        ``routing_decisions`` counter; the trace payload is unchanged.
        """
        # Anchor the lifecycle timeline at the routing decision (which
        # coincides with arrival); time until the first attributed phase
        # falls into the catch-all ``other`` bucket.
        txn.spans.enter(PHASE_OTHER, self.env.now)
        if self.tracer.enabled:
            self.tracer.emit(self.env.now, "route", txn=txn.txn_id,
                             site=txn.home_site,
                             txn_class=txn.txn_class.value,
                             placement=txn.placement.value)
        self._routing.labels(txn.placement.value, reason).inc()
        if self.audit is not None:
            self.audit.record(txn, placement=txn.placement.value,
                              reason=reason, observation=observation,
                              now=self.env.now)
        if not self.measuring:
            return
        if txn.txn_class is TransactionClass.A:
            self._arrivals_a.inc()
            if txn.placement is Placement.SHIPPED:
                self._shipped_a.inc()
        else:
            self._arrivals_b.inc()

    def record_completion(self, txn: Transaction) -> None:
        if self.tracer.enabled:
            self.tracer.emit(self.env.now, "commit", txn=txn.txn_id,
                             site=txn.home_site, txn_kind=txn.kind().value,
                             response=round(txn.response_time, 6),
                             runs=txn.run_count)
            self.tracer.emit(
                self.env.now, "spans", txn=txn.txn_id,
                site=txn.home_site, txn_kind=txn.kind().value,
                response=round(txn.response_time, 6),
                phases={phase: round(seconds, 6) for phase, seconds
                        in zip(PHASES, txn.spans.totals)})
        if not self.measuring:
            return
        self._completed.inc()
        response = txn.response_time
        self._response_hist[txn.txn_class].observe(response)
        self.response_all.add(response)
        self.response_quantiles.add(response)
        self.response_by_class[txn.txn_class].add(response)
        self.response_by_kind[txn.kind()].add(response)
        by_class = self.phase_by_class[txn.txn_class]
        by_placement = self.phase_by_placement[txn.placement]
        for phase, seconds in zip(PHASES, txn.spans.totals):
            self.phase_stats[phase].add(seconds)
            by_class[phase].add(seconds)
            by_placement[phase].add(seconds)

    def record_abort(self, txn: Transaction, cause: str) -> None:
        if self.tracer.enabled:
            self.tracer.emit(self.env.now, "abort", txn=txn.txn_id,
                             site=txn.home_site, cause=cause,
                             run=txn.run_count)
        if not self.measuring:
            return
        if cause == "deadlock":
            self._aborts_deadlock.inc()
        elif cause == "local-invalidated":
            self._aborts_local.inc()
        elif cause == "central-invalidated":
            self._aborts_central.inc()
        else:
            raise ValueError(f"unknown abort cause: {cause}")

    def record_negative_ack(self, txn: Transaction | None = None,
                            sites: tuple[int, ...] = ()) -> None:
        """One authentication round answered NAK.

        ``txn`` is the authenticating transaction and ``sites`` the
        master sites that refused, so the event log can attribute the
        rerun (the counters never needed them, the trace does).
        """
        if self.tracer.enabled:
            self.tracer.emit(self.env.now, "negative-ack",
                             txn=None if txn is None else txn.txn_id,
                             sites=sites)
        if self.measuring:
            self._nak.inc()

    def record_auth_round(self, granted: bool) -> None:
        """One authentication round concluded (registry-only hook).

        Deliberately emits no trace event: the committed golden traces
        hash the exact event stream, so new observability lands in the
        registry, never in the tracer vocabulary.
        """
        if self.measuring:
            (self._auth_granted if granted else self._auth_refused).inc()

    def record_protocol_event(self, event: str) -> None:
        """One commit-protocol event (registry-only hook).

        Like :meth:`record_auth_round` this deliberately emits no trace
        event -- golden traces hash the exact event stream, so
        per-protocol observability (prepare rounds, votes, epoch
        flushes, blocked-transaction resolutions) lands in the registry
        and the result's ``protocol_counters``, never in the tracer
        vocabulary.  Counted unconditionally: protocol rounds are
        structural behaviour, not a warmup-sensitive measurement.
        """
        self._protocol_events.labels(event).inc()
        self.protocol_event_counts[event] = \
            self.protocol_event_counts.get(event, 0) + 1

    def record_message(self, to_central: bool, kind: str | None = None,
                       site: int | None = None) -> None:
        """One protocol message sent (``kind``/``site`` enrich the trace)."""
        if self.tracer.enabled:
            self.tracer.emit(
                self.env.now, "message",
                direction="to-central" if to_central else "to-site",
                message=kind, site=site)
        if not self.measuring:
            return
        if to_central:
            self._msg_central.inc()
        else:
            self._msg_sites.inc()

    # -- robustness hooks (active only under a fault plan) -------------------

    def record_fault(self, kind: str, phase: str,
                     site: int | None = None) -> None:
        """A fault episode was applied or reverted (``phase``).

        Counted unconditionally -- the fault schedule is part of the
        experiment design, not a measured quantity.
        """
        if self.tracer.enabled:
            self.tracer.emit(self.env.now, "fault", fault=kind, phase=phase,
                             site=site)
        self._faults.inc()

    def record_timeout(self, txn: Transaction) -> None:
        """A shipped transaction's response retry budget was exhausted."""
        if self.tracer.enabled:
            self.tracer.emit(self.env.now, "timeout", txn=txn.txn_id,
                             site=txn.home_site,
                             txn_class=txn.txn_class.value)
        if self.measuring:
            self._timed_out.inc()

    def record_failover(self, txn: Transaction) -> None:
        """A timed-out class A shipment re-runs at its home site."""
        if self.tracer.enabled:
            self.tracer.emit(self.env.now, "failover", txn=txn.txn_id,
                             site=txn.home_site)
        if self.audit is not None:
            self.audit.record(txn, placement=Placement.LOCAL.value,
                              reason="failover", now=self.env.now)
        if self.measuring:
            self._failed_over.inc()

    def record_failure(self, txn: Transaction, cause: str) -> None:
        """A transaction was abandoned permanently (never commits)."""
        if self.tracer.enabled:
            self.tracer.emit(self.env.now, "txn-failed", txn=txn.txn_id,
                             site=txn.home_site, cause=cause)
        if self.measuring:
            self._failed.inc()

    def record_cancelled(self, txn: Transaction) -> None:
        """Central killed an execution on a ShipmentCancel."""
        if self.tracer.enabled:
            self.tracer.emit(self.env.now, "cancel", txn=txn.txn_id,
                             site=txn.home_site)
        if self.measuring:
            self._cancelled.inc()

    def record_fallback_routing(self, txn: Transaction,
                                reason: str) -> None:
        """Failure-aware routing kept a class A arrival local."""
        if self.tracer.enabled:
            self.tracer.emit(self.env.now, "fallback", txn=txn.txn_id,
                             site=txn.home_site, reason=reason)
        if self.measuring:
            self._fallbacks.inc()

    def record_rejected_arrival(self, txn: Transaction) -> None:
        """An arrival hit a crashed site and was turned away."""
        if self.tracer.enabled:
            self.tracer.emit(self.env.now, "rejected", txn=txn.txn_id,
                             site=txn.home_site)
        if self.measuring:
            self._rejected.inc()

    def record_drop(self, message) -> None:
        """A degraded link lost a message."""
        if self.tracer.enabled:
            self.tracer.emit(self.env.now, "drop", message=message.kind)
        if self.measuring:
            self._dropped.inc()

    def record_retransmit(self, message) -> None:
        """A reliable channel resent an unacknowledged message."""
        if self.tracer.enabled:
            self.tracer.emit(self.env.now, "retransmit",
                             message=message.kind)
        if self.measuring:
            self._retransmitted.inc()

    def record_duplicate(self, message) -> None:
        """A reliable channel discarded a duplicate delivery."""
        if self.measuring:
            self._duplicates.inc()

    # -- survivability hooks (active only under a recovery policy) ----------

    def record_shed(self, txn: Transaction, node: str) -> None:
        """Bounded admission shed an arrival at ``node``."""
        if self.tracer.enabled:
            self.tracer.emit(self.env.now, "shed", txn=txn.txn_id,
                             site=txn.home_site, node=node)
        if self.measuring:
            self._shed.labels(node).inc()
            self._shed_total += 1

    def record_lost_in_crash(self, txn: Transaction) -> None:
        """A site crash destroyed this in-flight transaction."""
        if self.tracer.enabled:
            self.tracer.emit(self.env.now, "txn-lost", txn=txn.txn_id,
                             site=txn.home_site)
        if self.measuring:
            self._lost_in_crash.inc()

    def record_deadline_cancel(self, txn: Transaction) -> None:
        """A shipment was cancelled because its deadline passed."""
        if self.tracer.enabled:
            self.tracer.emit(self.env.now, "deadline-cancel",
                             txn=txn.txn_id, site=txn.home_site)
        if self.measuring:
            self._deadline_cancelled.inc()

    def record_reship(self, txn: Transaction) -> None:
        """A class B shipment was re-shipped to the standby."""
        if self.tracer.enabled:
            self.tracer.emit(self.env.now, "reship", txn=txn.txn_id,
                             site=txn.home_site)
        if self.measuring:
            self._reshipped.inc()

    def record_breaker(self, site: int, state: str) -> None:
        """A site's circuit breaker changed state.

        Counted unconditionally: breaker state is part of the failure
        timeline, like fault-episode transitions.
        """
        if self.tracer.enabled:
            self.tracer.emit(self.env.now, "breaker", site=site, state=state)
        self._breaker.labels(f"site-{site}", state).inc()
        self._breaker_total += 1

    def record_takeover(self, event: str) -> None:
        """A takeover protocol event (``takeover``/``primary-deposed``/
        ``repoint-...``) occurred.  Counted unconditionally."""
        if self.tracer.enabled:
            self.tracer.emit(self.env.now, "takeover", event=event)
        self._takeovers.labels(event).inc()

    def record_repoint(self, site: int) -> None:
        """A site re-pointed its central routing at the standby."""
        self.record_takeover(f"repoint-site-{site}")

    def record_recovery(self, kind: str, site: int | None,
                        started: float, completed: float) -> None:
        """One recovery protocol (failover or rejoin) completed.

        Recorded unconditionally -- recovery timing is part of the
        experiment design, like the fault schedule itself.
        """
        from ..sim.faults import RecoveryRecord
        if self.tracer.enabled:
            self.tracer.emit(self.env.now, "recovery", recovery=kind,
                             site=site, started=round(started, 6),
                             completed=round(completed, 6))
        self._recovery_counter.labels(kind).inc()
        self.recoveries.append(RecoveryRecord(
            kind=kind, site=site, started=started, completed=completed))

    def record_fenced(self, site: int) -> None:
        """A frame from the deposed primary was discarded (registry-only
        hook: fencing is too frequent for the trace)."""
        self._fenced.labels(f"site-{site}").inc()

    def record_auth_deadline_refusal(self, site: int) -> None:
        """A master refused authentication for an expired deadline
        (registry-only hook)."""
        if self.measuring:
            self._auth_deadline.labels(f"site-{site}").inc()

    def record_population(self, n_local_total: int, n_central: int) -> None:
        """Sample the per-site population time series (called on changes)."""
        self.n_local.record(self.env.now, n_local_total)
        self.n_central.record(self.env.now, n_central)

    # -- historical counter names (read-only registry views) -----------------

    @property
    def completed(self) -> int:
        return int(self._completed.value)

    @property
    def class_a_arrivals(self) -> int:
        return int(self._arrivals_a.value)

    @property
    def class_b_arrivals(self) -> int:
        return int(self._arrivals_b.value)

    @property
    def class_a_shipped(self) -> int:
        return int(self._shipped_a.value)

    @property
    def aborts_deadlock(self) -> int:
        return int(self._aborts_deadlock.value)

    @property
    def aborts_local_invalidated(self) -> int:
        return int(self._aborts_local.value)

    @property
    def aborts_central_invalidated(self) -> int:
        return int(self._aborts_central.value)

    @property
    def auth_negative_acks(self) -> int:
        return int(self._nak.value)

    @property
    def messages_to_central(self) -> int:
        return int(self._msg_central.value)

    @property
    def messages_to_sites(self) -> int:
        return int(self._msg_sites.value)

    @property
    def txns_timed_out(self) -> int:
        return int(self._timed_out.value)

    @property
    def txns_failed_over(self) -> int:
        return int(self._failed_over.value)

    @property
    def txns_failed(self) -> int:
        return int(self._failed.value)

    @property
    def txns_cancelled_central(self) -> int:
        return int(self._cancelled.value)

    @property
    def fallback_routings(self) -> int:
        return int(self._fallbacks.value)

    @property
    def arrivals_rejected(self) -> int:
        return int(self._rejected.value)

    @property
    def messages_dropped(self) -> int:
        return int(self._dropped.value)

    @property
    def messages_retransmitted(self) -> int:
        return int(self._retransmitted.value)

    @property
    def duplicate_messages(self) -> int:
        return int(self._duplicates.value)

    @property
    def fault_events(self) -> int:
        return int(self._faults.value)

    @property
    def arrivals_shed(self) -> int:
        return self._shed_total

    @property
    def txns_lost_in_crash(self) -> int:
        return int(self._lost_in_crash.value)

    @property
    def txns_deadline_cancelled(self) -> int:
        return int(self._deadline_cancelled.value)

    @property
    def txns_reshipped(self) -> int:
        return int(self._reshipped.value)

    @property
    def breaker_transitions(self) -> int:
        return self._breaker_total

    # -- summary -------------------------------------------------------------

    @property
    def aborts_total(self) -> int:
        return (self.aborts_deadlock + self.aborts_local_invalidated +
                self.aborts_central_invalidated)

    def freeze(self, *, total_rate: float, comm_delay: float, strategy: str,
               seed: int, local_utilizations: list[float],
               central_utilization: float,
               mean_local_queue: float,
               mean_central_queue: float,
               telemetry: tuple["TelemetryWindow", ...] = (),
               telemetry_interval: float = 0.0,
               telemetry_windows_dropped: int = 0,
               warmup_adequate: bool | None = None,
               warmup_trend: dict[str, float] | None = None,
               engine_events: int = 0,
               engine_events_per_sec: float = 0.0,
               engine_heap_peak: int = 0,
               wall_clock_seconds: float = 0.0,
               fault_episodes: tuple = (),
               covariates: dict[str, float] | None = None,
               covariate_means: dict[str, float] | None = None,
               protocol: str = "optimistic",
               ) -> SimulationResult:
        """Produce the immutable result for this run."""
        measured_time = max(self.env.now - self.warmup_time, 1e-12)
        mean_local_util = (sum(local_utilizations) /
                           len(local_utilizations)
                           if local_utilizations else 0.0)
        by_class = {cls: stat.mean
                    for cls, stat in self.response_by_class.items()
                    if stat.count}
        by_kind = {kind: stat.mean
                   for kind, stat in self.response_by_kind.items()
                   if stat.count}
        decomposition = _phase_means(self.phase_stats)
        decomposition_by_class = {
            cls: _phase_means(stats)
            for cls, stats in self.phase_by_class.items()
            if any(stat.count for stat in stats.values())}
        decomposition_by_placement = {
            placement: _phase_means(stats)
            for placement, stats in self.phase_by_placement.items()
            if any(stat.count for stat in stats.values())}
        recoveries = tuple(self.recoveries)
        durations = [record.duration for record in recoveries]
        mttr = sum(durations) / len(durations) if durations else None
        episodes = tuple(fault_episodes)
        mtbf = None
        if episodes:
            downtime = sum(max(episode.end - episode.start, 0.0)
                           for episode in episodes)
            uptime = max(self.env.now - downtime, 0.0)
            mtbf = uptime / len(episodes)
        return SimulationResult(
            total_rate=total_rate,
            comm_delay=comm_delay,
            strategy=strategy,
            seed=seed,
            mean_response_time=self.response_all.mean,
            response_time_by_class=by_class,
            response_time_by_kind=by_kind,
            response_time_percentiles=self.response_quantiles.summary(),
            throughput=self.completed / measured_time,
            completed=self.completed,
            class_a_arrivals=self.class_a_arrivals,
            class_a_shipped=self.class_a_shipped,
            aborts_total=self.aborts_total,
            aborts_deadlock=self.aborts_deadlock,
            aborts_local_invalidated=self.aborts_local_invalidated,
            aborts_central_invalidated=self.aborts_central_invalidated,
            auth_negative_acks=self.auth_negative_acks,
            mean_local_utilization=mean_local_util,
            mean_central_utilization=central_utilization,
            mean_local_queue_length=mean_local_queue,
            mean_central_queue_length=mean_central_queue,
            messages_to_central=self.messages_to_central,
            messages_to_sites=self.messages_to_sites,
            response_time_decomposition=decomposition,
            decomposition_by_class=decomposition_by_class,
            decomposition_by_placement=decomposition_by_placement,
            telemetry=telemetry,
            telemetry_interval=telemetry_interval,
            telemetry_windows_dropped=telemetry_windows_dropped,
            warmup_adequate=warmup_adequate,
            warmup_trend=dict(warmup_trend or {}),
            engine_events=engine_events,
            engine_events_per_sec=engine_events_per_sec,
            engine_heap_peak=engine_heap_peak,
            wall_clock_seconds=wall_clock_seconds,
            txns_timed_out=self.txns_timed_out,
            txns_failed_over=self.txns_failed_over,
            txns_failed=self.txns_failed,
            txns_cancelled_central=self.txns_cancelled_central,
            fallback_routings=self.fallback_routings,
            arrivals_rejected=self.arrivals_rejected,
            messages_dropped=self.messages_dropped,
            messages_retransmitted=self.messages_retransmitted,
            duplicate_messages=self.duplicate_messages,
            fault_events=self.fault_events,
            fault_episodes=episodes,
            arrivals_shed=self.arrivals_shed,
            txns_lost_in_crash=self.txns_lost_in_crash,
            txns_deadline_cancelled=self.txns_deadline_cancelled,
            txns_reshipped=self.txns_reshipped,
            breaker_transitions=self.breaker_transitions,
            failover_takeovers=sum(1 for record in recoveries
                                   if record.kind == "failover"),
            site_rejoins=sum(1 for record in recoveries
                             if record.kind == "rejoin"),
            recoveries=recoveries,
            mttr=mttr,
            mtbf=mtbf,
            metrics=self.registry.snapshot(),
            covariates=dict(covariates or {}),
            covariate_means=dict(covariate_means or {}),
            protocol=protocol,
            protocol_counters=dict(self.protocol_event_counts),
        )
