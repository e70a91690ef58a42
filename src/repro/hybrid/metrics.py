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
* the robustness and survivability counters of fault-plan runs;
* windowed time-series telemetry and engine profiling, attached by the
  system at freeze time (see :mod:`repro.hybrid.telemetry`).

:data:`EVENTS` is the collector's event vocabulary: one row per event
giving the trace kind it is emitted as, the registry family it counts
into, whether that count is gated on the warm-up window, and the
:class:`SimulationResult` field that reads the family back.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, NamedTuple

from ..db.transaction import (
    Placement,
    Transaction,
    TransactionClass,
    TransactionKind,
)
from ..obs.registry import MetricsRegistry
from ..sim.faults import RecoveryRecord
from ..sim.spans import PHASE_OTHER, PHASES
from ..sim.stats import RunningStat, percentile_summary
from ..sim.trace import NullTracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.audit import RoutingAudit
    from ..sim.engine import Environment
    from .telemetry import TelemetryWindow

__all__ = ["EVENTS", "Event", "MetricsCollector", "SimulationResult"]


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
    #: Exact percentiles of the measured response times: keys
    #: p50/p90/p95/p99/min/max (NaN when nothing completed).
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

    #: Arrivals shed because a rejoining site's admission queue was full.
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

    # -- commit-protocol extensions (defaulted for compatibility) ----------

    #: The commit protocol that produced this run (a name from
    #: :data:`repro.hybrid.config.PROTOCOLS`).
    protocol: str = "optimistic"
    #: Protocol-specific event counters (the ``protocol_events`` family:
    #: prepare rounds, epoch flushes, blocked-transaction resolutions,
    #: ...).  Empty under the default protocol, which keeps
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
        plus rejected-at-arrival plus shed-at-rejoin plus
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


class Event(NamedTuple):
    """One row of the collector's event table (see :data:`EVENTS`)."""

    #: Trace kind the event is emitted as; ``None`` for a registry-only
    #: row (too frequent for the trace, or kept out of the trace
    #: vocabulary the golden digests pin).
    kind: str | None
    #: Registry family the event feeds, its help text and label names.
    family: str
    help: str
    labels: tuple[str, ...] = ()
    #: Counted only inside the measurement window.  Ungated rows count
    #: from simulation start: they describe the experiment's design
    #: (fault schedule, recovery protocols) or its structure (routing,
    #: commit-protocol rounds), not a steady-state measurement.
    gated: bool = True
    #: :class:`SimulationResult` field that reads the family's total.
    field: str | None = None
    #: ``(label value, SimulationResult field)`` pairs reading single
    #: children of a one-label family.
    split: tuple[tuple[str, str], ...] = ()
    #: Registry instrument kind: ``counter`` or ``histogram``.
    instrument: str = "counter"


#: The collector's event vocabulary: every trace kind it emits and every
#: registry family it feeds.  Traces are never gated, so debugging runs
#: see the start-up transient too; the ``gated`` flag governs the
#: counter only.  The ``route``, ``arrival``, ``shipped``, ``commit``,
#: ``spans``, ``abort``, ``auth-round`` and ``message`` rows are the hot
#: path and are recorded by hand-written hooks with pre-bound children;
#: every other row is recorded through ``MetricsCollector._record``.
EVENTS: dict[str, Event] = {
    "route": Event(
        "route", "routing_decisions", "placement decisions by placement "
        "and reason (counted from simulation start)",
        ("placement", "reason"), gated=False),
    "arrival": Event(
        None, "txn_arrivals", "measured arrivals by class",
        ("txn_class",), split=(("A", "class_a_arrivals"),)),
    "shipped": Event(
        None, "txn_shipped", "class A arrivals routed to the central "
        "complex", field="class_a_shipped"),
    "commit": Event(
        "commit", "txn_completed", "transactions committed in the "
        "measurement window", field="completed"),
    "spans": Event(
        "spans", "response_time_seconds", "measured response times by "
        "class", ("txn_class",), instrument="histogram"),
    "abort": Event(
        "abort", "txn_aborts", "aborts by cause", ("cause",),
        field="aborts_total",
        split=(("deadlock", "aborts_deadlock"),
               ("local-invalidated", "aborts_local_invalidated"),
               ("central-invalidated", "aborts_central_invalidated"))),
    "auth-round": Event(
        None, "auth_rounds", "completed authentication rounds by "
        "verdict", ("verdict",)),
    "message": Event(
        "message", "messages_sent", "protocol messages by direction",
        ("direction",),
        split=(("to-central", "messages_to_central"),
               ("to-sites", "messages_to_sites"))),
    # Cold rows of the paper's transaction path.
    "negative-ack": Event(
        "negative-ack", "auth_negative_acks", "authentication rounds "
        "answered NAK", field="auth_negative_acks"),
    "protocol": Event(
        None, "protocol_events", "commit-protocol events by kind",
        ("event",), gated=False),
    # Robustness rows: they fire only under a fault plan.
    "fault": Event(
        "fault", "fault_events", "fault-episode transitions (applies + "
        "reverts)", gated=False, field="fault_events"),
    "timeout": Event(
        "timeout", "txn_timeouts", "shipments whose retry budget was "
        "exhausted", field="txns_timed_out"),
    "failover": Event(
        "failover", "txn_failovers", "timed-out class A shipments re-run "
        "at home", field="txns_failed_over"),
    "txn-failed": Event(
        "txn-failed", "txn_failures", "transactions abandoned "
        "permanently", field="txns_failed"),
    "cancel": Event(
        "cancel", "txn_cancelled_central", "central executions killed by "
        "a ShipmentCancel", field="txns_cancelled_central"),
    "fallback": Event(
        "fallback", "fallback_routings", "class A arrivals kept local by "
        "failure awareness", field="fallback_routings"),
    "rejected": Event(
        "rejected", "arrivals_rejected", "arrivals turned away by crashed "
        "sites", field="arrivals_rejected"),
    "drop": Event(
        "drop", "messages_dropped", "messages lost on degraded links",
        field="messages_dropped"),
    "retransmit": Event(
        "retransmit", "messages_retransmitted", "reliable-channel "
        "retransmissions", field="messages_retransmitted"),
    "duplicate": Event(
        None, "messages_duplicate", "duplicate deliveries discarded",
        field="duplicate_messages"),
    # Survivability rows: they fire only when the fault plan's recovery
    # policy arms the corresponding protocol.
    "shed": Event(
        "shed", "arrivals_shed", "arrivals shed by bounded admission",
        ("node",), field="arrivals_shed"),
    "txn-lost": Event(
        "txn-lost", "txns_lost_in_crash", "transactions destroyed with a "
        "site's volatile state", field="txns_lost_in_crash"),
    "deadline-cancel": Event(
        "deadline-cancel", "txn_deadline_cancels", "shipments cancelled "
        "past their deadline", field="txns_deadline_cancelled"),
    "reship": Event(
        "reship", "txn_reshipped", "class B shipments re-shipped to the "
        "standby after failover", field="txns_reshipped"),
    "breaker": Event(
        "breaker", "breaker_transitions", "circuit-breaker transitions by "
        "site and new state", ("site", "state"), gated=False,
        field="breaker_transitions"),
    "takeover": Event(
        "takeover", "takeover_events", "standby takeover protocol events",
        ("event",), gated=False),
    "recovery": Event(
        "recovery", "recoveries", "completed recovery protocols by kind",
        ("kind",), gated=False),
    "fenced": Event(
        None, "fenced_frames", "frames discarded from a deposed primary",
        ("site",), gated=False),
    "auth-deadline": Event(
        None, "auth_deadline_refusals", "authentication rounds refused "
        "for an expired deadline", ("site",)),
}


def _phase_stats() -> dict[str, RunningStat]:
    return {phase: RunningStat() for phase in PHASES}


def _phase_means(stats: dict[str, RunningStat]) -> dict[str, float]:
    return {phase: stat.mean for phase, stat in stats.items() if stat.count}


def _decompositions(groups: dict) -> dict:
    """Phase means per group, for the groups that saw a completion."""
    return {key: _phase_means(stats) for key, stats in groups.items()
            if any(stat.count for stat in stats.values())}


class MetricsCollector:
    """Accumulates statistics during a run and freezes them into a result.

    Every protocol-visible transition flows through one ``record_*``
    hook, and :data:`EVENTS` says what each one does: the trace kind it
    emits to the optional :class:`~repro.sim.trace.Tracer`, the
    family it increments in the collector's own
    :class:`~repro.obs.registry.MetricsRegistry`, and whether that
    increment is gated on the warm-up window.  :meth:`counts` reads the
    :class:`SimulationResult` counters back from the registry.  An
    optional :class:`~repro.obs.audit.RoutingAudit` receives every
    placement decision together with the observation that drove it.
    All of it is strictly observational and deterministic.
    """

    def __init__(self, env: "Environment", warmup_time: float,
                 tracer=None, audit: "RoutingAudit | None" = None):
        self.env = env
        self.warmup_time = warmup_time
        self.tracer = tracer if tracer is not None else NullTracer()
        self.registry = MetricsRegistry()
        self.audit = audit

        self.response_all = RunningStat()
        #: Every measured response time, for the exact percentiles.
        self.response_times: list[float] = []
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

        self._families = {
            name: getattr(self.registry, row.instrument)(
                row.family, row.help, labels=row.labels)
            for name, row in EVENTS.items()}
        # Hot rows: children bound once, so a hook does one add.
        family = self._families
        self._routing = family["route"]
        self._arrivals = {cls: family["arrival"].labels(cls.value)
                          for cls in TransactionClass}
        self._shipped_a = family["shipped"].single
        self._completed = family["commit"].single
        self._response_hist = {cls: family["spans"].labels(cls.value)
                               for cls in TransactionClass}
        self._aborts = {cause: family["abort"].labels(cause)
                        for cause, _ in EVENTS["abort"].split}
        self._auth_rounds = {True: family["auth-round"].labels("granted"),
                             False: family["auth-round"].labels("refused")}
        self._messages = {True: family["message"].labels("to-central"),
                          False: family["message"].labels("to-sites")}
        #: Protocol-level recovery timings
        #: (:class:`~repro.sim.faults.RecoveryRecord`).
        self.recoveries: list = []

    @property
    def measuring(self) -> bool:
        return self.env.now >= self.warmup_time

    def _record(self, name: str, labels: tuple = (), /, **payload) -> None:
        """Record one event of a cold :data:`EVENTS` row: trace it, then
        count it under ``labels`` unless the row is gated and the run
        is still warming up."""
        row = EVENTS[name]
        if row.kind is not None and self.tracer.enabled:
            self.tracer.emit(self.env.now, row.kind, **payload)
        if not row.gated or self.env.now >= self.warmup_time:
            self._families[name].labels(*labels).inc()

    # -- hot rows -----------------------------------------------------------

    def record_routing(self, txn: Transaction, observation=None,
                       reason: str = "strategy") -> None:
        """The placement decision for ``txn`` was made.

        ``observation`` is the :class:`RoutingObservation` the router
        consulted (``None`` for forced placements) and ``reason`` the
        decision category; both feed the routing audit.
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
        self._arrivals[txn.txn_class].inc()
        if txn.placement is Placement.SHIPPED:
            self._shipped_a.inc()

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
        self.response_times.append(response)
        self.response_by_class[txn.txn_class].add(response)
        self.response_by_kind[txn.kind()].add(response)
        by_class = self.phase_by_class[txn.txn_class]
        by_placement = self.phase_by_placement[txn.placement]
        for phase, seconds in zip(PHASES, txn.spans.totals):
            self.phase_stats[phase].add(seconds)
            by_class[phase].add(seconds)
            by_placement[phase].add(seconds)

    def record_abort(self, txn: Transaction, cause: str) -> None:
        counter = self._aborts.get(cause)
        if counter is None:
            raise ValueError(f"unknown abort cause: {cause}")
        if self.tracer.enabled:
            self.tracer.emit(self.env.now, "abort", txn=txn.txn_id,
                             site=txn.home_site, cause=cause,
                             run=txn.run_count)
        if self.measuring:
            counter.inc()

    def record_auth_round(self, granted: bool) -> None:
        """One authentication round concluded (registry-only)."""
        if self.measuring:
            self._auth_rounds[granted].inc()

    def record_message(self, to_central: bool, kind: str | None = None,
                       site: int | None = None) -> None:
        """One protocol message sent (``kind``/``site`` enrich the trace)."""
        if self.tracer.enabled:
            self.tracer.emit(
                self.env.now, "message",
                direction="to-central" if to_central else "to-site",
                message=kind, site=site)
        if self.measuring:
            self._messages[to_central].inc()

    # -- cold rows ----------------------------------------------------------

    def record_negative_ack(self, txn: Transaction | None = None,
                            sites: tuple[int, ...] = ()) -> None:
        """One authentication round answered NAK by the master ``sites``."""
        self._record("negative-ack",
                     txn=None if txn is None else txn.txn_id, sites=sites)

    def record_protocol_event(self, event: str) -> None:
        """One commit-protocol event (prepare round, vote, epoch flush,
        blocked-transaction resolution, ...)."""
        self._record("protocol", (event,))

    def record_fault(self, kind: str, phase: str,
                     site: int | None = None) -> None:
        """A fault episode was applied or reverted (``phase``)."""
        self._record("fault", fault=kind, phase=phase, site=site)

    def record_timeout(self, txn: Transaction) -> None:
        """A shipped transaction's response retry budget was exhausted."""
        self._record("timeout", txn=txn.txn_id, site=txn.home_site,
                     txn_class=txn.txn_class.value)

    def record_failover(self, txn: Transaction) -> None:
        """A timed-out class A shipment re-runs at its home site."""
        self._record("failover", txn=txn.txn_id, site=txn.home_site)
        if self.audit is not None:
            self.audit.record(txn, placement=Placement.LOCAL.value,
                              reason="failover", now=self.env.now)

    def record_failure(self, txn: Transaction, cause: str) -> None:
        """A transaction was abandoned permanently (never commits)."""
        self._record("txn-failed", txn=txn.txn_id, site=txn.home_site,
                     cause=cause)

    def record_cancelled(self, txn: Transaction) -> None:
        """Central killed an execution on a ShipmentCancel."""
        self._record("cancel", txn=txn.txn_id, site=txn.home_site)

    def record_fallback_routing(self, txn: Transaction,
                                reason: str) -> None:
        """Failure-aware routing kept a class A arrival local."""
        self._record("fallback", txn=txn.txn_id, site=txn.home_site,
                     reason=reason)

    def record_rejected_arrival(self, txn: Transaction) -> None:
        """An arrival hit a crashed site and was turned away."""
        self._record("rejected", txn=txn.txn_id, site=txn.home_site)

    def record_drop(self, message) -> None:
        """A degraded link lost a message."""
        self._record("drop", message=message.kind)

    def record_retransmit(self, message) -> None:
        """A reliable channel resent an unacknowledged message."""
        self._record("retransmit", message=message.kind)

    def record_duplicate(self, message) -> None:
        """A reliable channel discarded a duplicate delivery."""
        self._record("duplicate")

    def record_shed(self, txn: Transaction, node: str) -> None:
        """Bounded admission shed an arrival at ``node``."""
        self._record("shed", (node,), txn=txn.txn_id, site=txn.home_site,
                     node=node)

    def record_lost_in_crash(self, txn: Transaction) -> None:
        """A site crash destroyed this in-flight transaction."""
        self._record("txn-lost", txn=txn.txn_id, site=txn.home_site)

    def record_deadline_cancel(self, txn: Transaction) -> None:
        """A shipment was cancelled because its deadline passed."""
        self._record("deadline-cancel", txn=txn.txn_id, site=txn.home_site)

    def record_reship(self, txn: Transaction) -> None:
        """A class B shipment was re-shipped to the standby."""
        self._record("reship", txn=txn.txn_id, site=txn.home_site)

    def record_breaker(self, site: int, state: str) -> None:
        """A site's circuit breaker changed state."""
        self._record("breaker", (f"site-{site}", state), site=site,
                     state=state)

    def record_takeover(self, event: str) -> None:
        """A takeover protocol event (``takeover``, ``primary-deposed``,
        ``repoint-site-N``) occurred."""
        self._record("takeover", (event,), event=event)

    def record_recovery(self, kind: str, site: int | None,
                        started: float, completed: float) -> None:
        """One recovery protocol (failover or rejoin) completed."""
        self._record("recovery", (kind,), recovery=kind, site=site,
                     started=round(started, 6),
                     completed=round(completed, 6))
        self.recoveries.append(RecoveryRecord(
            kind=kind, site=site, started=started, completed=completed))

    def record_fenced(self, site: int) -> None:
        """A frame from the deposed primary was discarded."""
        self._record("fenced", (f"site-{site}",))

    def record_auth_deadline_refusal(self, site: int) -> None:
        """A master refused authentication for an expired deadline."""
        self._record("auth-deadline", (f"site-{site}",))

    # -- summary -------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """The :class:`SimulationResult` counter fields, read from the
        registry families named by :data:`EVENTS`."""
        counts = {}
        for name, row in EVENTS.items():
            family = self._families[name]
            if row.field is not None:
                counts[row.field] = int(family.total())
            for value, field_name in row.split:
                counts[field_name] = int(family.labels(value).value)
        return counts

    def freeze(self, *, local_utilizations: list[float],
               central_utilization: float, mean_local_queue: float,
               mean_central_queue: float, fault_episodes: tuple = (),
               **fields) -> SimulationResult:
        """Produce the immutable result for this run.

        ``fields`` are the :class:`SimulationResult` fields the system
        measures itself (rate, strategy, seed, telemetry, engine profile,
        protocol); they pass through unchanged.
        """
        counts = self.counts()
        measured_time = max(self.env.now - self.warmup_time, 1e-12)
        recoveries = tuple(self.recoveries)
        durations = [record.duration for record in recoveries]
        episodes = tuple(fault_episodes)
        downtime = sum(max(episode.end - episode.start, 0.0)
                       for episode in episodes)
        return SimulationResult(
            mean_response_time=self.response_all.mean,
            response_time_by_class={
                cls: stat.mean for cls, stat
                in self.response_by_class.items() if stat.count},
            response_time_by_kind={
                kind: stat.mean for kind, stat
                in self.response_by_kind.items() if stat.count},
            response_time_percentiles=percentile_summary(
                self.response_times),
            throughput=counts["completed"] / measured_time,
            mean_local_utilization=(
                sum(local_utilizations) / len(local_utilizations)
                if local_utilizations else 0.0),
            mean_central_utilization=central_utilization,
            mean_local_queue_length=mean_local_queue,
            mean_central_queue_length=mean_central_queue,
            response_time_decomposition=_phase_means(self.phase_stats),
            decomposition_by_class=_decompositions(self.phase_by_class),
            decomposition_by_placement=_decompositions(
                self.phase_by_placement),
            fault_episodes=episodes,
            failover_takeovers=sum(1 for record in recoveries
                                   if record.kind == "failover"),
            site_rejoins=sum(1 for record in recoveries
                             if record.kind == "rejoin"),
            recoveries=recoveries,
            mttr=sum(durations) / len(durations) if durations else None,
            mtbf=(max(self.env.now - downtime, 0.0) / len(episodes)
                  if episodes else None),
            metrics=self.registry.snapshot(),
            protocol_counters={
                event: int(child.value) for (event,), child
                in self._families["protocol"].children.items()},
            **counts,
            **fields,
        )
