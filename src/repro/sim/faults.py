"""Deterministic, seeded fault injection for hybrid-system simulations.

The paper's model assumes a perfect environment; this module supplies
the machinery to take it away on a schedule.  A :class:`FaultPlan` is an
immutable list of typed :class:`FaultEpisode` entries on the simulated
clock:

* ``central-outage``   -- the central complex becomes unreachable: every
  site<->central link drops all traffic for the episode (messages already
  in flight still arrive -- an outage severs the medium, it does not
  vaporise propagating signals);
* ``site-crash``       -- one local site stops accepting arrivals and its
  links go dark; transactions already running there continue (a modelling
  simplification documented in ``docs/ROBUSTNESS.md``);
* ``link-degradation`` -- the links of one site (or all sites) drop
  messages with a given probability and their delay is scaled and
  jittered;
* ``cpu-slowdown``     -- the CPU service times of the central complex
  (or one site) stretch by a factor.

A :class:`FaultInjector` process applies and reverts episodes at runtime.
Overlapping episodes compose: the effective state of every link and CPU
is recomputed from the currently active set (most degraded wins), so a
revert never accidentally heals a resource another episode still holds
down.

All randomness (drop decisions, jitter) flows from named
:class:`~repro.sim.rng.RandomStreams` substreams keyed by link name, so
two runs with the same seed and the same plan are bit-identical -- and a
run with an *empty* plan never touches a random stream, schedules no
events, and is bit-identical to a run without any plan at all.

:class:`RetryPolicy` collects the protocol-hardening knobs (channel
retransmission timeouts, the transaction-level shipment retry budget and
the snapshot staleness bound) so :class:`~repro.hybrid.config.SystemConfig`
-- and therefore every existing result-cache key -- stays untouched.
:class:`RecoveryPolicy` does the same for the recovery subsystem
(hot-standby failover, site rejoin with catch-up, and overload control);
all of its features default to *off*, and a plan whose recovery policy
is disabled serialises exactly as before, so failover-disabled runs stay
bit-identical to the pre-recovery behaviour.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hybrid.system import HybridSystem

__all__ = [
    "CENTRAL_OUTAGE", "SITE_CRASH", "LINK_DEGRADATION", "CPU_SLOWDOWN",
    "FAULT_KINDS", "FaultEpisode", "RetryPolicy", "RecoveryPolicy",
    "FaultPlan", "FaultInjector", "EpisodeReport", "RecoveryRecord",
    "episode_reports", "effective_central_state", "effective_site_state",
    "standard_outage_plan", "lossy_links_plan", "site_crash_plan",
    "chaos_plan", "failover_outage_plan", "rejoin_crash_plan",
    "breaker_flap_plan", "NAMED_PLANS", "resolve_fault_plan",
]

CENTRAL_OUTAGE = "central-outage"
SITE_CRASH = "site-crash"
LINK_DEGRADATION = "link-degradation"
CPU_SLOWDOWN = "cpu-slowdown"

FAULT_KINDS = (CENTRAL_OUTAGE, SITE_CRASH, LINK_DEGRADATION, CPU_SLOWDOWN)


@dataclass(frozen=True)
class FaultEpisode:
    """One scheduled fault: a kind, a target, a window and parameters.

    ``site`` selects the target where it matters: the crashing site for
    ``site-crash``; one site's link pair for ``link-degradation`` (or
    ``None`` for every pair); the slowed site for ``cpu-slowdown`` (or
    ``None`` for the central complex).
    """

    kind: str
    start: float
    duration: float
    site: int | None = None
    #: link-degradation parameters
    drop_probability: float = 0.0
    jitter: float = 0.0
    delay_factor: float = 1.0
    #: cpu-slowdown parameter (service-time multiplier, > 1 is slower)
    slowdown: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {FAULT_KINDS}")
        if self.start < 0 or self.duration <= 0:
            raise ValueError(
                f"episode window must satisfy start >= 0, duration > 0 "
                f"(got start={self.start}, duration={self.duration})")
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ValueError(
                f"drop_probability must be in [0, 1], "
                f"got {self.drop_probability}")
        if self.jitter < 0:
            raise ValueError(f"negative jitter {self.jitter}")
        if self.delay_factor <= 0:
            raise ValueError(
                f"delay_factor must be positive, got {self.delay_factor}")
        if self.slowdown <= 0:
            raise ValueError(
                f"slowdown must be positive, got {self.slowdown}")
        if self.kind == SITE_CRASH and self.site is None:
            raise ValueError("site-crash episodes need a target site")

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class RetryPolicy:
    """Protocol-hardening parameters used when a fault plan is active.

    ``message_timeout``/``backoff``/``max_message_timeout`` drive the
    reliable channel's retransmission timers (unbounded retries, capped
    backoff).  ``shipment_timeout``/``shipment_attempts`` bound the
    *transaction-level* wait for a shipped transaction's response: after
    the budget is exhausted the home site suspects the central complex,
    cancels the shipment, and -- for class A -- falls back to local
    execution.  ``snapshot_max_age`` ages out stale central state: a
    site whose :class:`~repro.hybrid.protocol.CentralSnapshot` is older
    routes class A work locally instead of trusting it.
    """

    message_timeout: float = 1.0
    backoff: float = 2.0
    max_message_timeout: float = 8.0
    shipment_timeout: float = 2.0
    shipment_attempts: int = 3
    snapshot_max_age: float = 10.0

    def __post_init__(self) -> None:
        if self.message_timeout <= 0:
            raise ValueError(
                f"message_timeout must be positive, "
                f"got {self.message_timeout}")
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {self.backoff}")
        if self.max_message_timeout < self.message_timeout:
            raise ValueError("max_message_timeout < message_timeout")
        if self.shipment_timeout <= 0 or self.shipment_attempts < 1:
            raise ValueError(
                f"invalid shipment retry budget "
                f"(timeout {self.shipment_timeout}, "
                f"attempts {self.shipment_attempts})")
        if self.snapshot_max_age <= 0:
            raise ValueError(
                f"snapshot_max_age must be positive, "
                f"got {self.snapshot_max_age}")


@dataclass(frozen=True)
class RecoveryPolicy:
    """Recovery and overload-control knobs (everything defaults to off).

    Like :class:`RetryPolicy`, this rides on the :class:`FaultPlan`
    rather than on :class:`~repro.hybrid.config.SystemConfig`, so plain
    runs and existing cache keys are untouched.  Three independent
    feature groups:

    * ``failover`` -- wire a hot-standby central that receives the
      primary's update stream over a reliable log channel, detects
      primary death by heartbeat lease (``heartbeat_interval`` /
      ``lease_timeout``) and deterministically takes over
      (``instr_takeover`` CPU instructions, ``instr_log_replay`` per
      shipped log record applied).
    * ``rejoin`` -- a crashed site loses its volatile state (running
      transactions, lock table, replica, update buffers) and on episode
      end runs an explicit catch-up: snapshot request to the active
      central (``instr_snapshot`` to build, ``instr_snapshot_apply`` to
      install) before queued arrivals are admitted.
      ``admission_limit`` > 0 bounds the queue of arrivals a crashed
      site holds until catch-up ends (overflow is shed); it has no
      effect without ``rejoin``.  It once also bounded every node's
      active set, which the overload-control factorial in
      ``docs/ROBUSTNESS.md`` rejected; the field stays so that saved
      JSON plans still load.
    * overload control -- ``deadline`` > 0 stamps every transaction
      with an end-to-end deadline propagated through shipment/auth
      messages and cancelled early via the ``ShipmentCancel``
      handshake;
      ``breaker_threshold`` > 0 arms a circuit breaker on the
      site->central path that opens after that many consecutive
      shipment timeouts and half-opens after ``breaker_cooldown``
      seconds, admitting probe shipments with probability
      ``breaker_probe`` drawn from the named ``breaker:site-N`` stream.
    """

    failover: bool = False
    heartbeat_interval: float = 0.5
    lease_timeout: float = 2.0
    instr_takeover: int = 150_000
    instr_log_replay: int = 15_000
    rejoin: bool = False
    instr_snapshot: int = 60_000
    instr_snapshot_apply: int = 60_000
    admission_limit: int = 0
    deadline: float = 0.0
    breaker_threshold: int = 0
    breaker_cooldown: float = 4.0
    breaker_probe: float = 0.5

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be positive, "
                f"got {self.heartbeat_interval}")
        if self.lease_timeout <= self.heartbeat_interval:
            raise ValueError(
                f"lease_timeout ({self.lease_timeout}) must exceed "
                f"heartbeat_interval ({self.heartbeat_interval})")
        for name in ("instr_takeover", "instr_log_replay",
                     "instr_snapshot", "instr_snapshot_apply"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.admission_limit < 0:
            raise ValueError(
                f"admission_limit must be >= 0, got {self.admission_limit}")
        if self.deadline < 0:
            raise ValueError(f"deadline must be >= 0, got {self.deadline}")
        if self.breaker_threshold < 0:
            raise ValueError(
                f"breaker_threshold must be >= 0, "
                f"got {self.breaker_threshold}")
        if self.breaker_cooldown <= 0:
            raise ValueError(
                f"breaker_cooldown must be positive, "
                f"got {self.breaker_cooldown}")
        if not 0.0 < self.breaker_probe <= 1.0:
            raise ValueError(
                f"breaker_probe must be in (0, 1], "
                f"got {self.breaker_probe}")


@dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of fault episodes plus the retry policy."""

    episodes: tuple[FaultEpisode, ...] = ()
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    recovery: RecoveryPolicy = field(default_factory=RecoveryPolicy)

    def __post_init__(self) -> None:
        object.__setattr__(self, "episodes", tuple(self.episodes))

    @staticmethod
    def empty() -> "FaultPlan":
        return FaultPlan()

    @property
    def is_empty(self) -> bool:
        return not self.episodes

    def scaled(self, factor: float) -> "FaultPlan":
        """Stretch or shrink every episode's schedule by ``factor``."""
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        return replace(self, episodes=tuple(
            replace(ep, start=ep.start * factor,
                    duration=ep.duration * factor)
            for ep in self.episodes))

    def with_recovery(self, recovery: RecoveryPolicy) -> "FaultPlan":
        """The same schedule with a different recovery policy."""
        return replace(self, recovery=recovery)

    # -- serialisation -------------------------------------------------------

    def as_dict(self) -> dict:
        """Canonical plain-data rendering (cache keys, JSON export).

        The ``recovery`` block is emitted only when the policy differs
        from the all-defaults one, so plans that predate the recovery
        subsystem keep byte-identical renderings (and JSON round-trip
        stays the identity in both directions).
        """
        data = {
            "episodes": [
                {
                    "kind": ep.kind, "start": ep.start,
                    "duration": ep.duration, "site": ep.site,
                    "drop_probability": ep.drop_probability,
                    "jitter": ep.jitter,
                    "delay_factor": ep.delay_factor,
                    "slowdown": ep.slowdown,
                }
                for ep in self.episodes
            ],
            "retry": {
                "message_timeout": self.retry.message_timeout,
                "backoff": self.retry.backoff,
                "max_message_timeout": self.retry.max_message_timeout,
                "shipment_timeout": self.retry.shipment_timeout,
                "shipment_attempts": self.retry.shipment_attempts,
                "snapshot_max_age": self.retry.snapshot_max_age,
            },
        }
        if self.recovery != RecoveryPolicy():
            data["recovery"] = {
                name: getattr(self.recovery, name)
                for name in ("failover", "heartbeat_interval",
                             "lease_timeout", "instr_takeover",
                             "instr_log_replay", "rejoin",
                             "instr_snapshot", "instr_snapshot_apply",
                             "admission_limit", "deadline",
                             "breaker_threshold", "breaker_cooldown",
                             "breaker_probe")
            }
        return data

    @staticmethod
    def from_dict(data: dict) -> "FaultPlan":
        episodes = tuple(FaultEpisode(**entry)
                         for entry in data.get("episodes", ()))
        retry = RetryPolicy(**data.get("retry", {}))
        recovery = RecoveryPolicy(**data.get("recovery", {}))
        return FaultPlan(episodes=episodes, retry=retry, recovery=recovery)

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "FaultPlan":
        return FaultPlan.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# Canned plans.  Schedules are phrased relative to the run's horizon so the
# same plan name works at any --scale.
# ---------------------------------------------------------------------------


def standard_outage_plan(warmup_time: float = 30.0,
                         measure_time: float = 90.0,
                         retry: RetryPolicy | None = None) -> FaultPlan:
    """The standard availability scenario: one total central outage.

    The outage opens a quarter of the way into the measurement window
    and lasts a fifth of it, leaving room to observe degraded operation
    *and* recovery before the horizon.
    """
    start = warmup_time + 0.25 * measure_time
    duration = 0.20 * measure_time
    return FaultPlan(
        episodes=(FaultEpisode(kind=CENTRAL_OUTAGE, start=start,
                               duration=duration),),
        retry=retry or RetryPolicy())


def lossy_links_plan(warmup_time: float = 30.0,
                     measure_time: float = 90.0,
                     drop_probability: float = 0.2,
                     retry: RetryPolicy | None = None) -> FaultPlan:
    """Every link drops messages and jitters for the middle half."""
    start = warmup_time + 0.25 * measure_time
    duration = 0.50 * measure_time
    return FaultPlan(
        episodes=(FaultEpisode(kind=LINK_DEGRADATION, start=start,
                               duration=duration,
                               drop_probability=drop_probability,
                               jitter=0.1, delay_factor=1.5),),
        retry=retry or RetryPolicy())


def site_crash_plan(warmup_time: float = 30.0,
                    measure_time: float = 90.0, site: int = 0,
                    retry: RetryPolicy | None = None) -> FaultPlan:
    """One local site crashes and later recovers."""
    start = warmup_time + 0.25 * measure_time
    duration = 0.25 * measure_time
    return FaultPlan(
        episodes=(FaultEpisode(kind=SITE_CRASH, start=start,
                               duration=duration, site=site),),
        retry=retry or RetryPolicy())


def chaos_plan(warmup_time: float = 30.0, measure_time: float = 90.0,
               retry: RetryPolicy | None = None) -> FaultPlan:
    """The CI chaos scenario: lossy links plus a central outage.

    The link degradation brackets the outage so recovery happens into a
    still-imperfect network, plus a central CPU slowdown on re-entry
    (a 'cold cache' approximation).
    """
    lossy_start = warmup_time + 0.10 * measure_time
    outage_start = warmup_time + 0.35 * measure_time
    return FaultPlan(
        episodes=(
            FaultEpisode(kind=LINK_DEGRADATION, start=lossy_start,
                         duration=0.60 * measure_time,
                         drop_probability=0.15, jitter=0.05,
                         delay_factor=1.2),
            FaultEpisode(kind=CENTRAL_OUTAGE, start=outage_start,
                         duration=0.15 * measure_time),
            FaultEpisode(kind=CPU_SLOWDOWN,
                         start=outage_start + 0.15 * measure_time,
                         duration=0.10 * measure_time, slowdown=2.0),
        ),
        retry=retry or RetryPolicy())


def failover_outage_plan(warmup_time: float = 30.0,
                         measure_time: float = 90.0,
                         retry: RetryPolicy | None = None) -> FaultPlan:
    """The standard central outage, survived by hot-standby failover.

    Identical schedule to :func:`standard_outage_plan`; the recovery
    policy arms the standby so class-B work keeps completing during the
    episode instead of failing permanently.
    """
    plan = standard_outage_plan(warmup_time, measure_time, retry)
    return plan.with_recovery(RecoveryPolicy(failover=True))


def rejoin_crash_plan(warmup_time: float = 30.0,
                      measure_time: float = 90.0, site: int = 0,
                      retry: RetryPolicy | None = None) -> FaultPlan:
    """A site crash with volatile-state loss and explicit rejoin.

    Identical schedule to :func:`site_crash_plan`; the recovery policy
    makes the crash lose volatile state, queue arrivals (bounded) and
    run the snapshot catch-up protocol at episode end.
    """
    plan = site_crash_plan(warmup_time, measure_time, site, retry)
    return plan.with_recovery(RecoveryPolicy(rejoin=True,
                                             admission_limit=64))


def breaker_flap_plan(warmup_time: float = 30.0,
                      measure_time: float = 90.0,
                      retry: RetryPolicy | None = None) -> FaultPlan:
    """Heavy link loss exercising the full overload-control stack.

    Lossy enough that shipments repeatedly time out, tripping the
    site->central circuit breaker, which then half-opens into a network
    that is still degraded (flapping).  Deadlines are armed so early
    cancellation fires too.
    """
    start = warmup_time + 0.15 * measure_time
    duration = 0.60 * measure_time
    plan = FaultPlan(
        episodes=(FaultEpisode(kind=LINK_DEGRADATION, start=start,
                               duration=duration,
                               drop_probability=0.35, jitter=0.1,
                               delay_factor=1.5),),
        retry=retry or RetryPolicy())
    return plan.with_recovery(RecoveryPolicy(
        breaker_threshold=2, breaker_cooldown=3.0, breaker_probe=0.5,
        deadline=12.0))


NAMED_PLANS = {
    "central-outage": standard_outage_plan,
    "lossy-links": lossy_links_plan,
    "site-crash": site_crash_plan,
    "chaos": chaos_plan,
    "central-outage-failover": failover_outage_plan,
    "site-crash-rejoin": rejoin_crash_plan,
    "breaker-flap": breaker_flap_plan,
}


def resolve_fault_plan(spec: str, warmup_time: float,
                       measure_time: float) -> FaultPlan:
    """Turn a ``--fault-plan`` argument into a plan.

    ``spec`` is either a canned plan name (see :data:`NAMED_PLANS`,
    scheduled relative to the given horizon) or the path of a JSON file
    produced by :meth:`FaultPlan.to_json` (absolute simulated times).
    """
    builder = NAMED_PLANS.get(spec)
    if builder is not None:
        return builder(warmup_time=warmup_time, measure_time=measure_time)
    try:
        with open(spec, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ValueError(
            f"--fault-plan {spec!r} is neither a canned plan "
            f"({', '.join(sorted(NAMED_PLANS))}) nor a readable JSON "
            f"file: {exc}") from exc
    return FaultPlan.from_json(text)


# ---------------------------------------------------------------------------
# Runtime injection.
# ---------------------------------------------------------------------------


def effective_central_state(active: Sequence[FaultEpisode]
                            ) -> tuple[bool, float]:
    """Compose the central complex's ``(down, slowdown)`` state.

    Pure function of the currently active episode set; order-independent
    (overlap composition is commutative), which the property suite
    checks directly.
    """
    down = any(ep.kind == CENTRAL_OUTAGE for ep in active)
    slow = 1.0
    for ep in active:
        if ep.kind == CPU_SLOWDOWN and ep.site is None:
            slow = max(slow, ep.slowdown)
    return down, slow


def effective_site_state(active: Sequence[FaultEpisode], site_id: int,
                         central_down: bool | None = None
                         ) -> tuple[bool, float, float, float, float]:
    """Compose one site's ``(down, slow, drop, jitter, delay_factor)``.

    Pure and order-independent, like :func:`effective_central_state`.
    ``central_down`` may be precomputed; ``None`` derives it from
    ``active``.
    """
    if central_down is None:
        central_down = any(ep.kind == CENTRAL_OUTAGE for ep in active)
    site_down = any(ep.kind == SITE_CRASH and ep.site == site_id
                    for ep in active)
    slow = 1.0
    drop = 1.0 if (central_down or site_down) else 0.0
    jitter = 0.0
    factor = 1.0
    for ep in active:
        if ep.kind == CPU_SLOWDOWN and ep.site == site_id:
            slow = max(slow, ep.slowdown)
        if ep.kind == LINK_DEGRADATION and ep.site in (None, site_id):
            drop = max(drop, ep.drop_probability)
            jitter = max(jitter, ep.jitter)
            factor = max(factor, ep.delay_factor)
    return site_down, slow, drop, jitter, factor


class FaultInjector:
    """Applies and reverts a :class:`FaultPlan` against a live system.

    One simulation process per episode sleeps until the episode's start,
    recomputes the affected resources' effective state, sleeps through
    the duration and recomputes again.  The effective state of a link or
    CPU is always derived from the full set of *currently active*
    episodes, so overlapping faults compose (most degraded wins) and
    reverting one never heals a resource another still degrades.
    """

    def __init__(self, system: "HybridSystem", plan: FaultPlan):
        self.system = system
        self.env = system.env
        self.plan = plan
        self._active: list[FaultEpisode] = []
        #: Episodes whose full apply/revert cycle has run (for reports).
        self.applied: list[FaultEpisode] = []
        for index, episode in enumerate(plan.episodes):
            self.env.process(self._drive(episode),
                             name=f"fault-{index}:{episode.kind}")

    def _drive(self, episode: FaultEpisode):
        if episode.start > 0:
            yield self.env.timeout(episode.start)
        self._active.append(episode)
        self.system.metrics.record_fault(episode.kind, "apply",
                                         site=episode.site)
        self._refresh()
        rejoin = episode.kind == SITE_CRASH and self.plan.recovery.rejoin
        if rejoin:
            self.system.sites[episode.site].on_crash()
        yield self.env.timeout(episode.duration)
        self._active.remove(episode)
        self.applied.append(episode)
        self.system.metrics.record_fault(episode.kind, "revert",
                                         site=episode.site)
        self._refresh()
        if rejoin:
            self.system.sites[episode.site].begin_rejoin()

    # -- effective-state computation ----------------------------------------

    def _set_link_fault(self, link, drop: float, jitter: float,
                        factor: float) -> None:
        if drop == 0.0 and jitter == 0.0 and factor == 1.0:
            link.clear_fault()
        else:
            rng = (self.system.streams.stream(f"fault-link:{link.name}")
                   if (0.0 < drop < 1.0 or jitter > 0.0) else None)
            link.set_fault(drop_probability=drop, jitter=jitter,
                           delay_factor=factor, rng=rng)

    def _refresh(self) -> None:
        system = self.system
        central_down, central_slow = effective_central_state(self._active)
        system.central.service_scale = central_slow

        # A central outage also severs the primary<->standby log links
        # (the standby's own site links stay up -- that is the point of
        # a *hot* standby on independent infrastructure).
        standby = system.standby
        if standby is not None:
            for link in standby.log_links:
                self._set_link_fault(link, 1.0 if central_down else 0.0,
                                     0.0, 1.0)

        for site in system.sites:
            site_down, slow, drop, jitter, factor = effective_site_state(
                self._active, site.site_id, central_down=central_down)
            site.down = site_down
            site.service_scale = slow
            for link in (site.to_central, site.from_central):
                self._set_link_fault(link, drop, jitter, factor)
            # The site's standby links share the site's fate (crash,
            # degradation) but not the central outage: the standby is
            # reachable while the primary is dark.
            if standby is not None:
                _, _, sdrop, sjitter, sfactor = effective_site_state(
                    self._active, site.site_id, central_down=False)
                for link in (site.to_standby, site.from_standby):
                    self._set_link_fault(link, sdrop, sjitter, sfactor)


# ---------------------------------------------------------------------------
# Availability reporting.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecoveryRecord:
    """One completed recovery-protocol run (failover or rejoin).

    ``started`` anchors the measurement at the failure: for a failover
    it is the last heartbeat the standby heard before declaring the
    primary dead (within one heartbeat interval of the actual outage
    start); for a rejoin it is the moment the crash episode ended and
    repair could begin.  ``completed`` is when service was restored
    (failover notices broadcast / catch-up snapshot installed), so
    ``duration`` is the protocol-level repair time the MTTR averages.
    """

    kind: str  # "failover" | "rejoin"
    site: int | None
    started: float
    completed: float

    @property
    def duration(self) -> float:
        return self.completed - self.started


@dataclass(frozen=True)
class EpisodeReport:
    """Availability summary of one completed fault episode.

    ``baseline_throughput`` averages the committed throughput of the
    telemetry windows immediately before the episode,
    ``degraded_throughput`` the windows overlapping it, and
    ``time_to_recover`` is the delay from the episode's end until a
    window's throughput first regains ``recovery_fraction`` of the
    baseline (``None`` when the run ended first or no baseline exists).
    ``recovery_time`` is the protocol-level repair duration of the
    matched :class:`RecoveryRecord` (``None`` when no recovery protocol
    ran for this episode).
    """

    kind: str
    site: int | None
    start: float
    end: float
    baseline_throughput: float
    degraded_throughput: float
    time_to_recover: float | None
    recovery_time: float | None = None


def _match_recovery(episode: FaultEpisode,
                    recoveries: list[RecoveryRecord]
                    ) -> RecoveryRecord | None:
    """Pop the recovery record belonging to ``episode``, if any."""
    for index, rec in enumerate(recoveries):
        if rec.kind == "failover" and episode.kind == CENTRAL_OUTAGE and \
                episode.start - 1e-9 <= rec.completed and \
                rec.started <= episode.end + 1e-9:
            return recoveries.pop(index)
        if rec.kind == "rejoin" and episode.kind == SITE_CRASH and \
                rec.site == episode.site and \
                rec.started >= episode.end - 1e-9:
            return recoveries.pop(index)
    return None


def episode_reports(episodes: Sequence[FaultEpisode], windows: Sequence,
                    baseline_windows: int = 10,
                    recovery_fraction: float = 0.7,
                    recoveries: Sequence[RecoveryRecord] = ()
                    ) -> tuple[EpisodeReport, ...]:
    """Compute per-episode availability summaries from telemetry windows.

    ``windows`` is any sequence with ``start``/``end``/``throughput``
    attributes (duck-typed so this module needs no import from
    :mod:`repro.hybrid`).  ``recoveries`` are the recovery-protocol
    completions observed during the run; each is matched to its episode
    (first unmatched record wins) to fill ``recovery_time``.
    """
    reports = []
    unmatched = list(recoveries)
    for episode in episodes:
        before = [w.throughput for w in windows if w.end <= episode.start]
        during = [w.throughput for w in windows
                  if w.end > episode.start and w.start < episode.end]
        baseline = (sum(before[-baseline_windows:]) /
                    len(before[-baseline_windows:])) if before else 0.0
        degraded = sum(during) / len(during) if during else 0.0
        recovery: float | None = None
        if baseline > 0.0:
            target = recovery_fraction * baseline
            for window in windows:
                if window.start >= episode.end and \
                        window.throughput >= target:
                    recovery = window.end - episode.end
                    break
        matched = _match_recovery(episode, unmatched)
        reports.append(EpisodeReport(
            kind=episode.kind, site=episode.site, start=episode.start,
            end=episode.end, baseline_throughput=baseline,
            degraded_throughput=degraded, time_to_recover=recovery,
            recovery_time=matched.duration if matched else None))
    return tuple(reports)
