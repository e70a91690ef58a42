"""Golden-trace regression: canonical run fingerprints pinned to JSON.

Each :class:`Scenario` pins one exact simulation -- strategy, rate,
horizon and seed are all fixed (``VerifySettings.scale`` is deliberately
ignored) -- and summarises it into a *fingerprint*: event counts,
response-time summaries, utilisations, the metrics-registry snapshot
and a SHA-256 digest of the full trace stream
(:class:`~repro.sim.trace.TraceDigest`).  The fingerprints live in
``tests/golden/*.json``; a golden check re-simulates the
scenario and demands byte-level agreement, reporting discrepancies as a
diff of flattened paths.

The digest makes the check sensitive to *any* reordering or change of
the event stream, while the structured counters localise what changed
when it fires.  ``hybriddb-verify --update-golden`` regenerates the
files; regeneration is deterministic, so two consecutive updates are
byte-identical.
"""

from __future__ import annotations

import enum
import json
import os
from dataclasses import dataclass, replace
from pathlib import Path

from ..experiments.runner import RunSettings, run_single
from ..sim.faults import resolve_fault_plan
from ..sim.trace import TraceDigest, Tracer
from .base import Check, VerifySettings, registry
from .compare import diff, format_diff

__all__ = ["Scenario", "SCENARIOS", "GOLDEN_SCENARIOS", "golden_dir",
           "fingerprint", "golden_path", "update_goldens", "run_goldens"]

#: Environment variable overriding where golden files are read/written.
GOLDEN_DIR_ENV = "HYBRIDDB_GOLDEN_DIR"

#: Decimal places floats are rounded to before serialisation, so the
#: stored JSON is stable under float-repr differences while still far
#: below any behavioural change.
FLOAT_PRECISION = 12


@dataclass(frozen=True)
class Scenario:
    """One pinned simulation whose fingerprint is kept under version
    control.  Horizons and seed are scenario-owned (never scaled): the
    stored fingerprint describes exactly one sample path."""

    name: str
    strategy: str
    total_rate: float
    comm_delay: float = 0.2
    warmup_time: float = 5.0
    measure_time: float = 30.0
    seed: int = 20_240_601
    #: Optional lockspace shrink (None keeps the paper default): the hot
    #: scenario shrinks the database so every abort cause actually fires
    #: inside the fingerprinted horizon.
    lockspace: int | None = None
    #: Commit protocol under test (a ``PROTOCOLS`` name).  The default
    #: keeps the pre-existing scenarios on the optimistic path, fingerprinted
    #: byte-identically to before the protocol extraction.
    protocol: str = "optimistic"
    #: Canned fault plan (a :data:`~repro.sim.faults.NAMED_PLANS` name)
    #: scheduled against the scenario's horizon; ``None`` runs fault-free.
    fault_plan: str | None = None
    description: str = ""


#: The canonical scenarios.  ``baseline-none`` pins the no-load-sharing
#: reference path; ``queue-length-hot`` runs hot enough that shipping,
#: deadlock aborts and authentication NAKs all appear in the counters,
#: so a protocol regression cannot hide in an exercised-but-unasserted
#: path.  The five fault scenarios together fire every trace kind and
#: every metrics-collector counter family except ``shed``: the rejoin
#: queue does not overflow at these loads, so tests/test_survival_layer.py's
#: ``test_admission_limit_bounds_the_rejoin_queue`` covers ``shed``.
SCENARIOS: tuple[Scenario, ...] = (
    Scenario(name="baseline-none",
             strategy="none", total_rate=12.0,
             description="no load sharing at a moderate load: the "
                         "Figure 4.1 baseline sample path"),
    Scenario(name="queue-length-hot",
             strategy="queue-length", total_rate=25.0, lockspace=2_000,
             description="queue-length routing, heavy load, shrunken "
                         "lockspace: shipping, deadlocks, invalidations "
                         "and NAKs all active"),
    Scenario(name="twophase-hot",
             strategy="queue-length", total_rate=18.0, lockspace=2_000,
             protocol="2pc",
             description="primary-copy 2PC under the hot workload: "
                         "prepare/vote/decision rounds and in-doubt "
                         "refusals pinned"),
    Scenario(name="epoch-hot",
             strategy="queue-length", total_rate=18.0, lockspace=2_000,
             protocol="epoch",
             description="epoch-batched group commit under the hot "
                         "workload: epoch flushes, batch ordering and "
                         "deferred completions pinned"),
    Scenario(name="breaker-flap",
             strategy="queue-length", total_rate=18.0,
             fault_plan="breaker-flap",
             description="flapping central outages: breaker, fallback "
                         "routing and deadline cancels pinned"),
    Scenario(name="central-outage-failover",
             strategy="queue-length", total_rate=18.0, protocol="2pc",
             fault_plan="central-outage-failover",
             description="standby takeover under 2PC: re-pointing, "
                         "re-shipping, fencing and 2PC events pinned"),
    Scenario(name="epoch-failover",
             strategy="queue-length", total_rate=18.0, protocol="epoch",
             fault_plan="central-outage-failover",
             description="standby takeover under the epoch protocol: "
                         "log replay, idle standby ticker and in-flight "
                         "epoch batch re-sends pinned"),
    Scenario(name="site-crash",
             strategy="queue-length", total_rate=18.0,
             fault_plan="site-crash",
             description="a site crash without recovery: rejected "
                         "arrivals, timeouts and failures pinned"),
    Scenario(name="site-crash-rejoin",
             strategy="queue-length", total_rate=18.0,
             fault_plan="site-crash-rejoin",
             description="a site crash and rejoin: lost transactions "
                         "and the recovery record pinned"),
)


def golden_dir() -> Path:
    """Directory holding the golden fingerprints.

    Resolution order: ``$HYBRIDDB_GOLDEN_DIR``, then the repo's
    ``tests/golden`` (located relative to this file), then
    ``./tests/golden`` as a last resort for installed copies.
    """
    override = os.environ.get(GOLDEN_DIR_ENV)
    if override:
        return Path(override)
    repo_candidate = Path(__file__).resolve().parents[3] / "tests" / "golden"
    if repo_candidate.parent.is_dir():
        return repo_candidate
    return Path.cwd() / "tests" / "golden"


def golden_path(scenario: Scenario, directory: Path | None = None) -> Path:
    return (directory or golden_dir()) / f"{scenario.name}.json"


def _rounded(value):
    if isinstance(value, float):
        return round(value, FLOAT_PRECISION)
    if isinstance(value, dict):
        return {_key(k): _rounded(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(item) for item in value]
    return value


def _key(key):
    return str(key.value) if isinstance(key, enum.Enum) else str(key)


def fingerprint(scenario: Scenario) -> dict:
    """Simulate the scenario and summarise it into its fingerprint."""
    digest = TraceDigest()
    # max_records=0: every record streams through the digest sink and
    # none are buffered, so fingerprinting stays memory-bounded.
    tracer = Tracer(sink=digest, max_records=0)
    settings = RunSettings(warmup_time=scenario.warmup_time,
                           measure_time=scenario.measure_time,
                           base_seed=scenario.seed,
                           protocol=scenario.protocol)
    overrides = {}
    if scenario.lockspace is not None:
        config = settings.config_for(scenario.total_rate,
                                     scenario.comm_delay)
        overrides["workload"] = replace(config.workload,
                                        lockspace=scenario.lockspace)
    fault_plan = None
    if scenario.fault_plan is not None:
        fault_plan = resolve_fault_plan(scenario.fault_plan,
                                        scenario.warmup_time,
                                        scenario.measure_time)
    result = run_single(scenario.strategy, scenario.total_rate,
                        scenario.comm_delay, settings=settings,
                        tracer=tracer, fault_plan=fault_plan, **overrides)
    pinned = {
        "name": scenario.name,
        "strategy": scenario.strategy,
        "total_rate": scenario.total_rate,
        "comm_delay": scenario.comm_delay,
        "warmup_time": scenario.warmup_time,
        "measure_time": scenario.measure_time,
        "seed": scenario.seed,
        "lockspace": scenario.lockspace,
    }
    if scenario.protocol != "optimistic":
        # Only recorded when non-default, so the pre-extraction golden
        # files for the optimistic scenarios stay byte-identical.
        pinned["protocol"] = scenario.protocol
    if scenario.fault_plan is not None:
        pinned["fault_plan"] = scenario.fault_plan
    return {
        "scenario": pinned,
        "counts": {
            "completed": result.completed,
            "class_a_arrivals": result.class_a_arrivals,
            "class_a_shipped": result.class_a_shipped,
            "aborts_total": result.aborts_total,
            "aborts_deadlock": result.aborts_deadlock,
            "aborts_local_invalidated": result.aborts_local_invalidated,
            "aborts_central_invalidated":
                result.aborts_central_invalidated,
            "auth_negative_acks": result.auth_negative_acks,
            "messages_to_central": result.messages_to_central,
            "messages_to_sites": result.messages_to_sites,
            "engine_events": result.engine_events,
        },
        "response": _rounded({
            "mean": result.mean_response_time,
            "by_class": result.response_time_by_class,
            "by_kind": result.response_time_by_kind,
            "percentiles": result.response_time_percentiles,
            "decomposition": result.response_time_decomposition,
            "by_placement": result.decomposition_by_placement,
        }),
        "utilization": _rounded({
            "local": result.mean_local_utilization,
            "central": result.mean_central_utilization,
            "local_queue": result.mean_local_queue_length,
            "central_queue": result.mean_central_queue_length,
        }),
        "metrics": result.metrics,
        "trace": {
            "records": digest.records,
            "sha256": digest.hexdigest(),
        },
    }


def serialize(data: dict) -> str:
    """Canonical byte form of a fingerprint (stable across runs)."""
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def load_golden(scenario: Scenario,
                directory: Path | None = None) -> dict | None:
    path = golden_path(scenario, directory)
    if not path.is_file():
        return None
    return json.loads(path.read_text())


def update_goldens(names: list[str] | None = None,
                   directory: Path | None = None) -> list[Path]:
    """(Re)write the golden files; returns the written paths."""
    directory = directory or golden_dir()
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for scenario in SCENARIOS:
        if names and scenario.name not in names:
            continue
        path = golden_path(scenario, directory)
        path.write_text(serialize(fingerprint(scenario)))
        written.append(path)
    return written


def _make_check(scenario: Scenario) -> Check:
    def _run(settings: VerifySettings) -> tuple[bool, str]:
        stored = load_golden(scenario)
        if stored is None:
            return False, (
                f"golden file {golden_path(scenario)} missing; generate "
                f"it with `hybriddb-verify --update-golden`")
        current = json.loads(serialize(fingerprint(scenario)))
        lines = diff(stored, current, labels=("golden", "current"))
        if lines:
            return False, (
                f"fingerprint of {scenario.name!r} deviates from "
                f"{golden_path(scenario).name} in {len(lines)} "
                f"field(s):\n{format_diff(lines)}\n"
                f"(if the change is intended, refresh with "
                f"`hybriddb-verify --update-golden`)")
        trace = stored["trace"]
        return True, (
            f"{scenario.name}: {stored['counts']['completed']} "
            f"completion(s), {trace['records']} trace record(s), digest "
            f"{trace['sha256'][:12]}... all match")

    return Check(name=f"golden-{scenario.name}", kind="golden",
                 description=scenario.description or
                 f"pinned fingerprint of scenario {scenario.name}",
                 _run=_run)


GOLDEN_SCENARIOS = registry([_make_check(s) for s in SCENARIOS])


def run_goldens(settings: VerifySettings | None = None,
                names: list[str] | None = None):
    """Run (a subset of) the golden fingerprint checks."""
    settings = settings or VerifySettings()
    selected = names or sorted(GOLDEN_SCENARIOS)
    return [GOLDEN_SCENARIOS[name].run(settings) for name in selected]
