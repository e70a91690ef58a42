"""Which public functions of ``repro`` belong to which layer, and the
per-layer metrics computed from one traced repetition.

Spans are opened around the public entry points of each layer; the
layer table, and which end-to-end metric each layer should move, is in
``README.md``.  ``engine`` wraps ``Environment.run``, whose
dispatch loop calls ``Environment.step`` once per event: its self time
is everything inside dispatch that no other wrapped layer covers --
kernel work plus the protocol generator bodies of ``repro.hybrid``,
which the public API cannot separate.  Wrapping ``run`` rather than
``step`` keeps one span per simulation phase instead of one per event.
"""

from __future__ import annotations

import importlib

from spans import Recorder

#: ``(module, qualified attribute, layer)`` spans of a traced run.
SPAN_TARGETS = (
    ("repro.experiments.runner", "run_curve_set", "experiments"),
    ("repro.experiments.parallel", "execute_job", "experiments"),
    ("repro.hybrid.system", "HybridSystem.__init__", "build"),
    ("repro.core.static", "optimize_static", "analysis"),
    ("repro.core.model", "AnalyticModel.evaluate", "analysis"),
    ("repro.hybrid.local", "LocalSite.observe", "routing.observe"),
    ("repro.sim.engine", "Environment.run", "engine"),
    ("repro.sim.resources", "Resource.request", "resources"),
    ("repro.sim.resources", "Resource.release", "resources"),
    ("repro.db.locks", "LockManager.acquire", "locks"),
    ("repro.db.locks", "LockManager.release", "locks"),
    ("repro.db.locks", "LockManager.release_all", "locks"),
    ("repro.db.locks", "LockManager.cancel_waits", "locks"),
    ("repro.db.locks", "LockManager.check_authentication", "locks"),
    ("repro.db.locks", "LockManager.force_grant", "locks"),
    ("repro.db.deadlock", "WaitsForGraph.would_deadlock", "locks"),
    ("repro.sim.network", "Link.send", "network"),
    ("repro.sim.network", "ReliableEndpoint.send", "network"),
    ("repro.sim.network", "ReliableEndpoint.pump", "network"),
    ("repro.db.workload", "TransactionFactory.make_transaction",
     "workload"),
    ("repro.sim.rng", "ExponentialSampler.__call__", "workload"),
    ("repro.sim.rng", "UniformIntSampler.__call__", "workload"),
    ("repro.sim.rng", "UniformIntSampler.sample", "workload"),
    ("repro.sim.spans", "SpanRecorder.enter", "obs"),
    ("repro.sim.spans", "SpanRecorder.exit", "obs"),
    ("repro.sim.spans", "SpanRecorder.close", "obs"),
    ("repro.hybrid.telemetry", "TelemetrySampler._snapshot", "obs"),
)

#: Per-layer metrics: name -> unit, in the order they are printed.
METRICS = {
    "setup.import_s": "s", "setup.build_s": "s",
    "experiments.jobs": "count", "experiments.job_build_s": "s",
    "experiments.assemble_s": "s",
    "analysis.solves": "count", "analysis.self_s": "s",
    "routing.decisions": "count", "routing.self_s": "s",
    "routing.observe_s": "s",
    "engine.events": "count", "engine.events_per_txn": "count",
    "engine.step_self_s": "s", "engine.ns_per_event": "ns",
    "resources.requests": "count", "resources.self_s": "s",
    "locks.acquires": "count", "locks.waits": "count",
    "locks.deadlock_checks": "count", "locks.self_s": "s",
    "network.sends": "count", "network.retransmits": "count",
    "network.useful_ratio": "ratio", "network.self_s": "s",
    "hybrid.commits": "count", "hybrid.aborts": "count",
    "hybrid.auth_rounds": "count", "hybrid.useful_ratio": "ratio",
    "workload.arrivals": "count", "workload.self_s": "s",
    "obs.records": "count", "obs.spans": "count", "obs.self_s": "s",
    "trace.overhead_frac": "ratio",
}

#: Metrics that are seconds, adjusted to the nominal host speed.
TIMES = tuple(name for name, unit in METRICS.items() if unit == "s")


def _resolve(module: str, qualname: str):
    owner = importlib.import_module(module)
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attribute


def _count_waits(recorder: Recorder, event) -> None:
    if not event.triggered:
        recorder.counts["locks.waits"] += 1


def _count_delivered(recorder: Recorder, messages) -> None:
    recorder.counts["network.pumped_out"] += len(messages)


RESULT_HOOKS = {
    "LockManager.acquire": _count_waits,
    "ReliableEndpoint.pump": _count_delivered,
}


def _router_classes():
    """Every router class that defines its own ``decide`` or
    ``observe_completion`` (all strategies, present and future)."""
    from repro import core  # noqa: F401 -- registers every strategy
    from repro.core.router import Router

    seen, todo = [], list(Router.__subclasses__())
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return sorted(seen, key=lambda cls: cls.__qualname__)


def span_targets(recorder: Recorder):
    """``(owner, attribute, replacement)`` triples for
    :func:`spans.patched`."""
    from repro.hybrid.metrics import MetricsCollector

    def wrapped(owner, attribute, name, layer):
        return (owner, attribute, recorder.wrap(
            owner.__dict__[attribute], name, layer,
            RESULT_HOOKS.get(name)))

    for module, qualname, layer in SPAN_TARGETS:
        owner, attribute = _resolve(module, qualname)
        yield wrapped(owner, attribute, qualname, layer)
    for cls in _router_classes():
        for attribute in ("decide", "observe_completion"):
            if attribute in cls.__dict__:
                yield wrapped(cls, attribute,
                              f"{cls.__qualname__}.{attribute}", "routing")
    for attribute in sorted(vars(MetricsCollector)):
        if attribute.startswith("record_"):
            yield wrapped(MetricsCollector, attribute,
                          f"MetricsCollector.{attribute}", "obs")


def layer_metrics(recorder: Recorder, records, adjust) -> dict:
    """Per-layer metrics of one traced repetition.

    ``records`` are the repetition's :class:`checks.SimRecord`\\ s;
    ``adjust`` converts raw seconds to nominal-host seconds.  The
    setup, kernel-probe and overhead metrics are filled in by the
    caller.
    """
    calls, self_s = recorder.calls, recorder.self_s

    def named(*names) -> int:
        return sum(calls.get(name, 0) for name in names)

    def record_calls(hook: str) -> int:
        return calls.get(f"MetricsCollector.{hook}", 0)

    arrivals = calls.get("TransactionFactory.make_transaction", 0)
    events = sum(record.events for record in records)
    sends = calls.get("Link.send", 0)
    delivered = (sum(record.links_delivered for record in records)
                 - calls.get("ReliableEndpoint.pump", 0)
                 + recorder.counts.get("network.pumped_out", 0))
    commits = record_calls("record_completion")
    aborts = record_calls("record_abort")
    decisions = sum(count for name, count in calls.items()
                    if name.endswith(".decide"))
    metrics = {
        "experiments.jobs": calls.get("execute_job", 0),
        "experiments.job_build_s": recorder.nested_s.get(
            ("execute_job", "HybridSystem.__init__"), 0.0),
        "experiments.assemble_s": self_s.get("run_curve_set", 0.0),
        "analysis.solves": calls.get("AnalyticModel.evaluate", 0),
        "analysis.self_s": recorder.layer_self_s("analysis"),
        "routing.decisions": decisions,
        "routing.self_s": recorder.layer_self_s("routing"),
        "routing.observe_s": recorder.layer_self_s("routing.observe"),
        "engine.events": events,
        "engine.events_per_txn": events / arrivals if arrivals else 0.0,
        "engine.step_self_s": recorder.layer_self_s("engine"),
        "resources.requests": calls.get("Resource.request", 0),
        "resources.self_s": recorder.layer_self_s("resources"),
        "locks.acquires": calls.get("LockManager.acquire", 0),
        "locks.waits": recorder.counts.get("locks.waits", 0),
        "locks.deadlock_checks": calls.get(
            "WaitsForGraph.would_deadlock", 0),
        "locks.self_s": recorder.layer_self_s("locks"),
        "network.sends": sends,
        "network.retransmits": record_calls("record_retransmit"),
        "network.useful_ratio": delivered / sends if sends else 0.0,
        "network.self_s": recorder.layer_self_s("network"),
        "hybrid.commits": commits,
        "hybrid.aborts": aborts,
        "hybrid.auth_rounds": record_calls("record_auth_round"),
        "hybrid.useful_ratio": (commits / (commits + aborts)
                                if commits + aborts else 0.0),
        "workload.arrivals": arrivals,
        "workload.self_s": recorder.layer_self_s("workload"),
        "obs.records": recorder.layer_calls("obs") - named(
            "SpanRecorder.enter", "SpanRecorder.exit", "SpanRecorder.close",
            "TelemetrySampler._snapshot"),
        "obs.spans": calls.get("SpanRecorder.enter", 0),
        "obs.self_s": recorder.layer_self_s("obs"),
    }
    for name in TIMES:
        if name in metrics:
            metrics[name] = adjust(metrics[name])
    return metrics
