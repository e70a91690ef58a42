"""Unit tests for metrics collection (repro.hybrid.metrics)."""

import numpy as np
import pytest

from repro.db import (
    LockMode,
    Placement,
    Reference,
    Transaction,
    TransactionClass,
    TransactionKind,
)
from repro.hybrid.metrics import EVENTS, MetricsCollector
from repro.sim import Environment


def make_txn(txn_class=TransactionClass.A, placement=Placement.LOCAL,
             arrival=0.0):
    txn = Transaction(txn_id=1, txn_class=txn_class, home_site=0,
                      references=(Reference(1, LockMode.EXCLUSIVE),),
                      arrival_time=arrival)
    txn.route(placement)
    txn.begin_run(arrival)
    return txn


def advance(env, to):
    env.run(until=env.timeout(to - env.now)) if False else None
    # simple clock move: schedule and run
    env.timeout(to - env.now)
    env.run(until=to)


@pytest.fixture
def env():
    return Environment()


def test_warmup_discards_observations(env):
    metrics = MetricsCollector(env, warmup_time=10.0)
    txn = make_txn()
    txn.complete(now=5.0)
    metrics.record_completion(txn)  # env.now == 0 < warmup
    assert metrics.counts()["completed"] == 0
    assert metrics.response_all.count == 0


def test_measuring_flag(env):
    metrics = MetricsCollector(env, warmup_time=10.0)
    assert not metrics.measuring
    advance(env, 10.0)
    assert metrics.measuring


def test_completion_recorded_after_warmup(env):
    metrics = MetricsCollector(env, warmup_time=1.0)
    advance(env, 2.0)
    txn = make_txn(arrival=1.5)
    txn.complete(now=2.0)
    metrics.record_completion(txn)
    assert metrics.counts()["completed"] == 1
    assert metrics.response_all.mean == pytest.approx(0.5)


def test_routing_counts_class_a_only(env):
    metrics = MetricsCollector(env, warmup_time=0.0)
    metrics.record_routing(make_txn(TransactionClass.A, Placement.LOCAL))
    metrics.record_routing(make_txn(TransactionClass.A, Placement.SHIPPED))
    metrics.record_routing(make_txn(TransactionClass.B, Placement.CENTRAL))
    counts = metrics.counts()
    assert counts["class_a_arrivals"] == 2
    assert counts["class_a_shipped"] == 1


def test_abort_causes(env):
    metrics = MetricsCollector(env, warmup_time=0.0)
    txn = make_txn()
    metrics.record_abort(txn, "deadlock")
    metrics.record_abort(txn, "local-invalidated")
    metrics.record_abort(txn, "central-invalidated")
    counts = metrics.counts()
    assert counts["aborts_deadlock"] == 1
    assert counts["aborts_local_invalidated"] == 1
    assert counts["aborts_central_invalidated"] == 1
    assert counts["aborts_total"] == 3


def test_unknown_abort_cause_rejected(env):
    from repro.sim.trace import Tracer

    # Checked on every call: inside the warm-up window as well.
    for warmup_time in (0.0, 5.0):
        tracer = Tracer()
        metrics = MetricsCollector(env, warmup_time=warmup_time,
                                   tracer=tracer)
        with pytest.raises(ValueError, match="cosmic-ray"):
            metrics.record_abort(make_txn(), "cosmic-ray")
        assert tracer.records == []


def test_message_counters(env):
    metrics = MetricsCollector(env, warmup_time=0.0)
    metrics.record_message(to_central=True)
    metrics.record_message(to_central=True)
    metrics.record_message(to_central=False)
    counts = metrics.counts()
    assert counts["messages_to_central"] == 2
    assert counts["messages_to_sites"] == 1


def test_freeze_summary(env):
    metrics = MetricsCollector(env, warmup_time=0.0)
    advance(env, 1.0)
    local = make_txn(TransactionClass.A, Placement.LOCAL, arrival=0.2)
    local.complete(now=0.7)
    metrics.record_completion(local)
    shipped = make_txn(TransactionClass.A, Placement.SHIPPED, arrival=0.1)
    shipped.complete(now=1.0)
    metrics.record_completion(shipped)
    advance(env, 10.0)
    result = metrics.freeze(
        total_rate=5.0, comm_delay=0.2, strategy="test", seed=1,
        local_utilizations=[0.2, 0.4], central_utilization=0.3,
        mean_local_queue=1.0, mean_central_queue=2.0)
    assert result.completed == 2
    assert result.mean_response_time == pytest.approx((0.5 + 0.9) / 2)
    assert result.throughput == pytest.approx(0.2)
    assert result.mean_local_utilization == pytest.approx(0.3)
    assert result.response_time_by_kind[TransactionKind.LOCAL_NEW] == \
        pytest.approx(0.5)
    assert result.response_time_by_kind[TransactionKind.SHIPPED_NEW] == \
        pytest.approx(0.9)
    assert result.strategy == "test"


def test_shipped_fraction_empty_is_zero(env):
    metrics = MetricsCollector(env, warmup_time=0.0)
    advance(env, 1.0)
    result = metrics.freeze(
        total_rate=1.0, comm_delay=0.2, strategy="t", seed=1,
        local_utilizations=[], central_utilization=0.0,
        mean_local_queue=0.0, mean_central_queue=0.0)
    assert result.shipped_fraction == 0.0
    assert result.abort_rate == 0.0


def test_negative_ack_counter(env):
    metrics = MetricsCollector(env, warmup_time=5.0)
    metrics.record_negative_ack()  # before warmup: ignored
    assert metrics.counts()["auth_negative_acks"] == 0
    advance(env, 6.0)
    metrics.record_negative_ack()
    assert metrics.counts()["auth_negative_acks"] == 1


def test_negative_ack_trace_carries_txn_and_sites(env):
    from repro.sim.trace import Tracer

    tracer = Tracer()
    metrics = MetricsCollector(env, warmup_time=0.0, tracer=tracer)
    txn = make_txn()
    metrics.record_negative_ack(txn, sites=(2, 5))
    record = tracer.records[-1]
    assert record.kind == "negative-ack"
    assert record.details == {"txn": txn.txn_id, "sites": (2, 5)}


def test_record_message_emits_trace_details(env):
    from repro.sim.trace import Tracer

    tracer = Tracer()
    metrics = MetricsCollector(env, warmup_time=0.0, tracer=tracer)
    metrics.record_message(to_central=True, kind="txn", site=3)
    metrics.record_message(to_central=False, kind="auth-reply", site=1)
    first, second = tracer.records[-2:]
    assert first.kind == "message"
    assert first.details == {"direction": "to-central", "message": "txn",
                             "site": 3}
    assert second.details["direction"] == "to-site"
    assert second.details["message"] == "auth-reply"


# ---------------------------------------------------------------------------
# The event table
# ---------------------------------------------------------------------------

def _message():
    from repro.sim.network import Message

    return Message(kind="txn", payload=None)


def _shipped():
    txn = make_txn(TransactionClass.A, Placement.SHIPPED)
    txn.complete(now=0.5)
    return txn


#: One way to fire each row of ``EVENTS``.
FIRE = {
    "route": lambda m: m.record_routing(_shipped()),
    "arrival": lambda m: m.record_routing(_shipped()),
    "shipped": lambda m: m.record_routing(_shipped()),
    "commit": lambda m: m.record_completion(_shipped()),
    "spans": lambda m: m.record_completion(_shipped()),
    "abort": lambda m: m.record_abort(_shipped(), "deadlock"),
    "auth-round": lambda m: m.record_auth_round(True),
    "message": lambda m: m.record_message(to_central=True),
    "negative-ack": lambda m: m.record_negative_ack(_shipped(), (1,)),
    "protocol": lambda m: m.record_protocol_event("prepare-sent"),
    "fault": lambda m: m.record_fault("site-crash", "apply", site=1),
    "timeout": lambda m: m.record_timeout(_shipped()),
    "failover": lambda m: m.record_failover(_shipped()),
    "txn-failed": lambda m: m.record_failure(_shipped(), "deadline"),
    "cancel": lambda m: m.record_cancelled(_shipped()),
    "fallback": lambda m: m.record_fallback_routing(_shipped(), "stale"),
    "rejected": lambda m: m.record_rejected_arrival(_shipped()),
    "drop": lambda m: m.record_drop(_message()),
    "retransmit": lambda m: m.record_retransmit(_message()),
    "duplicate": lambda m: m.record_duplicate(_message()),
    "shed": lambda m: m.record_shed(_shipped(), node="site-0"),
    "txn-lost": lambda m: m.record_lost_in_crash(_shipped()),
    "deadline-cancel": lambda m: m.record_deadline_cancel(_shipped()),
    "reship": lambda m: m.record_reship(_shipped()),
    "breaker": lambda m: m.record_breaker(0, "open"),
    "takeover": lambda m: m.record_takeover("takeover"),
    "recovery": lambda m: m.record_recovery("failover", None, 1.0, 2.0),
    "fenced": lambda m: m.record_fenced(0),
    "auth-deadline": lambda m: m.record_auth_deadline_refusal(0),
}

#: Trace kinds a row's hook emits on behalf of a sibling row.
SIBLING_KINDS = {"arrival": {"route"}, "shipped": {"route"},
                 "commit": {"spans"}, "spans": {"commit"}}


def test_every_row_has_a_hook_and_kinds_are_unique():
    assert set(FIRE) == set(EVENTS)
    kinds = [row.kind for row in EVENTS.values() if row.kind is not None]
    assert len(kinds) == len(set(kinds)) == 22
    families = [row.family for row in EVENTS.values()]
    assert len(families) == len(set(families))


@pytest.mark.parametrize("name", sorted(EVENTS))
def test_event_row_traces_gates_and_counts(env, name):
    from repro.sim.trace import Tracer

    row = EVENTS[name]
    tracer = Tracer()
    metrics = MetricsCollector(env, warmup_time=5.0, tracer=tracer)
    family = metrics.registry.get(row.family)
    assert family.kind == row.instrument
    assert family.label_names == row.labels

    FIRE[name](metrics)  # inside the warm-up window
    expected = SIBLING_KINDS.get(name, set()) | (
        {row.kind} if row.kind is not None else set())
    assert {record.kind for record in tracer.records} == expected
    assert family.total() == (0 if row.gated else 1)

    advance(env, 6.0)
    FIRE[name](metrics)
    assert family.total() == (1 if row.gated else 2)
    if row.kind is not None:
        # Traces are never gated.
        assert sum(record.kind == row.kind
                   for record in tracer.records) == 2

    counts = metrics.counts()
    if row.field is not None:
        assert counts[row.field] == family.total()
    for value, field_name in row.split:
        assert counts[field_name] == family.labels(value).value


def test_counts_are_simulation_result_fields(env):
    from dataclasses import fields

    from repro.hybrid.metrics import SimulationResult

    counts = MetricsCollector(env, warmup_time=0.0).counts()
    declared = {row.field for row in EVENTS.values() if row.field} | {
        field_name for row in EVENTS.values()
        for _, field_name in row.split}
    assert set(counts) == declared
    assert declared <= {field.name for field in fields(SimulationResult)}
    assert all(value == 0 for value in counts.values())


def test_freeze_reads_counters_and_protocol_counters_from_registry(env):
    metrics = MetricsCollector(env, warmup_time=0.0)
    metrics.record_shed(_shipped(), "site-0")
    metrics.record_shed(_shipped(), "central")
    metrics.record_breaker(3, "open")
    for event in ("vote-granted", "prepare-sent", "vote-granted"):
        metrics.record_protocol_event(event)
    advance(env, 1.0)
    result = metrics.freeze(
        total_rate=1.0, comm_delay=0.2, strategy="t", seed=1,
        local_utilizations=[], central_utilization=0.0,
        mean_local_queue=0.0, mean_central_queue=0.0)
    assert result.arrivals_shed == 2
    assert result.breaker_transitions == 1
    assert result.protocol_counters == {"vote-granted": 2,
                                        "prepare-sent": 1}
    assert list(result.protocol_counters) == ["vote-granted",
                                              "prepare-sent"]
    assert result.metrics["arrivals_shed{node=central}"] == 1


# ---------------------------------------------------------------------------
# The hooks perfbench wraps by name
# ---------------------------------------------------------------------------

#: Hooks the benchmark's ledger wraps: it reads ``txn`` as the first
#: argument of each and derives commits, aborts, retransmits and
#: authentication rounds from their call counts.
LEDGER_HOOKS = ("record_completion", "record_failure", "record_shed",
                "record_rejected_arrival", "record_lost_in_crash",
                "record_abort")
COUNTED_HOOKS = ("record_retransmit", "record_auth_round")


@pytest.mark.parametrize("hook", LEDGER_HOOKS + COUNTED_HOOKS)
def test_benchmark_facing_hooks_are_class_functions(hook):
    import inspect

    function = MetricsCollector.__dict__[hook]
    assert inspect.isfunction(function)
    parameters = list(inspect.signature(function).parameters)
    assert parameters[0] == "self"
    if hook in LEDGER_HOOKS:
        assert parameters[1] == "txn"


def test_record_shed_takes_node_by_keyword_or_position(env):
    metrics = MetricsCollector(env, warmup_time=0.0)
    metrics.record_shed(_shipped(), node="site-0")
    metrics.record_shed(_shipped(), "site-0")
    family = metrics.registry.get("arrivals_shed")
    assert family.labels("site-0").value == 2
    assert metrics.counts()["arrivals_shed"] == 2


def test_benchmark_facing_hooks_fire_once_per_event():
    """Each counted event makes exactly one call to its hook, so a
    ledger built from call counts agrees with the trace and registry."""
    from collections import Counter
    from unittest import mock

    from repro.core import STRATEGIES
    from repro.hybrid import HybridSystem, paper_config
    from repro.sim.faults import resolve_fault_plan
    from repro.sim.trace import Tracer

    calls = Counter()

    def counting(hook):
        original = MetricsCollector.__dict__[hook]

        def wrapper(*args, **kwargs):
            calls[hook] += 1
            return original(*args, **kwargs)

        return wrapper

    hooks = LEDGER_HOOKS + COUNTED_HOOKS
    config = paper_config(total_rate=18.0, warmup_time=0.0,
                          measure_time=20.0, seed=5)
    tracer = Tracer(max_records=None)
    with mock.patch.multiple(MetricsCollector,
                             **{hook: counting(hook) for hook in hooks}):
        # Built inside the patch: the channels bind their callbacks then.
        system = HybridSystem(
            config, STRATEGIES["queue-length"](config), tracer=tracer,
            fault_plan=resolve_fault_plan("breaker-flap", 0.0, 20.0))
        result = system.run()
    kinds = tracer.counts()
    assert calls["record_completion"] == kinds["commit"]
    assert calls["record_abort"] == kinds["abort"] > 0
    assert calls["record_failure"] == kinds["txn-failed"] > 0
    assert calls["record_shed"] == kinds.get("shed", 0)
    assert calls["record_rejected_arrival"] == kinds.get("rejected", 0)
    assert calls["record_lost_in_crash"] == kinds.get("txn-lost", 0)
    assert calls["record_retransmit"] == kinds["retransmit"] > 0
    assert calls["record_auth_round"] == sum(
        value for key, value in result.metrics.items()
        if key.startswith("auth_rounds{"))


def test_percentiles_are_exact_over_measured_responses():
    """The reported percentiles are numpy's over every measured response."""
    from repro.core import STRATEGIES
    from repro.hybrid import HybridSystem, paper_config

    config = paper_config(total_rate=20.0, warmup_time=5.0,
                          measure_time=20.0, seed=3)
    system = HybridSystem(config, STRATEGIES["queue-length"](config))
    metrics = system.metrics
    measured = []
    record_completion = metrics.record_completion

    def spy(txn):
        if metrics.measuring:
            measured.append(txn.response_time)
        record_completion(txn)

    metrics.record_completion = spy
    result = system.run()
    assert len(measured) == result.completed > 100
    p50, p90, p95, p99 = np.percentile(measured, [50, 90, 95, 99])
    assert result.response_time_percentiles == {
        "p50": p50, "p90": p90, "p95": p95, "p99": p99,
        "min": min(measured), "max": max(measured)}
