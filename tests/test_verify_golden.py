"""Tests for golden-trace regression (repro.verify.golden).

Includes the seeded-mutation demonstration required of the verification
subsystem: flipping lock-mode compatibility (a one-line protocol bug) is
caught both by the golden fingerprint and by the invariant checker.
"""

import json
from unittest import mock

import pytest

from repro.db.locks import LockMode
from repro.verify.golden import (
    GOLDEN_DIR_ENV,
    GOLDEN_SCENARIOS,
    SCENARIOS,
    fingerprint,
    golden_dir,
    golden_path,
    serialize,
    update_goldens,
)


def scenario(name):
    return next(s for s in SCENARIOS if s.name == name)


def test_scenarios_have_unique_names_and_checks():
    names = [s.name for s in SCENARIOS]
    assert len(names) == len(set(names))
    # Four fault-free runs and five fault-plan runs (failover under
    # both 2pc and epoch).
    assert len(SCENARIOS) == 9
    assert set(GOLDEN_SCENARIOS) == {f"golden-{name}" for name in names}


def test_golden_files_committed():
    for s in SCENARIOS:
        assert golden_path(s).is_file(), \
            f"missing golden file for {s.name}; run " \
            f"hybriddb-verify --update-golden"


@pytest.mark.slow
def test_fingerprints_match_committed_goldens():
    for name, check in GOLDEN_SCENARIOS.items():
        result = check.run()
        assert result.passed, f"{name}: {result.details}"


@pytest.mark.slow
def test_regeneration_is_deterministic(tmp_path):
    first = update_goldens(names=["baseline-none"], directory=tmp_path)
    assert len(first) == 1
    once = first[0].read_bytes()
    update_goldens(names=["baseline-none"], directory=tmp_path)
    assert first[0].read_bytes() == once
    # ... and byte-identical to the committed file (which an earlier
    # independent process produced).
    assert once == golden_path(scenario("baseline-none")).read_bytes()


def test_hot_scenario_exercises_every_abort_path():
    data = json.loads(golden_path(
        scenario("queue-length-hot")).read_text())
    counts = data["counts"]
    assert counts["aborts_deadlock"] > 0
    assert counts["aborts_local_invalidated"] > 0
    assert counts["aborts_central_invalidated"] > 0
    assert counts["auth_negative_acks"] > 0
    assert counts["class_a_shipped"] > 0
    assert data["trace"]["records"] > counts["completed"]
    assert len(data["trace"]["sha256"]) == 64


def test_missing_golden_reports_update_hint(tmp_path, monkeypatch):
    monkeypatch.setenv(GOLDEN_DIR_ENV, str(tmp_path))
    assert golden_dir() == tmp_path
    result = GOLDEN_SCENARIOS["golden-baseline-none"].run()
    assert not result.passed
    assert "--update-golden" in result.details


@pytest.mark.slow
def test_lock_compatibility_mutation_caught_by_golden():
    """A seeded protocol bug must trip the fingerprint.

    Making every lock-mode pair compatible silently disables collision
    handling; the hot scenario's deadlock/invalidation counters and the
    trace digest all shift, so the golden check fails loudly.
    """
    with mock.patch.object(LockMode, "compatible_with",
                           lambda self, other: True):
        result = GOLDEN_SCENARIOS["golden-queue-length-hot"].run()
    assert not result.passed
    assert "aborts_deadlock" in result.details


def test_lock_compatibility_mutation_caught_by_checker():
    """The same seeded bug also trips the invariant checker's audit."""
    from repro.core import STRATEGIES
    from repro.hybrid import HybridSystem, paper_config
    from repro.hybrid.checker import InvariantViolation, attach_checker

    config = paper_config(total_rate=25.0, warmup_time=2.0,
                          measure_time=20.0, seed=20_240_601)
    system = HybridSystem(config, STRATEGIES["queue-length"](config))
    attach_checker(system, interval=0.25)
    with mock.patch.object(LockMode, "compatible_with",
                           lambda self, other: True):
        with pytest.raises(InvariantViolation, match="incompatible"):
            system.run()


def test_serialize_is_canonical():
    data = {"b": 2, "a": {"d": 4, "c": 3}}
    text = serialize(data)
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == data


@pytest.mark.slow
def test_fingerprint_scenario_metadata():
    data = fingerprint(scenario("baseline-none"))
    assert data["scenario"]["strategy"] == "none"
    assert data["counts"]["completed"] > 0
    assert data["counts"]["class_a_shipped"] == 0
    assert data["trace"]["records"] > 0


def test_fault_scenarios_pin_their_plan_and_registry():
    """Each fault scenario records its canned plan, and every golden
    pins the run's metrics-registry snapshot."""
    from repro.sim.faults import NAMED_PLANS

    for s in SCENARIOS:
        data = json.loads(golden_path(s).read_text())
        assert data["metrics"]["txn_completed"] == \
            data["counts"]["completed"]
        if s.fault_plan is None:
            assert "fault_plan" not in data["scenario"]
            assert data["metrics"]["fault_events"] == 0
        else:
            assert s.fault_plan in NAMED_PLANS
            assert data["scenario"]["fault_plan"] == s.fault_plan
            assert data["metrics"]["fault_events"] > 0
