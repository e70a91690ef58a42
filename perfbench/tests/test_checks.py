from types import SimpleNamespace

import pytest

import checks
import layers
from run import Repeater, Tally
from spans import Recorder
from workloads import Workload

FINGERPRINT = {
    "strategy": "queue-length", "protocol": "optimistic", "total_rate": 10.0,
    "completed": 40, "aborts_deadlock": 1, "aborts_local_invalidated": 0,
    "aborts_central_invalidated": 2, "mean_response_time": 1.234567890123,
    "engine_events": 5_000,
}


def test_matching_fingerprint_passes():
    records = [checks.SimRecord(fingerprint=dict(FINGERPRINT))]
    assert checks.unit_failures(records, [dict(FINGERPRINT)], None) == []


@pytest.mark.parametrize("field, value", [
    ("completed", 41),
    ("aborts_deadlock", 0),
    ("mean_response_time", 1.234567890124),
    ("engine_events", 5_001),
])
def test_perturbed_fingerprint_is_a_failure(field, value):
    records = [checks.SimRecord(fingerprint=dict(FINGERPRINT))]
    perturbed = [dict(FINGERPRINT, **{field: value})]
    for expected, reference in ((perturbed, None), (None, perturbed)):
        failures = checks.unit_failures(records, expected, reference)
        assert len(failures) == 1
        assert "fingerprint differs" in failures[0]


def _system(now=100.0, run_until=100.0):
    return SimpleNamespace(config=SimpleNamespace(run_until=run_until),
                           env=SimpleNamespace(now=now, events_processed=7),
                           sites=[], standby=None)


class _Txn:
    def __init__(self, txn_id, completed_at=None):
        self.txn_id = txn_id
        self.completed_at = completed_at


def test_conservation_holds_with_transactions_in_flight():
    ledger = checks.Ledger()
    ledger._begin()
    txns = [_Txn(i) for i in range(4)]
    for txn in txns:
        ledger._arrived(txn)
    ledger._ended("commits", txns[0])
    ledger._ended("failed", txns[1])
    record = ledger._finish(_system(), None)
    assert record.problems == []
    assert record.balance == {"arrivals": 4, "commits": 1, "failed": 1,
                              "shed": 0, "rejected": 0, "lost": 0,
                              "in_flight": 2}


def test_ending_a_transaction_twice_breaks_conservation():
    ledger = checks.Ledger()
    ledger._begin()
    txn = _Txn(1)
    ledger._arrived(txn)
    ledger._ended("commits", txn)
    ledger._ended("lost", txn)
    problems = ledger._finish(_system(), None).problems
    assert any("was not in flight" in problem for problem in problems)
    assert any("conservation broken" in problem for problem in problems)


def test_unrecorded_commit_and_overrun_horizon_are_failures():
    ledger = checks.Ledger()
    ledger._begin()
    txn = _Txn(1, completed_at=5.0)
    ledger._arrived(txn)
    problems = ledger._finish(_system(now=101.0), None).problems
    assert any("never recorded" in problem for problem in problems)
    assert any("past horizon" in problem for problem in problems)


def test_transaction_dropped_without_terminal_state_breaks_conservation():
    ledger = checks.Ledger()
    ledger._begin()
    held, dropped = _Txn(1), _Txn(2)
    ledger._arrived(held)
    ledger._arrived(dropped)
    del dropped  # no terminal record, and nothing holds it any more
    record = ledger._finish(_system(), None)
    assert record.balance["in_flight"] == 1
    assert any("conservation broken" in problem
               for problem in record.problems)
    assert any("without a terminal state, first [2]" in problem
               for problem in record.problems)


# -- real simulations -----------------------------------------------------


def _tiny(seed: int) -> None:
    from repro.experiments import runner

    runner.run_single("queue-length", 12.0, settings=runner.RunSettings(
        warmup_time=1.0, measure_time=6.0, base_seed=seed))


TINY = Workload("tiny", _tiny, simulations=1)


def test_simulation_with_perturbed_stored_fingerprint_fails():
    clean = Tally(TINY, seed=1)
    _, _, records = Repeater(TINY, 1, clean, log=lambda line: None).once("a")
    assert (clean.attempted, clean.failed) == (1, 0)

    stored = records[0].fingerprint
    perturbed = Tally(TINY, seed=1)
    perturbed.expected = [dict(stored, completed=stored["completed"] + 1)]
    Repeater(TINY, 1, perturbed, log=lambda line: None).once("b")
    assert (perturbed.attempted, perturbed.failed) == (1, 1)
    assert "stored" in perturbed.failures[0]


def test_simulation_that_drops_a_transaction_fails(monkeypatch):
    from repro.hybrid.local import LocalSite

    submit = LocalSite.submit

    def submit_dropping(site, txn):
        if txn.txn_id != 5:
            submit(site, txn)

    monkeypatch.setattr(LocalSite, "submit", submit_dropping)
    tally = Tally(TINY, seed=1)
    Repeater(TINY, 1, tally, log=lambda line: None).once("dropping")
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "without a terminal state" in tally.failures[0]


def test_repetitions_must_reproduce_the_first():
    tally = Tally(TINY, seed=3)
    repeater = Repeater(TINY, 3, tally, log=lambda line: None)
    repeater.once("first")
    tally.first[0] = dict(tally.first[0], engine_events=-1)
    repeater.once("second")
    assert (tally.attempted, tally.failed) == (2, 1)


def test_traced_counts_repeat_exactly():
    tally = Tally(TINY, seed=2)
    repeater = Repeater(TINY, 2, tally, log=lambda line: None)
    counts = []
    for label in ("one", "two"):
        recorder = Recorder()
        _, gauge, records = repeater.once(label, recorder)
        metrics = layers.layer_metrics(recorder, records, gauge.adjust)
        counts.append({name: value for name, value in metrics.items()
                       if name not in layers.TIMES})
    assert tally.failed == 0
    assert counts[0] == counts[1]
    assert counts[0]["engine.events"] > 0
    assert counts[0]["hybrid.commits"] > 0
