"""Unit tests for lifecycle span recording (repro.sim.spans)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.spans import (
    PHASE_AUTH,
    PHASE_COMM,
    PHASE_CPU_SERVICE,
    PHASE_CPU_WAIT,
    PHASE_IO,
    PHASE_LOCK_WAIT,
    PHASE_OTHER,
    PHASES,
    SpanRecorder,
)

ZEROS = {phase: 0.0 for phase in PHASES}


def test_phase_vocabulary_is_complete_and_ordered():
    assert PHASES == ("comm", "cpu-wait", "cpu-service", "io", "lock-wait",
                      "auth", "other")
    # The constants index PHASES in reporting order.
    assert (PHASE_COMM, PHASE_CPU_WAIT, PHASE_CPU_SERVICE, PHASE_IO,
            PHASE_LOCK_WAIT, PHASE_AUTH, PHASE_OTHER) == \
        tuple(range(len(PHASES)))


def test_fresh_recorder_is_empty():
    assert SpanRecorder().as_dict() == ZEROS


def test_enter_accumulates_previous_phase():
    spans = SpanRecorder()
    spans.enter(PHASE_COMM, 1.0)
    spans.enter(PHASE_CPU_WAIT, 3.0)
    spans.enter(PHASE_CPU_SERVICE, 3.5)
    spans.close(4.0)
    assert spans.as_dict() == {**ZEROS, "comm": 2.0, "cpu-wait": 0.5,
                               "cpu-service": 0.5}
    spans.close(9.0)  # closed: later time is attributed nowhere
    assert spans.as_dict()["cpu-service"] == 0.5


def test_exit_falls_back_to_other():
    spans = SpanRecorder()
    spans.enter(PHASE_IO, 0.0)
    spans.exit(2.0)
    spans.close(5.0)
    assert spans.as_dict() == {**ZEROS, "io": 2.0, "other": 3.0}


def test_reentering_phase_accumulates():
    spans = SpanRecorder()
    spans.enter(PHASE_LOCK_WAIT, 0.0)
    spans.enter(PHASE_CPU_SERVICE, 1.0)
    spans.enter(PHASE_LOCK_WAIT, 2.0)
    spans.close(4.5)
    assert spans.as_dict()["lock-wait"] == 3.5


def test_totals_sum_to_lifetime_exactly():
    # The invariant the response-time decomposition relies on: every
    # instant between anchor and close lands in exactly one bucket.
    spans = SpanRecorder()
    times = [0.0, 0.7, 1.13, 2.9, 3.3, 7.25]
    phases = [PHASE_COMM, PHASE_CPU_WAIT, PHASE_CPU_SERVICE,
              PHASE_AUTH, PHASE_OTHER]
    for phase, at in zip(phases, times):
        spans.enter(phase, at)
    spans.close(times[-1])
    lifetime = times[-1] - times[0]
    assert sum(spans.as_dict().values()) == pytest.approx(lifetime,
                                                          rel=1e-12)


def test_zero_duration_phases_leave_no_bucket():
    spans = SpanRecorder()
    spans.enter(PHASE_COMM, 1.0)
    spans.enter(PHASE_AUTH, 1.0)
    spans.enter(PHASE_IO, 1.0)
    spans.close(2.0)
    assert spans.as_dict() == {**ZEROS, "io": 1.0}


def test_close_without_enter_is_harmless():
    spans = SpanRecorder()
    spans.close(3.0)
    assert spans.as_dict() == ZEROS


def _make_txn(txn_id: int):
    from repro.db.transaction import Transaction, TransactionClass

    return Transaction(txn_id=txn_id, txn_class=TransactionClass.A,
                       home_site=0, references=(), arrival_time=0.0)


def test_transaction_carries_private_recorder():
    first = _make_txn(1)
    second = _make_txn(2)
    assert first.spans is not second.spans
    first.spans.enter(PHASE_COMM, 0.0)
    first.spans.close(1.0)
    second.spans.close(1.0)
    assert first.spans.as_dict() == {**ZEROS, "comm": 1.0}
    assert second.spans.as_dict() == ZEROS


def test_transaction_complete_closes_spans():
    txn = _make_txn(1)
    txn.spans.enter(PHASE_CPU_SERVICE, 0.0)
    txn.complete(2.5)
    txn.spans.close(4.0)  # already closed: adds nothing
    assert txn.spans.as_dict() == {**ZEROS, "cpu-service": 2.5}


# ---------------------------------------------------------------------------
# Differential test against the dict-based recorder the list-based one
# replaced.  ``DictSpanRecorder`` is that implementation, kept verbatim
# (names for phases, a ``> 0`` test before each accumulation).
# ---------------------------------------------------------------------------

_OTHER = "other"


class DictSpanRecorder:
    __slots__ = ("totals", "transitions", "started_at", "closed_at",
                 "_phase", "_since")

    def __init__(self) -> None:
        self.totals: dict[str, float] = {}
        self.transitions = 0
        self.started_at: float | None = None
        self.closed_at: float | None = None
        self._phase: str | None = None
        self._since = 0.0

    def enter(self, phase: str, now: float) -> None:
        if self.started_at is None:
            self.started_at = now
        else:
            self._accumulate(now)
        self._phase = phase
        self._since = now
        self.transitions += 1

    def exit(self, now: float, fallback: str = _OTHER) -> None:
        self.enter(fallback, now)

    def close(self, now: float) -> None:
        if self.started_at is None:
            self.started_at = now
        self._accumulate(now)
        self._phase = None
        self.closed_at = now

    def _accumulate(self, now: float) -> None:
        if self._phase is not None:
            elapsed = now - self._since
            if elapsed > 0.0:
                self.totals[self._phase] = \
                    self.totals.get(self._phase, 0.0) + elapsed

    def as_dict(self) -> dict[str, float]:
        return {phase: self.totals.get(phase, 0.0) for phase in PHASES}


# Steps are (operation, phase index, time advance).  Advances of 0.0 give
# zero-length phases and several switches at one instant; the narrow
# phase range makes repeated phases common, and ``enter`` after ``close``
# is a rerun of a closed timeline.
_steps = st.lists(
    st.tuples(st.sampled_from(["enter", "enter", "exit", "close"]),
              st.integers(min_value=0, max_value=len(PHASES) - 1),
              st.one_of(st.just(0.0),
                        st.floats(min_value=0.0, max_value=50.0,
                                  allow_nan=False),
                        st.floats(min_value=0.0, max_value=1e-9,
                                  allow_nan=False))),
    max_size=40)


@settings(max_examples=300, deadline=None)
@given(start=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
       steps=_steps)
def test_matches_dict_based_recorder_exactly(start, steps):
    new, old = SpanRecorder(), DictSpanRecorder()
    now = start
    for operation, phase, advance in steps:
        now += advance
        if operation == "enter":
            new.enter(phase, now)
            old.enter(PHASES[phase], now)
        elif operation == "exit":
            new.exit(now)
            old.exit(now)
        else:
            new.close(now)
            old.close(now)
        assert new.as_dict() == old.as_dict()
