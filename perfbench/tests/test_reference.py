import gc

import pytest

import reference
from reference import NOMINAL_CHUNK_S, Gauge, adjust


def test_checksum_pins_the_loop():
    assert (reference.checksum_of(reference.CHECKSUM_CHUNKS)
            == reference.REFERENCE_CHECKSUM)


def test_kernel_allocates_nothing_the_collector_tracks():
    state = reference.KernelState()
    reference.reference_kernel(state, 100)  # warm the table
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        before = gc.get_count()[0]
        reference.reference_kernel(state, 5 * reference.CHUNK_ITERATIONS)
        assert gc.get_count()[0] <= before
    finally:
        if was_enabled:
            gc.enable()


def test_adjust_is_identity_at_nominal_speed():
    assert adjust(2.0, NOMINAL_CHUNK_S) == pytest.approx(2.0)


def test_adjust_divides_out_a_slower_host():
    # The host ran at half speed: chunks took twice as long, and so did
    # the program; the adjusted figure is what a nominal host would take.
    assert adjust(3.0, 2 * NOMINAL_CHUNK_S) == pytest.approx(1.5)
    assert adjust(1.0, NOMINAL_CHUNK_S / 2) == pytest.approx(2.0)


@pytest.mark.parametrize("raw_s, chunk_s", [(-1.0, 1e-3), (1.0, 0.0)])
def test_adjust_rejects_impossible_times(raw_s, chunk_s):
    with pytest.raises(ValueError):
        adjust(raw_s, chunk_s)


def test_gauge_adjusts_by_its_mean_chunk():
    gauge = Gauge()
    gauge.cpu_s, gauge.chunks = 4 * NOMINAL_CHUNK_S, 2
    assert gauge.chunk_s == pytest.approx(2 * NOMINAL_CHUNK_S)
    assert gauge.adjust(1.0) == pytest.approx(0.5)


def test_gauge_runs_at_least_one_chunk():
    with Gauge() as gauge:
        pass
    assert gauge.chunks >= 1
    assert gauge.chunk_s > 0
