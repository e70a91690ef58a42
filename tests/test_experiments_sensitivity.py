"""Unit tests for the sensitivity-analysis harness."""

import pytest

from dataclasses import replace

from repro.experiments.sensitivity import (
    REFERENCE_STRATEGIES,
    SENSITIVITY_SETTINGS,
    _configure as _overrides,
    sweep_parameter,
)
from repro.hybrid import paper_config


BASE = paper_config(total_rate=20.0)

#: The sweep's default seed at a short horizon.
SHORT = replace(SENSITIVITY_SETTINGS, warmup_time=3.0, measure_time=10.0)


def _configure(parameter, value, base):
    """The configuration one swept value's overrides produce."""
    return base.with_options(**_overrides(parameter, value, base))


def test_configure_comm_delay():
    config = _configure("comm_delay", 0.7, BASE)
    assert config.comm_delay == 0.7


def test_configure_central_mips():
    config = _configure("central_mips", 25.0, BASE)
    assert config.central_mips == 25.0


def test_configure_p_local():
    config = _configure("p_local", 0.6, BASE)
    assert config.workload.p_local == 0.6
    assert config.workload.total_arrival_rate == pytest.approx(20.0)


def test_configure_n_sites_preserves_total_rate():
    config = _configure("n_sites", 5, BASE)
    assert config.workload.n_sites == 5
    assert config.workload.arrival_rate_per_site == pytest.approx(4.0)
    assert config.workload.total_arrival_rate == pytest.approx(20.0)


def test_configure_unknown_parameter():
    with pytest.raises(ValueError):
        _configure("voltage", 5.0, BASE)


def test_sweep_structure():
    sweep = sweep_parameter("comm_delay", [0.2, 0.4], total_rate=10.0,
                            settings=SHORT)
    assert sweep.parameter == "comm_delay"
    assert sweep.values() == (0.2, 0.4)
    for strategy in REFERENCE_STRATEGIES:
        series = sweep.series(strategy)
        assert len(series) == 2
        assert all(value > 0 for value in series)
    assert len(sweep.optimal_p_ships()) == 2
    table = sweep.to_table()
    assert "comm_delay" in table
    assert "p_ship*" in table


def test_sweep_points_carry_fractions():
    sweep = sweep_parameter("central_mips", [15.0], total_rate=10.0,
                            settings=SHORT)
    point = sweep.points[0]
    assert point.parameter == "central_mips"
    assert set(point.shipped_fractions) == set(REFERENCE_STRATEGIES)
    assert point.shipped_fractions["none"] == 0.0
    assert 0.0 <= point.optimal_p_ship <= 1.0
