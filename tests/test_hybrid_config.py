"""Unit tests for the system configuration (repro.hybrid.config)."""

import pytest

from repro.hybrid import PAPER_BASE, SystemConfig, paper_config


def test_paper_base_matches_section_4_1():
    assert PAPER_BASE.central_mips == 15.0
    assert PAPER_BASE.local_mips == 1.0
    assert PAPER_BASE.comm_delay == 0.2
    assert PAPER_BASE.workload.n_sites == 10
    assert PAPER_BASE.workload.lockspace == 32 * 1024
    assert PAPER_BASE.workload.p_local == 0.75


def test_pathlengths_match_section_3_1():
    # 10 calls x 30K instructions + 150K message/initiation instructions.
    assert PAPER_BASE.instr_per_db_call == 30_000
    assert PAPER_BASE.instr_txn_overhead == 150_000
    assert PAPER_BASE.instr_per_txn == 450_000


def test_cpu_seconds_conversions():
    cfg = PAPER_BASE
    assert cfg.cpu_seconds_local(1_000_000) == pytest.approx(1.0)
    assert cfg.cpu_seconds_central(15_000_000) == pytest.approx(1.0)
    assert cfg.cpu_seconds_local(30_000) == pytest.approx(0.03)


def test_local_vs_central_service_ratio():
    # The same pathlength runs 15x faster at the central site.
    cfg = PAPER_BASE
    local = cfg.cpu_seconds_local(cfg.instr_per_txn)
    central = cfg.cpu_seconds_central(cfg.instr_per_txn)
    assert local / central == pytest.approx(15.0)


def test_collision_constant_is_nl_over_lockspace():
    cfg = PAPER_BASE
    assert cfg.collision_constant == pytest.approx(10 / 32768)


def test_total_io_time():
    cfg = PAPER_BASE
    assert cfg.total_io_time == pytest.approx(
        cfg.io_initial + 10 * cfg.io_per_db_call)


def test_with_rate():
    cfg = PAPER_BASE.with_rate(2.5)
    assert cfg.workload.arrival_rate_per_site == 2.5
    assert cfg.central_mips == PAPER_BASE.central_mips


def test_with_total_rate_splits_evenly():
    cfg = PAPER_BASE.with_total_rate(30.0)
    assert cfg.workload.arrival_rate_per_site == pytest.approx(3.0)
    assert cfg.workload.total_arrival_rate == pytest.approx(30.0)


def test_with_options():
    cfg = PAPER_BASE.with_options(comm_delay=0.5, seed=1)
    assert cfg.comm_delay == 0.5
    assert cfg.seed == 1
    # Original untouched (frozen dataclass semantics).
    assert PAPER_BASE.comm_delay == 0.2


def test_paper_config_base_case():
    cfg = paper_config(total_rate=20.0)
    assert cfg.workload.total_arrival_rate == pytest.approx(20.0)
    assert cfg.comm_delay == 0.2


def test_paper_config_sensitivity_case():
    cfg = paper_config(total_rate=20.0, comm_delay=0.5)
    assert cfg.comm_delay == 0.5


def test_paper_config_seed_and_overrides():
    cfg = paper_config(total_rate=10.0, seed=7, warmup_time=5.0)
    assert cfg.seed == 7
    assert cfg.warmup_time == 5.0


def test_paper_config_rejects_bad_rate():
    with pytest.raises(ValueError):
        paper_config(total_rate=0.0)
    with pytest.raises(ValueError):
        paper_config(total_rate=float("inf"))


def test_run_until():
    cfg = PAPER_BASE.with_options(warmup_time=10.0, measure_time=50.0)
    assert cfg.run_until == 60.0


@pytest.mark.parametrize("kwargs", [
    {"central_mips": 0.0},
    {"local_mips": -1.0},
    {"comm_delay": -0.1},
    {"instr_commit": -1},
    {"io_initial": -0.1},
    {"epoch_interval": 0.0},
    {"measure_time": 0.0},
])
def test_invalid_config_rejected(kwargs):
    with pytest.raises(ValueError):
        SystemConfig(**kwargs)


def test_describe_mentions_key_parameters():
    text = PAPER_BASE.describe()
    assert "10 sites" in text
    assert "15.0 MIPS" in text or "15 MIPS" in text
