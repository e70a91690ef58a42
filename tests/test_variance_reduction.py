"""Tests for common random numbers and paired-strategy estimation.

Covers the seed derivation, the paired-difference estimator and their
wiring through the experiment stack, plus the satellite behaviours
(single-core pool fallback, unconverged-point surfacing, CLI flags,
cache-version bump).
"""

import pytest

from repro.experiments.adaptive import run_adaptive_curve_set
from repro.experiments.cache import CACHE_VERSION
from repro.experiments.cli import build_parser
from repro.experiments.parallel import ParallelRunner
from repro.experiments.runner import (
    PrecisionSettings,
    RunSettings,
    build_job,
    run_curve_set,
    run_point,
)
from repro.hybrid.config import WorkloadParams
from repro.sim.rng import crn_seed
from repro.sim.stats import paired_difference

QUICK = dict(warmup_time=6.0, measure_time=20.0)


# -- seed derivation ---------------------------------------------------------

def test_crn_seed_is_deterministic_and_distinct():
    base = crn_seed(7_001, "rate=20.0", 0)
    assert base == crn_seed(7_001, "rate=20.0", 0)
    assert base >= 0
    others = {
        crn_seed(7_001, "rate=20.0", 1),
        crn_seed(7_001, "rate=25.0", 0),
        crn_seed(7_002, "rate=20.0", 0),
    }
    assert base not in others and len(others) == 3


def test_replication_seed_default_keeps_legacy_scheme():
    settings = RunSettings(base_seed=123)
    assert settings.replication_seed(20.0, 0) == 123
    assert settings.replication_seed(20.0, 5) == 128
    # Legacy scheme reuses the same path at every rate.
    assert settings.replication_seed(10.0, 5) == \
        settings.replication_seed(30.0, 5)


def test_replication_seed_crn_pairs_strategies_not_rates():
    settings = RunSettings(base_seed=123, crn=True)
    # Same (rate, replication) -> same seed, whatever the strategy: the
    # seed derivation has no strategy input at all.
    spec_a = build_job(settings, "queue-length", 20.0, 0.2, 3)
    spec_b = build_job(settings, "min-average-population", 20.0, 0.2, 3)
    assert spec_a.config.seed == spec_b.config.seed
    assert spec_a.config.seed == settings.replication_seed(20.0, 3)
    # ... but rates and replications decorrelate.
    assert settings.replication_seed(20.0, 3) != \
        settings.replication_seed(25.0, 3)
    assert settings.replication_seed(20.0, 3) != \
        settings.replication_seed(20.0, 4)


def test_crn_run_is_worker_count_invariant():
    settings = RunSettings(replications=2, scale=0.2, crn=True, **QUICK)
    serial = run_curve_set([("none", "none", [12.0])],
                           settings=settings, workers=1)
    pooled = run_curve_set([("none", "none", [12.0])],
                           settings=settings, workers=2)
    for point_s, point_p in zip(serial[0].points, pooled[0].points):
        for rep_s, rep_p in zip(point_s.replications, point_p.replications):
            assert rep_s.identity_dict() == rep_p.identity_dict()


# -- paired-difference estimation --------------------------------------------

def test_paired_difference_point_estimate_is_difference_of_means():
    a = [1.0, 2.0, 3.0, 4.0]
    b = [0.5, 2.5, 2.0, 5.0]
    delta = paired_difference(a, b)
    expected = sum(a) / len(a) - sum(b) / len(b)
    assert delta.interval.mean == pytest.approx(expected)
    assert delta.unpaired.mean == pytest.approx(expected)
    assert delta.n_pairs == 4


def test_paired_difference_tightens_on_correlated_streams():
    # Strongly correlated pairs (CRN-like): paired CI far tighter.
    noise = [0.9, -0.4, 1.3, -1.1, 0.2, -0.6]
    a = [5.0 + x for x in noise]
    b = [4.0 + 0.9 * x for x in noise]
    delta = paired_difference(a, b)
    assert delta.variance_reduction > 5.0
    assert delta.interval.half_width < delta.unpaired.half_width
    with pytest.raises(ValueError):
        paired_difference([1.0], [2.0])


def test_paired_curves_under_crn_flag_and_pair():
    settings = RunSettings(replications=2, scale=0.15, crn=True, **QUICK)
    curves = run_curve_set(
        [("none", "none", [12.0]), ("queue-length", "ql", [12.0])],
        settings=settings, workers=1)
    from repro.analysis.variance import paired_curve_difference
    deltas = paired_curve_difference(curves[0], curves[1])
    assert len(deltas) == 1
    assert deltas[0].common_random_numbers  # seed-identical pairs
    assert deltas[0].difference.n_pairs == 2


# -- M/D/1 oracle ----------------------------------------------------------

def test_crn_point_unbiased_on_md1_oracle():
    """A CRN-seeded point agrees with M/D/1 theory on the degenerate
    single-site regime (rho = 0.6, deterministic 0.15 s service):
    W = S + rho*S / (2*(1-rho)) = 0.2625 s."""
    workload = WorkloadParams(n_sites=1, lockspace=1024, locks_per_txn=0,
                              p_local=1.0, arrival_rate_per_site=4.0)
    theory = 0.15 + 0.6 * 0.15 / (2 * 0.4)
    settings = RunSettings(warmup_time=20.0, measure_time=120.0,
                           replications=6, crn=True)
    point = run_point("none", 4.0, settings=settings,
                      workload=workload, io_initial=0.0,
                      io_per_db_call=0.0, instr_commit=0)
    tolerance = point.rt_half_width + 0.10 * theory
    assert abs(point.mean_response_time - theory) <= tolerance, (
        f"mean {point.mean_response_time:.4f} vs theory "
        f"{theory:.4f} (tolerance {tolerance:.4f})")


# -- default-off safety ------------------------------------------------------

def test_flags_off_point_is_plain():
    settings = RunSettings(replications=2, scale=0.2, **QUICK)
    point = run_point("none", 12.0, settings=settings)
    assert [r.seed for r in point.replications] == [7_001, 7_002]


def test_cache_version_bumped_for_covariate_fields():
    # SimulationResult gained covariates/covariate_means at version 4
    # and lost them again at 6; pickles of either schema must not be
    # read back (7 made the percentiles exact; 8 fixed the rejoin
    # faults and dropped the update-batching config fields; 9 deleted
    # the active-set admission bound; 10 deleted the link re-order
    # buffer).
    assert CACHE_VERSION == 10


# -- adaptive integration ----------------------------------------------------

def test_adaptive_reports_unconverged_points():
    settings = PrecisionSettings(scale=0.2, rel_precision=0.0,
                                 min_replications=2, max_replications=2,
                                 crn=True, **QUICK)
    outcome = run_adaptive_curve_set([("none", "none", [12.0])],
                                     settings=settings)
    report = outcome.report
    # rel_precision=0 never converges: surfaced, not silently dropped.
    assert not report.all_converged
    assert report.unconverged_points == report.points
    assert "unconverged at cap" in report.summary()
    assert "none@12" in report.summary()


def test_precision_settings_defaults_and_fixed_equivalent():
    settings = PrecisionSettings(crn=True)
    assert settings.max_replications == 24
    fixed = settings.fixed_equivalent()
    assert fixed.replications == 24
    assert fixed.crn


# -- satellite behaviours ----------------------------------------------------

def test_parallel_runner_single_core_fallback(monkeypatch):
    import repro.experiments.parallel as parallel_mod
    monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 1)
    assert ParallelRunner(workers=4).workers == 1
    assert ParallelRunner(workers=0).workers == 1
    monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 8)
    assert ParallelRunner(workers=4).workers == 4


def test_cli_flags_thread_into_settings():
    parser = build_parser()
    args = parser.parse_args(["--figure", "4.2", "--precision", "0.1",
                              "--crn"])
    assert args.crn
    assert args.max_replications == 24
    defaults = parser.parse_args(["--figure", "4.2"])
    assert not defaults.crn
