"""Assorted unit tests for smaller internal behaviours."""

import itertools

import pytest

from repro.core.model import AnalyticModel
from repro.core.router import AlwaysLocalRouter
from repro.db import LockMode, Reference, Transaction, TransactionClass
from repro.experiments.report import figure_report
from repro.hybrid import HybridSystem, paper_config

IDS = itertools.count(90_000)


# ---------------------------------------------------------------------------
# Figure report: shipped-fraction metric branch
# ---------------------------------------------------------------------------

def test_figure_report_uses_fraction_metric_for_fraction_axis():
    from repro.experiments.figures import FigureData
    from repro.experiments.runner import Curve, CurvePoint

    point = CurvePoint(total_rate=10.0, mean_response_time=1.5,
                       throughput=10.0, shipped_fraction=0.42,
                       abort_rate=0.0, local_utilization=0.5,
                       central_utilization=0.5)
    curve = Curve(label="demo", comm_delay=0.2, points=(point,))
    figure = FigureData(figure_id="x", title="t",
                        x_axis="total transaction rate (tps)",
                        y_axis="fraction of class A transactions shipped",
                        comm_delay=0.2, curves=(curve,),
                        expectations=("e",))
    report = figure_report(figure)
    assert "0.420" in report      # fraction, not the 1.500 response time
    assert "1.500" not in report


# ---------------------------------------------------------------------------
# Local site internals
# ---------------------------------------------------------------------------

def make_b_txn(entities, site=0):
    return Transaction(
        txn_id=next(IDS), txn_class=TransactionClass.B, home_site=site,
        references=tuple(Reference(e, LockMode.EXCLUSIVE)
                         for e in entities),
        arrival_time=0.0)


def test_split_references_orders_home_first():
    cfg = paper_config(total_rate=1e-6, class_b_mode="remote-call")
    system = HybridSystem(cfg, lambda c, i: AlwaysLocalRouter())
    site = system.sites[2]
    start, end = system.partition.site_range(2)
    other = system.partition.site_range(5)[0]
    txn = make_b_txn([other, start, other + 1, start + 1], site=2)
    local_refs, remote_refs = site._split_references(txn)
    assert [ref.entity for ref in local_refs] == [start, start + 1]
    assert [ref.entity for ref in remote_refs] == [other, other + 1]


# ---------------------------------------------------------------------------
# Analytic model internals
# ---------------------------------------------------------------------------

def test_rates_split():
    model = AnalyticModel(paper_config(total_rate=10.0))
    rates = model._rates(p_ship=0.4, rate=2.0)
    assert rates["local_new"] == pytest.approx(2.0 * 0.75 * 0.6)
    assert rates["central_new_db"] == pytest.approx(
        2.0 * (0.25 + 0.75 * 0.4))


def test_rerun_shrink_between_zero_and_one():
    model = AnalyticModel(paper_config(total_rate=10.0))
    shrink = model._rerun_shrink(1.0, first_io=True)
    assert 0.0 < shrink < 1.0
    # No I/O in the phase: nothing to shrink.
    assert model._rerun_shrink(0.0, first_io=True) == 1.0


def test_model_estimates_expose_total_rate_alias():
    model = AnalyticModel(paper_config(total_rate=10.0))
    estimate = model.evaluate(0.2, 1.0)
    assert estimate.rate_per_site == 1.0


# ---------------------------------------------------------------------------
# Metrics result derived properties
# ---------------------------------------------------------------------------

def test_result_abort_rate_and_shipped_fraction():
    cfg = paper_config(total_rate=12.0, warmup_time=10.0,
                       measure_time=30.0)
    from repro.core import STRATEGIES

    result = HybridSystem(cfg, STRATEGIES["static-optimal"](cfg)).run()
    assert 0.0 <= result.shipped_fraction <= 1.0
    assert result.abort_rate >= 0.0
    assert result.completed > 0
    # Percentile ordering embedded in the result.
    p = result.response_time_percentiles
    assert p["p50"] <= p["p90"] <= p["p95"] <= p["p99"] <= p["max"]
