"""Model-vs-simulator validation bench (the reproduction's own check).

The paper's methodology rests on the Section 3.1 analytic model being a
usable predictor of the simulated system.  This bench evaluates both on
a stable-load grid and asserts the model tracks the simulator within a
reasonable band -- loose enough for an asymptotic fixed-point model,
tight enough to make the static optimiser and the dynamic estimates
meaningful.
"""

from dataclasses import replace

from conftest import BENCH_SCALE, run_once

from repro.experiments import validate_model
from repro.experiments.validation import VALIDATION_SETTINGS


def test_model_tracks_simulator(benchmark):
    settings = replace(VALIDATION_SETTINGS,
                       warmup_time=25.0 * BENCH_SCALE + 5.0,
                       measure_time=75.0 * BENCH_SCALE + 15.0)
    report = run_once(benchmark, lambda: validate_model(settings=settings))
    print()
    print(report.to_table())
    print(f"\n  mean |error| = {report.mean_abs_error:.1%}, "
          f"max |error| = {report.max_abs_error:.1%}")

    # Aggregate agreement across the stable grid.
    assert report.mean_abs_error < 0.20
    assert report.max_abs_error < 0.45

    # The model must rank loads correctly: response increases with rate
    # at fixed p_ship, for the model exactly as for the simulator.
    by_pship: dict[float, list] = {}
    for point in report.points:
        by_pship.setdefault(point.p_ship, []).append(point)
    for points in by_pship.values():
        points.sort(key=lambda p: p.total_rate)
        model_series = [p.model_response for p in points]
        assert model_series == sorted(model_series)
