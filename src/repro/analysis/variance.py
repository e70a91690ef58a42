"""Paired curve deltas: the estimator common random numbers sharpen.

The paired-t estimator lives in :mod:`repro.sim.stats`
(:func:`~repro.sim.stats.paired_difference`); this module connects it
to the experiment stack.  :func:`paired_curve_difference` ranks two
strategy curves rate by rate with paired-t deltas -- the estimator that
common random numbers (:func:`repro.sim.rng.crn_seed`) exist to
sharpen.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.stats import PairedDifference, paired_difference

__all__ = [
    "PairedPointDelta",
    "paired_curve_difference",
]


@dataclass(frozen=True)
class PairedPointDelta:
    """Strategy-vs-strategy delta at one rate of a paired curve pair."""

    total_rate: float
    #: ``mean_rt(a) - mean_rt(b)`` with the paired-t machinery.
    difference: PairedDifference
    #: Whether the paired replications actually ran on common random
    #: numbers (seed-identical pairs) -- without CRN the paired CI is
    #: still valid, just no tighter than the independent one.
    common_random_numbers: bool

    @property
    def significant(self) -> bool:
        """The paired CI excludes zero (one curve provably better)."""
        interval = self.difference.interval
        return interval.low > 0.0 or interval.high < 0.0


def paired_curve_difference(curve_a, curve_b,
                            confidence: float = 0.95,
                            ) -> tuple[PairedPointDelta, ...]:
    """Pair two curves' replications rate by rate.

    Both curves must sweep the same rates (they do within a figure).
    Rates where either side has fewer than two replications are
    skipped -- no paired variance exists there.
    """
    by_rate = {point.total_rate: point for point in curve_b.points}
    deltas = []
    for point_a in curve_a.points:
        point_b = by_rate.get(point_a.total_rate)
        if point_b is None:
            continue
        reps_a, reps_b = point_a.replications, point_b.replications
        pairs = min(len(reps_a), len(reps_b))
        if pairs < 2:
            continue
        difference = paired_difference(
            [r.mean_response_time for r in reps_a],
            [r.mean_response_time for r in reps_b],
            confidence=confidence)
        crn = all(a.seed == b.seed for a, b in
                  zip(reps_a[:pairs], reps_b[:pairs]))
        deltas.append(PairedPointDelta(
            total_rate=point_a.total_rate, difference=difference,
            common_random_numbers=crn))
    return tuple(deltas)
