"""Residual-time distributions for the abort-probability estimates.

Section 3.1 of the paper estimates which party of a local/central
collision aborts from approximate residual-time distributions:

* the *local* transaction makes lock requests uniformly over its run, so
  at a collision instant its remaining time is **uniform** on ``[0, T]``;
* the probability of colliding with a *central* transaction is
  proportional to the number of locks it already holds, so its remaining
  time ``x`` has density proportional to ``(T - x)`` on ``[0, T]`` (more
  locks held means the transaction is older, hence collisions skew toward
  transactions that are nearly finished);
* during the authentication communications delay the remaining time is
  uniform.

The local transaction aborts when it finishes *after* the authentication
point of the central transaction it collided with; otherwise the central
transaction is the one invalidated.  :func:`probability_local_outlives`
computes that comparison for the distributions above.
"""

from __future__ import annotations

__all__ = [
    "uniform_residual_mean",
    "triangular_residual_mean",
    "probability_local_outlives",
    "mean_holding_time",
]


def uniform_residual_mean(duration: float) -> float:
    """Mean remaining time when the observation instant is uniform."""
    if duration < 0:
        raise ValueError("negative duration")
    return duration / 2.0


def triangular_residual_mean(duration: float) -> float:
    """Mean remaining time under the lock-count-biased density.

    Density f(x) = 2 (T - x) / T^2 on [0, T] gives E[x] = T / 3: a
    collision weighted by locks held lands late in the holder's run.
    """
    if duration < 0:
        raise ValueError("negative duration")
    return duration / 3.0


def mean_holding_time(run_time: float, locks_per_txn: int) -> float:
    """Average per-lock holding time when locks are taken uniformly.

    Lock ``k`` of ``N`` (acquired after a fraction ``k/N`` of the locked
    phase) is held for the remaining ``(N - k + 1) / N`` of ``run_time``;
    averaging over ``k`` gives ``run_time * (N + 1) / (2N)``.
    """
    if run_time < 0:
        raise ValueError("negative run time")
    if locks_per_txn < 1:
        raise ValueError("need at least one lock per transaction")
    n = float(locks_per_txn)
    return run_time * (n + 1.0) / (2.0 * n)


def probability_local_outlives(local_run_time: float,
                               central_run_time: float,
                               auth_delay: float,
                               samples: int = 64) -> float:
    """P(local transaction finishes after the central's authentication).

    The local remaining time ``L`` is uniform on ``[0, T_l]``; the
    central remaining-to-authentication time is ``X + D`` where ``X`` has
    the triangular density ``2 (T_c - x) / T_c**2`` on ``[0, T_c]`` and
    ``D`` is the (deterministic) communications delay of the
    authentication message.  The probability is computed by numeric
    integration over ``X`` (closed-form is straightforward but the
    integral keeps the expression auditable against the paper's prose).
    """
    if local_run_time < 0 or central_run_time < 0 or auth_delay < 0:
        raise ValueError("negative times")
    if local_run_time == 0:
        return 0.0
    if central_run_time == 0:
        # Central is at its very end: local outlives iff L > delay.
        return max(0.0, 1.0 - auth_delay / local_run_time) \
            if auth_delay < local_run_time else 0.0
    total = 0.0
    t_c = central_run_time
    t_c2 = t_c * t_c
    step = t_c / samples
    for i in range(samples):
        x = (i + 0.5) * step
        density = 2.0 * (t_c - x) / t_c2
        threshold = x + auth_delay
        if threshold >= local_run_time:
            # The threshold never decreases, so this term and every
            # later one is ``density * 0.0 * step``: a signed zero (or a
            # NaN this first one carries) that adds nothing after it.
            total += density * 0.0 * step
            break
        total += density * (1.0 - threshold / local_run_time) * step
    return min(max(total, 0.0), 1.0)
