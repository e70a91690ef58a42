"""Shared plumbing of the verification subsystem.

Every check family (oracles, metamorphic relations, goldens,
differential pairs) exposes named :class:`Check` objects built from a
plain function ``run(settings) -> CheckResult``.  The CLI and the pytest
wiring both iterate the same registries, so a check can never pass in
one harness and silently not exist in the other.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable

from ..experiments.runner import RunSettings
from .compare import format_diff

__all__ = ["VerifySettings", "CheckResult", "Check", "registry",
           "run_settings", "identity_details"]


@dataclass(frozen=True)
class VerifySettings:
    """Knobs shared by every verification check.

    ``scale`` stretches or shrinks the simulated horizons of the checks
    that simulate (oracles, relations, differential pairs) -- ``--quick``
    uses a small scale.  Golden scenarios deliberately ignore it: their
    fingerprints pin one exact horizon.  ``seed`` seeds every simulated
    check; golden checks override it with the scenario's pinned seed.
    """

    seed: int = 9_101
    scale: float = 1.0
    #: Confidence level for the oracle interval checks.
    confidence: float = 0.95
    #: Relative tolerance applied on top of the confidence half-width
    #: when comparing a simulated mean against an analytic prediction.
    rel_tolerance: float = 0.08

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(
                f"confidence must be in (0, 1), got {self.confidence}")
        if self.rel_tolerance < 0:
            raise ValueError(
                f"rel_tolerance must be >= 0, got {self.rel_tolerance}")

    def scaled(self, factor: float) -> "VerifySettings":
        return replace(self, scale=self.scale * factor)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification check."""

    name: str
    kind: str                      # oracle | relation | golden | differential
    passed: bool
    #: Human-readable evidence: the compared quantities on success, a
    #: diff-style discrepancy report on failure.
    details: str = ""
    elapsed: float = 0.0

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"


@dataclass(frozen=True)
class Check:
    """One named, runnable verification check."""

    name: str
    kind: str
    description: str
    _run: Callable[[VerifySettings], tuple[bool, str]] = field(repr=False)

    def run(self, settings: VerifySettings | None = None) -> CheckResult:
        """Execute the check, timing it and capturing its verdict."""
        settings = settings or VerifySettings()
        started = time.perf_counter()
        passed, details = self._run(settings)
        return CheckResult(name=self.name, kind=self.kind, passed=passed,
                           details=details,
                           elapsed=time.perf_counter() - started)


def registry(checks: list[Check]) -> dict[str, Check]:
    """Freeze a check list into a name-keyed registry (names unique)."""
    by_name: dict[str, Check] = {}
    for check in checks:
        if check.name in by_name:
            raise ValueError(f"duplicate check name {check.name!r}")
        by_name[check.name] = check
    return by_name


def run_settings(settings: VerifySettings) -> RunSettings:
    """Horizon and seed of the paired runs (differential pairs and
    metamorphic relations)."""
    return RunSettings(warmup_time=10.0 * settings.scale,
                       measure_time=60.0 * settings.scale,
                       base_seed=settings.seed)


def identity_details(label_a: str, label_b: str, lines: list[str],
                     reference) -> tuple[bool, str]:
    """Verdict of a bit-identity pair from its field ``diff`` lines."""
    if lines:
        return False, (f"{label_a} vs {label_b}: {len(lines)} field(s) "
                       f"differ\n" + format_diff(lines))
    return True, (f"{label_a} == {label_b} field-for-field "
                  f"({reference.completed} completion(s), "
                  f"mean RT {reference.mean_response_time:.4f}s)")
