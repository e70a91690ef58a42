"""Reproduction scorecard: machine-checked versions of the paper's claims.

Every qualitative claim the paper makes about its figures is encoded
here as a predicate over the reproduced curves.  Running the scorecard
regenerates the evaluation section and reports, claim by claim, whether
this implementation reproduces it.  The benchmark suite asserts the
*must-hold* claims; the scorecard additionally reports the *fine-detail*
claims (close orderings the paper itself presents without error bars).

Usage::

    from repro.experiments import RunSettings
    from repro.experiments.scorecard import run_scorecard

    card = run_scorecard(RunSettings(scale=0.5))
    print(card.to_text())
    assert card.all_essential_pass
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .cache import ResultCache
from .figures import ALL_FIGURES, FigureData
from .report import format_table
from .runner import Curve, RunSettings

__all__ = ["Claim", "ClaimResult", "Scorecard", "run_scorecard"]


@dataclass(frozen=True)
class Claim:
    """One checkable statement from the paper."""

    figure_id: str
    text: str
    essential: bool
    check: Callable[[dict[str, FigureData]], bool]


@dataclass(frozen=True)
class ClaimResult:
    claim: Claim
    passed: bool


@dataclass(frozen=True)
class Scorecard:
    results: tuple[ClaimResult, ...]

    @property
    def all_essential_pass(self) -> bool:
        return all(result.passed for result in self.results
                   if result.claim.essential)

    @property
    def passed_count(self) -> int:
        return sum(1 for result in self.results if result.passed)

    def to_text(self) -> str:
        headers = ["fig", "claim", "tier", "result"]
        rows = []
        for result in self.results:
            rows.append([
                result.claim.figure_id,
                result.claim.text,
                "essential" if result.claim.essential else "detail",
                "PASS" if result.passed else "MISS",
            ])
        summary = (f"{self.passed_count}/{len(self.results)} claims "
                   f"reproduced; essential claims "
                   f"{'ALL PASS' if self.all_essential_pass else 'FAIL'}")
        return format_table(headers, rows) + "\n\n" + summary


def _rt(curve: Curve, rate: float) -> float:
    return [p.mean_response_time for p in curve.points
            if p.total_rate == rate][0]


def _frac(curve: Curve, rate: float) -> float:
    return [p.shipped_fraction for p in curve.points
            if p.total_rate == rate][0]


def _claims() -> list[Claim]:
    return [
        # -- Figure 4.1 ----------------------------------------------------
        Claim("4.1", "no load sharing saturates near 20 tps", True,
              lambda figs: 15.0 <= figs["4.1"].curve(
                  "no-load-sharing").max_supported_rate() <= 25.0),
        Claim("4.1", "static supports ~30 tps", True,
              lambda figs: figs["4.1"].curve(
                  "static").max_supported_rate() >= 28.0),
        Claim("4.1", "best dynamic below static at >=25 tps", True,
              lambda figs: all(
                  _rt(figs["4.1"].curve("best-dynamic"), rate) <
                  _rt(figs["4.1"].curve("static"), rate)
                  for rate in (25.0, 30.0, 33.0))),
        # -- Figure 4.2 ----------------------------------------------------
        Claim("4.2", "measured-RT (A) worst dynamic at the limit", True,
              lambda figs: _rt(figs["4.2"].curve("A:measured-response"),
                               33.0) >
              max(_rt(figs["4.2"].curve(label), 33.0) for label in
                  ("B:queue-length", "C:min-incoming(q)",
                   "D:min-incoming(n)", "E:min-average(q)",
                   "F:min-average(n)"))),
        Claim("4.2", "min-average (E/F) beat static at the limit", True,
              lambda figs: min(
                  _rt(figs["4.2"].curve("E:min-average(q)"), 33.0),
                  _rt(figs["4.2"].curve("F:min-average(n)"), 33.0)) <
              _rt(figs["4.2"].curve("static"), 33.0)),
        Claim("4.2", "min-average best among A-F at the limit", False,
              lambda figs: min(
                  _rt(figs["4.2"].curve("E:min-average(q)"), 33.0),
                  _rt(figs["4.2"].curve("F:min-average(n)"), 33.0)) <=
              min(_rt(figs["4.2"].curve(label), 33.0) for label in
                  ("A:measured-response", "B:queue-length",
                   "C:min-incoming(q)", "D:min-incoming(n)")) + 0.05),
        Claim("4.2", "queue-length (B) near static (within 15%)", False,
              lambda figs: abs(
                  _rt(figs["4.2"].curve("B:queue-length"), 30.0) -
                  _rt(figs["4.2"].curve("static"), 30.0)) <
              0.15 * _rt(figs["4.2"].curve("static"), 30.0)),
        # -- Figure 4.3 ----------------------------------------------------
        Claim("4.3", "static ships ~nothing below 5 tps", True,
              lambda figs: _frac(figs["4.3"].curve("static"), 5.0) < 0.1),
        Claim("4.3", "static fraction peaks near 25 tps then falls", True,
              lambda figs: (lambda fracs: fracs.index(max(fracs)) not in
                            (0, len(fracs) - 1))(
                  list(figs["4.3"].curve("static").shipped_fractions))),
        Claim("4.3", "measured-RT ships the most at mid load", True,
              lambda figs: _frac(figs["4.3"].curve("A:measured-response"),
                                 20.0) >
              max(_frac(figs["4.3"].curve(label), 20.0)
                  for label in ("static", "B:queue-length",
                                "best-dynamic"))),
        Claim("4.3", "best dynamic ships less than static at >=15 tps",
              True,
              lambda figs: all(
                  _frac(figs["4.3"].curve("best-dynamic"), rate) <
                  _frac(figs["4.3"].curve("static"), rate)
                  for rate in (15.0, 20.0, 25.0))),
        # -- Figure 4.4 ----------------------------------------------------
        Claim("4.4", "negative threshold beats neutral at high load",
              True,
              lambda figs: _rt(figs["4.4"].curve("threshold(-0.2)"),
                               33.0) <
              _rt(figs["4.4"].curve("threshold(+0.0)"), 33.0)),
        Claim("4.4", "best dynamic beats tuned threshold (-0.2)", True,
              lambda figs: sum(
                  _rt(figs["4.4"].curve("best-dynamic"), rate)
                  for rate in (25.0, 30.0, 33.0)) <
              sum(_rt(figs["4.4"].curve("threshold(-0.2)"), rate)
                  for rate in (25.0, 30.0, 33.0))),
        Claim("4.4", "-0.3 worse than -0.2 at high load", False,
              lambda figs: _rt(figs["4.4"].curve("threshold(-0.3)"),
                               33.0) >
              _rt(figs["4.4"].curve("threshold(-0.2)"), 33.0)),
        # -- Figure 4.5 ----------------------------------------------------
        Claim("4.5", "static benefit shrinks at 0.5s delay", True,
              lambda figs:
              (_rt(figs["4.5"].curve("no-load-sharing"), 15.0) -
               _rt(figs["4.5"].curve("static"), 15.0)) <
              (_rt(figs["4.1"].curve("no-load-sharing"), 15.0) -
               _rt(figs["4.1"].curve("static"), 15.0))),
        Claim("4.5", "dynamic still clearly helps at 0.5s delay", True,
              lambda figs: all(
                  _rt(figs["4.5"].curve("best-dynamic"), rate) <=
                  _rt(figs["4.5"].curve("static"), rate) + 0.05
                  for rate in (20.0, 25.0, 30.0))),
        # -- Figure 4.6 ----------------------------------------------------
        Claim("4.6", "static curve shows an inflection (rapid rise)",
              True,
              lambda figs: (lambda fracs: max(
                  b - a for a, b in zip(fracs, fracs[1:])) > 0.15)(
                  list(figs["4.6"].curve("static").shipped_fractions))),
        Claim("4.6", "large delay delays the onset of static shipping",
              True,
              lambda figs: _frac(figs["4.6"].curve("static"), 10.0) <
              _frac(figs["4.3"].curve("static"), 10.0)),
        # -- Figure 4.7 ----------------------------------------------------
        Claim("4.7", "threshold optimum moves positive-ward at 0.5s",
              True,
              lambda figs: sum(
                  _rt(figs["4.7"].curve("threshold(+0.0)"), rate)
                  for rate in (5.0, 10.0, 15.0, 20.0)) <
              sum(_rt(figs["4.7"].curve("threshold(-0.2)"), rate)
                  for rate in (5.0, 10.0, 15.0, 20.0))),
        Claim("4.7", "dynamic-vs-heuristic gap grows with delay", False,
              lambda figs:
              (_rt(figs["4.7"].curve("threshold(+0.0)"), 20.0) -
               _rt(figs["4.7"].curve("best-dynamic"), 20.0)) >
              (_rt(figs["4.4"].curve("threshold(-0.2)"), 20.0) -
               _rt(figs["4.4"].curve("best-dynamic"), 20.0))),
    ]


def run_scorecard(settings: RunSettings | None = None,
                  workers: int | None = 1,
                  cache: ResultCache | None = None) -> Scorecard:
    """Regenerate all figures and evaluate every claim.

    ``workers`` and ``cache`` reach every figure's run, as for one
    figure.
    """
    settings = settings or RunSettings()
    figures = {figure_id: ALL_FIGURES[figure_id](settings, workers=workers,
                                                 cache=cache)
               for figure_id in sorted(ALL_FIGURES)}
    results = []
    for claim in _claims():
        try:
            passed = bool(claim.check(figures))
        except (KeyError, IndexError):
            passed = False
        results.append(ClaimResult(claim=claim, passed=passed))
    return Scorecard(results=tuple(results))
