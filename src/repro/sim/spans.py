"""Per-entity lifecycle spans: a phase-attributed timeline.

A :class:`SpanRecorder` decomposes the lifetime of a simulated entity
(here: one transaction) into named, non-overlapping *phases*.  At any
instant the entity is in exactly one phase; :meth:`SpanRecorder.enter`
atomically closes the current phase and opens the next, so the phase
totals always sum to the elapsed lifetime exactly -- the invariant the
response-time decomposition in :mod:`repro.hybrid.metrics` relies on.

The recorder is deliberately tiny: a list of accumulated seconds per
phase plus the currently open phase and its start time.  It allocates
no per-interval objects, so attaching one to every transaction costs a
few hundred bytes and two float operations per phase transition.

Phase vocabulary (see ``docs/OBSERVABILITY.md``):

* ``comm``        -- in transit on a site<->central link (shipping, the
  response message, remote-call round trips) or queued in a mailbox.
* ``cpu-wait``    -- queued for a site CPU.
* ``cpu-service`` -- holding a site CPU.
* ``io``          -- in a synchronous I/O (CPU released).
* ``lock-wait``   -- blocked on a lock grant.
* ``auth``        -- a central/shipped transaction's authentication
  round trip (master-site checking plus both message legs).
* ``other``       -- any residue not claimed by the above (abort/rerun
  handling instants, dispatch bookkeeping).  Kept explicit so the
  decomposition is exhaustive rather than silently lossy.
"""

from __future__ import annotations

__all__ = [
    "PHASE_COMM",
    "PHASE_CPU_WAIT",
    "PHASE_CPU_SERVICE",
    "PHASE_IO",
    "PHASE_LOCK_WAIT",
    "PHASE_AUTH",
    "PHASE_OTHER",
    "PHASES",
    "SpanRecorder",
]

#: Phase constants are indices into :data:`PHASES`, which holds the
#: phase names in reporting order.
PHASES = ("comm", "cpu-wait", "cpu-service", "io", "lock-wait", "auth",
          "other")
(PHASE_COMM, PHASE_CPU_WAIT, PHASE_CPU_SERVICE, PHASE_IO, PHASE_LOCK_WAIT,
 PHASE_AUTH, PHASE_OTHER) = range(len(PHASES))


class SpanRecorder:
    """Accumulates time per phase over one entity's lifetime.

    The recorder anchors itself at the first :meth:`enter` call; from
    then on every instant is attributed to exactly one phase until
    :meth:`close`.  Re-entering a phase accumulates into the same total
    (reruns of an aborted transaction simply add to the existing
    buckets).  ``totals[i]`` holds the seconds spent in ``PHASES[i]``.
    """

    __slots__ = ("totals", "_phase", "_since")

    def __init__(self) -> None:
        self.totals = [0.0] * len(PHASES)
        self._phase: int | None = None
        self._since = 0.0

    # Elapsed time is never negative and ``x + 0.0 == x``, so every
    # switch adds ``now - since`` to the open phase without a test.

    def enter(self, phase: int, now: float) -> None:
        """Close the open phase (if any) and open ``phase`` at ``now``."""
        if self._phase is not None:
            self.totals[self._phase] += now - self._since
        self._phase = phase
        self._since = now

    def exit(self, now: float) -> None:
        """Close the open phase, attributing subsequent time to
        ``other``."""
        if self._phase is not None:
            self.totals[self._phase] += now - self._since
        self._phase = PHASE_OTHER
        self._since = now

    def close(self, now: float) -> None:
        """Stop recording; the timeline is complete at ``now``."""
        if self._phase is not None:
            self.totals[self._phase] += now - self._since
        self._phase = None

    def as_dict(self) -> dict[str, float]:
        """Totals for every phase in :data:`PHASES` (zeros included)."""
        return dict(zip(PHASES, self.totals))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        parts = " ".join(f"{phase}={seconds:.4f}"
                         for phase, seconds in self.as_dict().items())
        return f"<SpanRecorder {parts}>"
