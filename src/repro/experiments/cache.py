"""Content-addressed on-disk cache for simulation results.

Overlapping figures re-simulate identical curves (4.1 and 4.2 share the
best-dynamic sweep; 4.5-4.7 repeat the 0.5 s-delay studies), and
re-running a figure after editing only the report code used to pay the
full simulation cost again.  This cache makes every completed
(configuration, strategy) simulation reusable: results are stored under
a key derived *only* from the inputs that determine the simulation's
output, so any run anywhere in the harness that would reproduce an
already-computed :class:`~repro.hybrid.metrics.SimulationResult` loads
it from disk instead.

Key derivation
--------------

The key is the SHA-256 of a canonical JSON rendering of:

* every field of :class:`~repro.hybrid.config.SystemConfig` (which
  includes the workload parameters, the seed and the simulated horizon),
* the strategy's stable cache identity (its registry name, or the
  ``cache_key`` attribute of a picklable strategy object), and
* a cache-format version salt (bump :data:`CACHE_VERSION` whenever the
  simulator's output semantics change).

Strategies without a stable identity (arbitrary closures) are simply
never cached -- correctness over coverage.

Stored values are pickled ``SimulationResult`` objects.  Two wall-clock
profiling fields (``engine_events_per_sec`` and ``wall_clock_seconds``)
are zeroed before storage so cached results are bit-identical to what a
deterministic re-run would produce in every simulation-determined field.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any

from ..hybrid.config import SystemConfig
from ..hybrid.metrics import SimulationResult

__all__ = ["ResultCache", "default_cache_dir", "CACHE_VERSION"]

#: Bump to invalidate every existing cache entry (simulator semantics
#: change, result-schema change, ...).
#: 2: SimulationResult gained the ``metrics`` registry-snapshot field.
#: 3: stream-name key derivation fixed (full-digest spawn keys) -- every
#:    sample path shifted, so pre-fix results are not comparable.
#: 4: SimulationResult gained two per-run regression-input fields;
#:    pre-bump pickles lack them and would raise on attribute access.
#: 5: SystemConfig gained the commit-protocol fields (``protocol`` /
#:    ``epoch_interval``) and SimulationResult gained ``protocol`` /
#:    ``protocol_counters``; pre-bump keys were derived without the new
#:    config fields and pre-bump pickles lack the result fields.
#: 6: SimulationResult lost the two fields version 4 added; pre-bump
#:    pickles would restore them as stray attributes.
#: 7: ``response_time_percentiles`` became exact; pre-bump pickles hold
#:    the old streaming (P-squared) estimates.
#: 8: a rejoining site keeps the commit orders that arrive while its
#:    snapshot installs and central no longer re-sends an auth request
#:    the site already has, so rejoin results change; SystemConfig lost
#:    ``update_batching`` / ``update_flush_interval``.
#: 9: ``admission_limit`` no longer bounds the active set of a site or
#:    of central, so a cached plan with ``admission_limit > 0`` and no
#:    rejoin now runs differently.
#: 10: links no longer re-order jittered frames (the reliable channel
#:    does), so a cached plan with link jitter now runs differently.
CACHE_VERSION = 10

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "HYBRIDDB_CACHE_DIR"


def default_cache_dir() -> Path:
    """Resolve the cache root: ``$HYBRIDDB_CACHE_DIR`` or XDG cache."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "hybriddb" / "results"


def _canonical(value: Any) -> Any:
    """Render a value as JSON-stable primitives (sorted, typed)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {name: _canonical(getattr(value, name))
                for name in sorted(f.name for f in
                                   dataclasses.fields(value))}
    if isinstance(value, dict):
        return {str(key): _canonical(item)
                for key, item in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(f"cannot canonicalise {value!r} for cache keying")


class ResultCache:
    """Content-addressed store of :class:`SimulationResult` objects.

    Parameters
    ----------
    root:
        Directory holding the pickled entries (created lazily).
        ``None`` selects :func:`default_cache_dir`.

    The ``hits`` / ``misses`` counters cover only cacheable lookups
    (strategies with a stable identity); they feed the CLI summary.
    """

    def __init__(self, root: str | Path | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0

    # -- keying -------------------------------------------------------------

    @staticmethod
    def key_for(config: SystemConfig, strategy_key: str,
                fault_plan: Any = None) -> str:
        """Stable content hash of one (configuration, strategy) job.

        A non-empty fault plan (schedule *and* retry policy) changes the
        simulation's output, so it joins the payload; ``None`` and the
        empty plan produce bit-identical runs and deliberately share the
        plain key, keeping every pre-existing cache entry valid.
        """
        payload = {
            "version": CACHE_VERSION,
            "strategy": strategy_key,
            "config": _canonical(config),
        }
        if fault_plan is not None and not fault_plan.is_empty:
            payload["faults"] = _canonical(fault_plan)
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True,
                       separators=(",", ":")).encode("utf-8"))
        return digest.hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.pkl"

    # -- access -------------------------------------------------------------

    def get(self, key: str) -> SimulationResult | None:
        """Look up a result; counts the hit or miss."""
        path = self._path(key)
        try:
            with path.open("rb") as handle:
                result = pickle.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            # Corrupt or unreadable entry: drop it and treat as a miss.
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            return None
        if not isinstance(result, SimulationResult):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: SimulationResult) -> None:
        """Store a result atomically (write-to-temp then rename)."""
        # Zero the wall-clock-dependent profiling fields so a cache hit
        # is indistinguishable from a deterministic re-run.
        result = dataclasses.replace(
            result, engine_events_per_sec=0.0, wall_clock_seconds=0.0)
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    # -- maintenance ---------------------------------------------------------

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.pkl"))

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.pkl"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def stats(self) -> str:
        """One-line hit/miss summary for CLI output."""
        return (f"cache: {self.hits} hit(s), {self.misses} miss(es) "
                f"[{self.root}]")
