"""Parallel experiment execution over a process pool.

Every figure in the paper's evaluation sweeps several strategies over
6-7 arrival rates with independent replications -- an embarrassingly
parallel workload that the serial harness ran on one core.  This module
fans the individual simulations out over a ``multiprocessing`` pool
while keeping the results **bit-identical** to serial execution:

* each job is a self-contained, picklable :class:`JobSpec` carrying the
  fully resolved :class:`~repro.hybrid.config.SystemConfig` (seed
  included, so the seeding discipline -- ``base_seed + r`` by default,
  the rate-keyed common-random-numbers hash under ``RunSettings.crn``
  -- is preserved no matter which worker runs the job);
* results are reassembled in submission order, so averaging and curve
  construction see exactly the sequence the serial loop produced;
* the two wall-clock profiling fields of a result
  (``engine_events_per_sec`` / ``wall_clock_seconds``) are zeroed --
  they are properties of the host machine, not the simulation, and
  would otherwise break bit-identity between runs;
* ``workers=1`` (the default everywhere) executes in-process with no
  pool, and pool start-up failures fall back to serial execution, so
  platforms without ``fork``/``spawn`` support degrade gracefully.

A :class:`~repro.experiments.cache.ResultCache` can be attached; cached
jobs are satisfied from disk and only the misses are simulated.

For incremental workloads that submit *rounds* of jobs -- the adaptive
replication scheduler keeps resubmitting the unconverged points of a
curve set -- the runner doubles as a context manager: inside a ``with``
block one process pool stays alive across ``run_jobs`` batches instead
of being created and torn down per round.  Results are unchanged
(``execute_job`` is the same function either way); only the pool
start-up cost is amortised.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..hybrid.config import SystemConfig
from ..hybrid.metrics import SimulationResult
from .cache import ResultCache

__all__ = ["JobSpec", "ParallelRunner", "default_workers",
           "execute_job", "resolve_workers", "strategy_cache_key"]


def default_workers() -> int:
    """Auto-detected worker count: one per available CPU."""
    return max(os.cpu_count() or 1, 1)


def resolve_workers(workers: int | None) -> int:
    """The process count a :class:`ParallelRunner` asked for ``workers``
    actually uses: ``None`` or ``0`` auto-detect, and a single-CPU host
    collapses any request to serial execution."""
    if workers is None or workers == 0:
        workers = default_workers()
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers > 1 and (os.cpu_count() or 1) == 1:
        workers = 1
    return workers


def strategy_cache_key(strategy: Any) -> str | None:
    """Stable cache identity of a strategy, or ``None`` if it has none.

    Registry names identify themselves; strategy objects may expose a
    ``cache_key`` attribute (e.g. the figure harness's picklable
    threshold strategies).  Anonymous callables return ``None`` and are
    executed uncached.
    """
    if isinstance(strategy, str):
        return f"name:{strategy}"
    key = getattr(strategy, "cache_key", None)
    if isinstance(key, str):
        return f"object:{key}"
    return None


@dataclass(frozen=True)
class JobSpec:
    """One simulation job: a strategy applied to a resolved configuration.

    ``strategy`` is either a name from :data:`repro.core.STRATEGIES` or
    a callable ``config -> RouterFactory``.  Callable strategies must be
    picklable to run in a pool; unpicklable ones are executed serially
    in the parent process (detected, not crashed on).
    """

    strategy: str | Callable[[SystemConfig], Any]
    config: SystemConfig
    #: Optional fault-injection schedule (``repro.sim.faults.FaultPlan``).
    #: ``None`` -- the default for every pre-existing call site -- keeps
    #: the job and its cache key exactly as before.
    fault_plan: Any = None

    def cache_key(self) -> str | None:
        identity = strategy_cache_key(self.strategy)
        if identity is None:
            return None
        return ResultCache.key_for(self.config, identity,
                                   fault_plan=self.fault_plan)


def _normalize(result: SimulationResult) -> SimulationResult:
    """Zero the wall-clock profiling fields (see module docstring)."""
    return dataclasses.replace(result, engine_events_per_sec=0.0,
                               wall_clock_seconds=0.0)


def execute_job(spec: JobSpec) -> SimulationResult:
    """Run one job to completion (used in workers and for fallback)."""
    from ..core import STRATEGIES
    from ..hybrid.system import HybridSystem

    builder = (STRATEGIES[spec.strategy]
               if isinstance(spec.strategy, str) else spec.strategy)
    router_factory = builder(spec.config)
    return _normalize(HybridSystem(spec.config, router_factory,
                                   fault_plan=spec.fault_plan).run())


def _is_picklable(spec: JobSpec) -> bool:
    try:
        pickle.dumps(spec)
    except Exception:
        return False
    return True


class ParallelRunner:
    """Executes batches of :class:`JobSpec` with caching and a pool.

    Parameters
    ----------
    workers:
        Process count.  ``1`` (default) runs serially in-process;
        ``None`` or ``0`` auto-detects one worker per CPU.  On a
        single-CPU host any request collapses to serial execution --
        pool workers would only time-slice one core while paying fork
        and pickling overhead for bit-identical results.
    cache:
        Optional :class:`ResultCache`; hits skip simulation entirely.
    """

    def __init__(self, workers: int | None = 1,
                 cache: ResultCache | None = None):
        self.workers = resolve_workers(workers)
        self.cache = cache
        #: Jobs satisfied from the cache / simulated, over this runner's
        #: lifetime (mirrors the cache's own counters but scoped here).
        self.jobs_cached = 0
        self.jobs_executed = 0
        self._persistent = False
        self._pool = None
        self._pool_unavailable = False

    # -- incremental mode ---------------------------------------------------

    def __enter__(self) -> "ParallelRunner":
        """Enter incremental mode: one pool survives across batches."""
        self._persistent = True
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Leave incremental mode and release the persistent pool."""
        self._persistent = False
        self._drop_pool()

    def _drop_pool(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
            pool.join()

    # -- execution ----------------------------------------------------------

    def run_jobs(self, specs: Sequence[JobSpec]) -> list[SimulationResult]:
        """Run every job, in order, returning one result per spec."""
        specs = list(specs)
        results: list[SimulationResult | None] = [None] * len(specs)
        keys: list[str | None] = [None] * len(specs)

        pending: list[int] = []
        for index, spec in enumerate(specs):
            key = spec.cache_key() if self.cache is not None else None
            keys[index] = key
            if key is not None:
                cached = self.cache.get(key)
                if cached is not None:
                    results[index] = cached
                    self.jobs_cached += 1
                    continue
            pending.append(index)

        if pending:
            for index, result in zip(pending, self._execute(
                    [specs[i] for i in pending])):
                results[index] = result
                self.jobs_executed += 1
                if self.cache is not None and keys[index] is not None:
                    self.cache.put(keys[index], result)

        return results  # type: ignore[return-value]

    def _execute(self, specs: list[JobSpec]) -> list[SimulationResult]:
        """Run the cache misses: pool for picklable jobs, serial rest."""
        if self.workers == 1 or len(specs) < 2:
            return [execute_job(spec) for spec in specs]

        pooled = [i for i, spec in enumerate(specs) if _is_picklable(spec)]
        results: list[SimulationResult | None] = [None] * len(specs)

        if len(pooled) >= 2:
            pool_results = self._run_pool([specs[i] for i in pooled])
            if pool_results is not None:
                for index, result in zip(pooled, pool_results):
                    results[index] = result

        for index, spec in enumerate(specs):
            if results[index] is None:
                results[index] = execute_job(spec)
        return results  # type: ignore[return-value]

    @staticmethod
    def _make_pool(size: int):
        """Create a pool on the platform's best start method, or None."""
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()
        method = "fork" if "fork" in methods else (
            methods[0] if methods else None)
        if method is None:
            return None
        context = multiprocessing.get_context(method)
        return context.Pool(size)

    def _run_pool(self,
                  specs: list[JobSpec]) -> list[SimulationResult] | None:
        """Map jobs over a process pool; ``None`` if no pool is possible.

        The pool is sized to the batch, capped at ``workers``.  In
        incremental mode (inside a ``with`` block) the pool sized by
        the first batch is reused for every subsequent batch; otherwise
        it lives for this batch only.
        """
        if self._pool_unavailable:
            return None
        size = min(self.workers, len(specs))
        try:
            if self._persistent:
                if self._pool is None:
                    self._pool = self._make_pool(size)
                    if self._pool is None:
                        self._pool_unavailable = True
                        return None
                return self._pool.map(execute_job, specs, chunksize=1)
            pool = self._make_pool(size)
            if pool is None:
                self._pool_unavailable = True
                return None
            with pool:
                return pool.map(execute_job, specs, chunksize=1)
        except (OSError, ImportError):
            # Platform without working process pools (restricted
            # containers, missing sem_open, ...): degrade to serial.
            self._pool_unavailable = True
            self._drop_pool()
            return None
