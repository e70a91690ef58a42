"""Workload generation: arrivals, class mix and reference strings.

Reproduces the workload of the paper's simulation study (Section 4.1):

* Poisson arrivals with the same rate at every distributed site;
* a transaction is class A (purely local data) with probability
  ``p_local`` (0.75 in the paper) and class B otherwise;
* a *global lock space* of 32K entities; each local site's class A
  transactions draw lock requests uniformly over that site's tenth of the
  space, while class B transactions draw uniformly over the entire space;
* ``locks_per_txn`` (N_l = 10) database calls per transaction, one lock
  request each.

Lock mode mix: the paper's analytic model treats every collision alike
and its protocol propagates updates on commit, so the default is
all-EXCLUSIVE references (an update-intensive transaction workload).
``p_update`` makes the S/X mix configurable for sensitivity studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from ..sim.engine import Environment, Interrupt
from ..sim.rng import RandomStreams
from .locks import LockMode
from .transaction import (
    Reference,
    Transaction,
    TransactionClass,
    new_transaction_ids,
)

__all__ = ["WorkloadParams", "LockSpacePartition", "TransactionFactory",
           "ArrivalProcess"]


@dataclass(frozen=True)
class WorkloadParams:
    """Workload shape parameters (defaults from the paper, Section 4.1)."""

    n_sites: int = 10
    lockspace: int = 32 * 1024
    locks_per_txn: int = 10
    p_local: float = 0.75      # probability a transaction is class A
    p_update: float = 1.0      # probability a reference is EXCLUSIVE
    arrival_rate_per_site: float = 1.0   # transactions/second per site
    #: Optional per-site arrival-rate multipliers (hot-spot modelling,
    #: motivated by the paper's "regional locality and load
    #: fluctuations").  ``None`` means every site receives
    #: ``arrival_rate_per_site`` exactly.
    rate_multipliers: tuple[float, ...] | None = None
    #: Locality of class B references: ``None`` (the paper's base case)
    #: draws them uniformly over the whole lock space; a float in [0, 1]
    #: draws each reference from the home partition with that
    #: probability and uniformly from the *other* partitions otherwise.
    #: Controls the expected number of remote calls per class B
    #: transaction in the fully distributed mode (the [DIAS87] knob of
    #: the paper's introduction).
    p_b_local: float | None = None

    def __post_init__(self) -> None:
        if self.n_sites < 1:
            raise ValueError("need at least one site")
        if self.lockspace < self.n_sites:
            raise ValueError("lock space smaller than site count")
        if not 0.0 <= self.p_local <= 1.0:
            raise ValueError(f"p_local out of range: {self.p_local}")
        if not 0.0 <= self.p_update <= 1.0:
            raise ValueError(f"p_update out of range: {self.p_update}")
        if self.locks_per_txn < 0:
            raise ValueError("negative locks_per_txn")
        if self.arrival_rate_per_site <= 0:
            raise ValueError("arrival rate must be positive")
        if self.rate_multipliers is not None:
            if len(self.rate_multipliers) != self.n_sites:
                raise ValueError(
                    f"need {self.n_sites} rate multipliers, got "
                    f"{len(self.rate_multipliers)}")
            if any(m <= 0 for m in self.rate_multipliers):
                raise ValueError("rate multipliers must be positive")
        if self.p_b_local is not None and \
                not 0.0 <= self.p_b_local <= 1.0:
            raise ValueError(f"p_b_local out of range: {self.p_b_local}")
        # A transaction locks locks_per_txn *distinct* entities, so each
        # class that can arrive needs that many entities to draw from.
        partition = self.lockspace // self.n_sites
        if self.p_local > 0.0 and self.locks_per_txn > partition:
            raise ValueError(
                f"class A draws {self.locks_per_txn} distinct entities "
                f"from a {partition}-entity site partition")
        if self.p_local < 1.0:
            if self.p_b_local is None:
                space, where = self.lockspace, "the lock space"
            elif self.p_b_local == 1.0:
                space, where = partition, "the home partition"
            elif self.p_b_local == 0.0:
                space = self.lockspace - partition
                where = "outside the home partition"
            else:
                # Every position may land in either region.
                space = min(partition, self.lockspace - partition)
                where = "the smaller of the home partition and the rest"
            if self.locks_per_txn > space:
                raise ValueError(
                    f"class B draws {self.locks_per_txn} distinct "
                    f"entities from {space} in {where}")

    @property
    def expected_remote_calls(self) -> float:
        """Expected non-home references per class B transaction."""
        if self.p_b_local is None:
            return self.locks_per_txn * (1.0 - 1.0 / self.n_sites)
        return self.locks_per_txn * (1.0 - self.p_b_local)

    def site_rate(self, site: int) -> float:
        """Arrival rate at one site (multiplier applied)."""
        if not 0 <= site < self.n_sites:
            raise ValueError(f"site {site} out of range")
        if self.rate_multipliers is None:
            return self.arrival_rate_per_site
        return self.arrival_rate_per_site * self.rate_multipliers[site]

    @property
    def total_arrival_rate(self) -> float:
        if self.rate_multipliers is None:
            return self.arrival_rate_per_site * self.n_sites
        return self.arrival_rate_per_site * sum(self.rate_multipliers)


class LockSpacePartition:
    """Maps sites to their slice of the global lock space.

    Site ``i`` owns entities ``[i * size, (i + 1) * size)`` where ``size``
    is ``lockspace // n_sites``; any remainder entities at the top of the
    space belong to no site and are only reachable by class B
    transactions (with 32K/10 the paper's configuration has such a tail).
    """

    def __init__(self, lockspace: int, n_sites: int):
        if lockspace < n_sites:
            raise ValueError("lock space smaller than site count")
        self.lockspace = int(lockspace)
        self.n_sites = int(n_sites)
        self.partition_size = self.lockspace // self.n_sites

    def site_range(self, site: int) -> tuple[int, int]:
        """Half-open entity range owned by ``site``."""
        if not 0 <= site < self.n_sites:
            raise ValueError(f"site {site} out of range")
        start = site * self.partition_size
        return (start, start + self.partition_size)

    def owner(self, entity: int) -> int | None:
        """Master site of ``entity`` (``None`` for the unowned tail)."""
        if not 0 <= entity < self.lockspace:
            raise ValueError(f"entity {entity} out of range")
        site = entity // self.partition_size
        return site if site < self.n_sites else None

    def owners(self, entities: Iterator[int] | tuple[int, ...]) -> set[int]:
        """Distinct master sites of an entity collection (tail excluded)."""
        found = set()
        for entity in entities:
            owner = self.owner(entity)
            if owner is not None:
                found.add(owner)
        return found


class TransactionFactory:
    """Draws transactions (class, reference string) for every site.

    One factory serves the whole system: all sites share its id counter
    and its two streams, ``txn-class`` and ``txn-references``, which it
    draws through exact :class:`~repro.sim.rng.StreamReplay` buffers
    (the same draws as the streams' ``Generator`` would give).
    """

    def __init__(self, params: WorkloadParams, streams: RandomStreams):
        self.params = params
        self.partition = LockSpacePartition(params.lockspace, params.n_sites)
        self._ids = new_transaction_ids()
        self._class_rng = streams.replay("txn-class")
        self._ref_rng = streams.replay("txn-references")

    def _draw_entities(self, low: int, high: int, count: int) -> list[int]:
        """Distinct uniform entities from ``[low, high)``.

        Sampling without replacement: a transaction locks each entity at
        most once.  ``count`` draws come first; a duplicate is then
        re-drawn in position order (with 3K+ entity ranges collisions
        are rare, so the retry loop terminates fast).
        """
        span = high - low
        if count > span:
            raise ValueError(f"cannot draw {count} distinct from {span}")
        chosen = self._ref_rng.integers(low, high, count)
        seen = set()
        result = []
        for value in chosen:
            while value in seen:
                value = self._ref_rng.integers(low, high)
            seen.add(value)
            result.append(value)
        return result

    def _draw_modes(self, count: int) -> list[LockMode]:
        if self.params.p_update >= 1.0:
            return [LockMode.EXCLUSIVE] * count
        random = self._ref_rng.random
        p_update = self.params.p_update
        return [LockMode.EXCLUSIVE if random() < p_update
                else LockMode.SHARE for _ in range(count)]

    def _draw_class_b_entities(self, site: int, count: int) -> list[int]:
        """Class B references, optionally with home-partition locality."""
        p_b_local = self.params.p_b_local
        if p_b_local is None:
            return self._draw_entities(0, self.params.lockspace, count)
        home_low, home_high = self.partition.site_range(site)
        entities: list[int] = []
        seen: set[int] = set()
        for _ in range(count):
            # One locality toss per reference position: a rejection or a
            # duplicate redraws inside the region the toss chose, so each
            # position is a home reference with probability p_b_local.
            home = self._ref_rng.random() < p_b_local
            while True:
                if home:
                    value = self._ref_rng.integers(home_low, home_high)
                else:
                    # Uniform over the space excluding the home partition.
                    value = self._ref_rng.integers(0, self.params.lockspace)
                    if home_low <= value < home_high:
                        continue
                if value not in seen:
                    seen.add(value)
                    entities.append(value)
                    break
        return entities

    def make_transaction(self, site: int, now: float) -> Transaction:
        """Draw one arriving transaction for ``site`` at time ``now``."""
        count = self.params.locks_per_txn
        if self._class_rng.random() < self.params.p_local:
            low, high = self.partition.site_range(site)
            txn_class = TransactionClass.A
            entities = self._draw_entities(low, high, count)
        else:
            txn_class = TransactionClass.B
            entities = self._draw_class_b_entities(site, count)
        modes = self._draw_modes(count)
        return Transaction(
            txn_id=next(self._ids),
            txn_class=txn_class,
            home_site=site,
            references=tuple(map(Reference, entities, modes)),
            arrival_time=now,
        )


class ArrivalProcess:
    """Poisson arrival stream for one site, feeding a submit callback."""

    def __init__(self, env: Environment, site: int, factory:
                 TransactionFactory, streams: RandomStreams,
                 submit: Callable[[Transaction], None]):
        self.env = env
        self.site = site
        self.factory = factory
        self.submit = submit
        rate = factory.params.site_rate(site)
        self._interarrival = streams.exponential(f"arrivals-site-{site}",
                                                 rate)
        self.generated = 0
        self.process = env.process(self._run(), name=f"arrivals@{site}")

    def _run(self):
        try:
            while True:
                yield self.env.timeout(self._interarrival())
                txn = self.factory.make_transaction(self.site,
                                                    self.env.now)
                self.generated += 1
                self.submit(txn)
        except Interrupt:
            # Interrupting the arrival stream shuts it down cleanly
            # (used by drain tests and open-loop experiments).
            return
