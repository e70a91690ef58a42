"""Unit and property tests for workload generation (repro.db.workload)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import (
    ArrivalProcess,
    LockMode,
    LockSpacePartition,
    TransactionClass,
    TransactionFactory,
    WorkloadParams,
)
from repro.db.transaction import Reference, Transaction, new_transaction_ids
from repro.sim import Environment, RandomStreams


# ---------------------------------------------------------------------------
# WorkloadParams validation
# ---------------------------------------------------------------------------

def test_default_params_match_paper():
    params = WorkloadParams()
    assert params.n_sites == 10
    assert params.lockspace == 32 * 1024
    assert params.locks_per_txn == 10
    assert params.p_local == 0.75


def test_total_arrival_rate():
    params = WorkloadParams(arrival_rate_per_site=2.0, n_sites=10)
    assert params.total_arrival_rate == pytest.approx(20.0)


@pytest.mark.parametrize("kwargs", [
    {"n_sites": 0},
    {"p_local": 1.5},
    {"p_local": -0.1},
    {"p_update": 2.0},
    {"locks_per_txn": -1},
    {"arrival_rate_per_site": 0.0},
    {"lockspace": 5, "n_sites": 10},
    # Reference strings that cannot be drawn: too few distinct entities.
    {"n_sites": 10, "lockspace": 40, "locks_per_txn": 5, "p_local": 0.5},
    {"n_sites": 10, "lockspace": 40, "locks_per_txn": 5, "p_local": 0.0,
     "p_b_local": 1.0},
    {"n_sites": 2, "lockspace": 40, "locks_per_txn": 21, "p_local": 0.0,
     "p_b_local": 0.0},
    {"n_sites": 2, "lockspace": 40, "locks_per_txn": 41, "p_local": 0.0},
    {"n_sites": 2, "lockspace": 40, "locks_per_txn": 41, "p_local": 0.0,
     "p_b_local": 0.5},
    # 0 < p_b_local < 1: each region must hold a whole reference string.
    {"n_sites": 10, "lockspace": 40, "locks_per_txn": 5, "p_local": 0.0,
     "p_b_local": 0.5},
    {"n_sites": 2, "lockspace": 41, "locks_per_txn": 21, "p_local": 0.0,
     "p_b_local": 0.5},
])
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ValueError):
        WorkloadParams(**kwargs)


@pytest.mark.parametrize("kwargs", [
    # Each limit exactly met.
    {"n_sites": 10, "lockspace": 40, "locks_per_txn": 4, "p_local": 0.5},
    {"n_sites": 10, "lockspace": 40, "locks_per_txn": 4, "p_local": 0.0,
     "p_b_local": 1.0},
    {"n_sites": 10, "lockspace": 40, "locks_per_txn": 36, "p_local": 0.0,
     "p_b_local": 0.0},
    {"n_sites": 10, "lockspace": 40, "locks_per_txn": 40, "p_local": 0.0},
    {"n_sites": 10, "lockspace": 40, "locks_per_txn": 4, "p_local": 0.0,
     "p_b_local": 0.5},
])
def test_reference_strings_at_the_limit_are_drawn(kwargs):
    params = WorkloadParams(**kwargs)
    factory = TransactionFactory(params, RandomStreams(seed=2))
    for site in range(params.n_sites):
        entities = factory.make_transaction(site, 0.0).entities
        assert len(set(entities)) == params.locks_per_txn


# ---------------------------------------------------------------------------
# LockSpacePartition
# ---------------------------------------------------------------------------

def test_partition_ranges_disjoint_and_ordered():
    partition = LockSpacePartition(32 * 1024, 10)
    previous_end = 0
    for site in range(10):
        start, end = partition.site_range(site)
        assert start == previous_end
        assert end - start == 3276
        previous_end = end


def test_partition_owner_roundtrip():
    partition = LockSpacePartition(1000, 4)
    for site in range(4):
        start, end = partition.site_range(site)
        assert partition.owner(start) == site
        assert partition.owner(end - 1) == site


def test_partition_unowned_tail():
    partition = LockSpacePartition(32 * 1024, 10)
    # 32768 - 10*3276 = 8 tail entities owned by nobody
    assert partition.owner(32767) is None


def test_partition_out_of_range_entity():
    partition = LockSpacePartition(100, 2)
    with pytest.raises(ValueError):
        partition.owner(100)
    with pytest.raises(ValueError):
        partition.site_range(2)


def test_owners_of_collection():
    partition = LockSpacePartition(1000, 4)
    assert partition.owners([0, 1, 251, 999]) == {0, 1, 3}


@given(st.integers(1, 50), st.integers(1, 1000))
def test_partition_every_entity_owned_or_tail(n_sites, extra):
    lockspace = n_sites * extra
    partition = LockSpacePartition(lockspace, n_sites)
    owner = partition.owner(lockspace - 1)
    assert owner is None or 0 <= owner < n_sites


# ---------------------------------------------------------------------------
# TransactionFactory
# ---------------------------------------------------------------------------

@pytest.fixture
def factory():
    params = WorkloadParams()
    return TransactionFactory(params, RandomStreams(seed=1234))


def test_factory_reference_count(factory):
    txn = factory.make_transaction(site=3, now=1.0)
    assert len(txn.references) == 10


def test_factory_distinct_entities(factory):
    for _ in range(50):
        txn = factory.make_transaction(site=0, now=0.0)
        entities = [ref.entity for ref in txn.references]
        assert len(set(entities)) == len(entities)


def test_class_a_entities_in_home_partition(factory):
    partition = factory.partition
    for _ in range(200):
        txn = factory.make_transaction(site=4, now=0.0)
        if txn.txn_class is TransactionClass.A:
            start, end = partition.site_range(4)
            assert all(start <= ref.entity < end for ref in txn.references)


def test_class_b_entities_span_space():
    params = WorkloadParams(p_local=0.0)  # all class B
    factory = TransactionFactory(params, RandomStreams(seed=5))
    seen_outside_home = False
    for _ in range(50):
        txn = factory.make_transaction(site=0, now=0.0)
        assert txn.txn_class is TransactionClass.B
        start, end = factory.partition.site_range(0)
        if any(not (start <= ref.entity < end) for ref in txn.references):
            seen_outside_home = True
    assert seen_outside_home


def test_class_mix_close_to_p_local():
    params = WorkloadParams(p_local=0.75)
    factory = TransactionFactory(params, RandomStreams(seed=9))
    classes = [factory.make_transaction(0, 0.0).txn_class
               for _ in range(4000)]
    fraction_a = sum(1 for c in classes if c is TransactionClass.A) / 4000
    assert fraction_a == pytest.approx(0.75, abs=0.03)


def test_all_exclusive_by_default(factory):
    txn = factory.make_transaction(site=0, now=0.0)
    assert all(ref.mode is LockMode.EXCLUSIVE for ref in txn.references)


def test_p_update_mix():
    params = WorkloadParams(p_update=0.5)
    factory = TransactionFactory(params, RandomStreams(seed=7))
    modes = []
    for _ in range(400):
        txn = factory.make_transaction(site=0, now=0.0)
        modes.extend(ref.mode for ref in txn.references)
    fraction_x = sum(1 for m in modes if m is LockMode.EXCLUSIVE) / len(modes)
    assert fraction_x == pytest.approx(0.5, abs=0.05)


def test_ids_unique_and_increasing(factory):
    ids = [factory.make_transaction(0, 0.0).txn_id for _ in range(10)]
    assert ids == sorted(ids)
    assert len(set(ids)) == 10


def test_factory_deterministic_for_seed():
    def draw(seed):
        factory = TransactionFactory(WorkloadParams(), RandomStreams(seed))
        return [(t.txn_class, t.entities)
                for t in (factory.make_transaction(0, 0.0)
                          for _ in range(20))]
    assert draw(42) == draw(42)
    assert draw(42) != draw(43)


def test_arrival_time_stamped(factory):
    txn = factory.make_transaction(site=2, now=99.5)
    assert txn.arrival_time == 99.5
    assert txn.home_site == 2


class NumpyTransactionFactory:
    """The numpy-drawn factory the replay-based one replaced, verbatim
    apart from its name: the reference for the equivalence test."""

    def __init__(self, params: WorkloadParams, streams: RandomStreams):
        self.params = params
        self.partition = LockSpacePartition(params.lockspace, params.n_sites)
        self._ids = new_transaction_ids()
        self._class_rng = streams.stream("txn-class")
        self._ref_rng = streams.stream("txn-references")

    def _draw_entities(self, low: int, high: int, count: int) -> np.ndarray:
        span = high - low
        if count > span:
            raise ValueError(f"cannot draw {count} distinct from {span}")
        chosen = self._ref_rng.integers(low, high, size=count)
        seen = set()
        result = []
        for entity in chosen:
            value = int(entity)
            while value in seen:
                value = int(self._ref_rng.integers(low, high))
            seen.add(value)
            result.append(value)
        return np.array(result, dtype=np.int64)

    def _draw_modes(self, count: int) -> list[LockMode]:
        if self.params.p_update >= 1.0:
            return [LockMode.EXCLUSIVE] * count
        draws = self._ref_rng.random(count)
        return [LockMode.EXCLUSIVE if draw < self.params.p_update
                else LockMode.SHARE for draw in draws]

    def _draw_class_b_entities(self, site: int, count: int) -> np.ndarray:
        p_b_local = self.params.p_b_local
        if p_b_local is None:
            return self._draw_entities(0, self.params.lockspace, count)
        home_low, home_high = self.partition.site_range(site)
        entities: list[int] = []
        seen: set[int] = set()
        for _ in range(count):
            home = self._ref_rng.random() < p_b_local
            while True:
                if home:
                    value = int(self._ref_rng.integers(home_low, home_high))
                else:
                    # Uniform over the space excluding the home partition.
                    value = int(self._ref_rng.integers(
                        0, self.params.lockspace))
                    if home_low <= value < home_high:
                        continue
                if value not in seen:
                    seen.add(value)
                    entities.append(value)
                    break
        return np.array(entities, dtype=np.int64)

    def make_transaction(self, site: int, now: float) -> Transaction:
        is_class_a = bool(self._class_rng.random() < self.params.p_local)
        count = self.params.locks_per_txn
        if is_class_a:
            low, high = self.partition.site_range(site)
            txn_class = TransactionClass.A
            entities = self._draw_entities(low, high, count)
        else:
            txn_class = TransactionClass.B
            entities = self._draw_class_b_entities(site, count)
        modes = self._draw_modes(count)
        references = tuple(Reference(int(entity), mode)
                           for entity, mode in zip(entities, modes))
        return Transaction(
            txn_id=next(self._ids),
            txn_class=txn_class,
            home_site=site,
            references=references,
            arrival_time=now,
        )


def _class_b_draws(p_b_local, n_txns=4_000, seed=4):
    """``(home references, references, remote calls per txn)`` of
    ``n_txns`` class B transactions spread over every site."""
    params = WorkloadParams(p_local=0.0, p_b_local=p_b_local)
    factory = TransactionFactory(params, RandomStreams(seed=seed))
    home = 0
    for index in range(n_txns):
        site = index % params.n_sites
        low, high = factory.partition.site_range(site)
        txn = factory.make_transaction(site, 0.0)
        home += sum(low <= entity < high for entity in txn.entities)
    total = n_txns * params.locks_per_txn
    return home, total, (total - home) / n_txns, params


@pytest.mark.parametrize("p_b_local", [0.1, 0.3, 0.5, 0.8])
def test_class_b_home_share_is_binomial(p_b_local):
    """One locality toss per reference: the home count is
    Binomial(references, p_b_local), so its share sits in a 4-sigma band
    (the old re-tossing draw gave 0.323 at p = 0.3, about 7 sigma)."""
    home, total, _, _ = _class_b_draws(p_b_local)
    sigma = (p_b_local * (1.0 - p_b_local) / total) ** 0.5
    assert abs(home / total - p_b_local) <= 4.0 * sigma


@pytest.mark.parametrize("p_b_local", [0.3, 0.5])
def test_class_b_remote_calls_match_expected(p_b_local):
    _, _, remote_calls, params = _class_b_draws(p_b_local)
    # Per-transaction remote calls are Binomial(locks, 1 - p).
    stderr = (params.locks_per_txn * p_b_local * (1.0 - p_b_local)
              / 4_000) ** 0.5
    assert remote_calls == pytest.approx(params.expected_remote_calls,
                                         abs=4.0 * stderr)


def _drawn(txn):
    return (txn.txn_class, txn.entities,
            tuple(ref.mode for ref in txn.references))


@pytest.mark.parametrize("kwargs", [
    {},
    {"p_update": 0.5},
    {"p_b_local": 0.0},
    {"p_b_local": 0.3},
    {"p_b_local": 1.0},
    # Class A draws 10 distinct of a 10-entity partition: many retries.
    {"n_sites": 4, "lockspace": 40},
])
def test_factory_draws_equal_the_numpy_factory(kwargs):
    params = WorkloadParams(**kwargs)
    factory = TransactionFactory(params, RandomStreams(seed=31))
    reference = NumpyTransactionFactory(params, RandomStreams(seed=31))
    for index in range(5_000):
        site = index % params.n_sites
        got, want = (source.make_transaction(site, 0.0)
                     for source in (factory, reference))
        assert _drawn(got) == _drawn(want), index
        assert all(type(ref.entity) is int for ref in got.references)


# ---------------------------------------------------------------------------
# ArrivalProcess
# ---------------------------------------------------------------------------

def test_arrival_process_rate():
    env = Environment()
    params = WorkloadParams(arrival_rate_per_site=5.0)
    streams = RandomStreams(seed=21)
    factory = TransactionFactory(params, streams)
    arrivals = []
    ArrivalProcess(env, site=0, factory=factory, streams=streams,
                   submit=arrivals.append)
    env.run(until=400)
    rate = len(arrivals) / 400
    assert rate == pytest.approx(5.0, rel=0.1)


def test_arrival_interarrivals_exponential():
    env = Environment()
    params = WorkloadParams(arrival_rate_per_site=2.0)
    streams = RandomStreams(seed=3)
    factory = TransactionFactory(params, streams)
    times = []
    ArrivalProcess(env, site=0, factory=factory, streams=streams,
                   submit=lambda txn: times.append(txn.arrival_time))
    env.run(until=1000)
    gaps = np.diff(times)
    # Exponential: std ~= mean.
    assert np.std(gaps) == pytest.approx(np.mean(gaps), rel=0.1)


def test_two_sites_independent_streams():
    env = Environment()
    params = WorkloadParams(arrival_rate_per_site=3.0)
    streams = RandomStreams(seed=8)
    factory = TransactionFactory(params, streams)
    per_site = {0: [], 1: []}
    for site in (0, 1):
        ArrivalProcess(env, site=site, factory=factory, streams=streams,
                       submit=lambda t, s=site: per_site[s].append(
                           t.arrival_time))
    env.run(until=100)
    assert per_site[0] != per_site[1]
    assert len(per_site[0]) > 0 and len(per_site[1]) > 0
