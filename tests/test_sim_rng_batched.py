"""Determinism of the vectorised pre-draw samplers.

The samplers buffer draws in growing numpy batches; every test here
pins the contract that buffering is invisible: the delivered sequence
is bit-identical to scalar-by-scalar draws on the same generator, in
every interleaving, across refills, and across pickling (the
:class:`~repro.experiments.parallel.ParallelRunner` job boundary).
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import (
    _BATCH_START,
    ExponentialSampler,
    RandomStreams,
    StreamReplay,
    UniformIntSampler,
)

#: Enough draws to cross several refills of the doubling buffer
#: (64 + 128 + 256 + 512 + 1024 + ...).
N_DRAWS = 3000


def test_exponential_batched_equals_scalar():
    sampler = RandomStreams(42).exponential("arrivals-site-0", rate=2.5)
    raw = RandomStreams(42).stream("arrivals-site-0")
    expected = [float(raw.exponential(1.0 / 2.5)) for _ in range(N_DRAWS)]
    assert [sampler() for _ in range(N_DRAWS)] == expected


def test_uniform_int_batched_equals_scalar():
    sampler = RandomStreams(42).uniform_int("locks", 3, 977)
    raw = RandomStreams(42).stream("locks")
    expected = [int(raw.integers(3, 977)) for _ in range(N_DRAWS)]
    assert [sampler() for _ in range(N_DRAWS)] == expected


def test_uniform_int_vector_and_scalar_interleave():
    """``sample`` vectors and scalar calls share one buffered order."""
    sampler = RandomStreams(7).uniform_int("refs", 0, 10_000)
    raw = RandomStreams(7).stream("refs")
    expected = [int(raw.integers(0, 10_000)) for _ in range(N_DRAWS)]

    got: list[int] = []
    got.extend(sampler.sample(5).tolist())          # short vector
    for _ in range(_BATCH_START - 10):              # up to near a refill
        got.append(sampler())
    got.extend(sampler.sample(200).tolist())        # vector across refill
    while len(got) < N_DRAWS:
        got.append(sampler())
    assert got == expected


def test_sample_dtype_and_shape():
    sampler = RandomStreams(1).uniform_int("d", 0, 5)
    out = sampler.sample(17)
    assert isinstance(out, np.ndarray)
    assert out.dtype == np.int64
    assert out.shape == (17,)
    assert ((out >= 0) & (out < 5)).all()


def test_draws_identical_across_mid_batch_refill():
    """The draw exactly at a buffer boundary matches the scalar path."""
    sampler = RandomStreams(9).exponential("edge", rate=1.0)
    raw = RandomStreams(9).stream("edge")
    boundary = _BATCH_START  # first refill happens at this draw index
    expected = [float(raw.exponential(1.0)) for _ in range(boundary + 2)]
    got = [sampler() for _ in range(boundary + 2)]
    assert got[boundary - 1] == expected[boundary - 1]
    assert got[boundary] == expected[boundary]
    assert got == expected


@pytest.mark.parametrize("consumed", [0, 1, 37, _BATCH_START - 1,
                                      _BATCH_START])
def test_pickled_sampler_continues_exact_sequence(consumed):
    """A sampler pickled mid-batch (as when a job spec crosses the
    ParallelRunner process boundary) resumes the identical sequence."""
    sampler = RandomStreams(11).exponential("job", rate=4.0)
    for _ in range(consumed):
        sampler()
    clone = pickle.loads(pickle.dumps(sampler))
    assert [sampler() for _ in range(500)] == \
        [clone() for _ in range(500)]


def test_pickled_uniform_sampler_continues_exact_sequence():
    sampler = RandomStreams(13).uniform_int("job-int", 0, 1 << 30)
    sampler.sample(70)  # leaves a partially consumed second batch
    clone = pickle.loads(pickle.dumps(sampler))
    assert sampler.sample(300).tolist() == clone.sample(300).tolist()
    assert [sampler() for _ in range(50)] == [clone() for _ in range(50)]


def test_rejects_bad_parameters():
    gen = RandomStreams(0).stream("x")
    with pytest.raises(ValueError):
        ExponentialSampler(gen, rate=0.0)
    with pytest.raises(ValueError):
        UniformIntSampler(gen, 5, 5)


def test_stream_names_with_shared_long_prefix_are_independent():
    """Regression: name derivation once truncated to 16 bytes, so names
    sharing a 16-byte prefix silently aliased the same generator."""
    streams = RandomStreams(123)
    a = streams.stream("arrivals-site-0-primary-alpha")
    b = streams.stream("arrivals-site-0-primary-beta")
    assert a is not b
    assert a.random(8).tolist() != b.random(8).tolist()


def test_spawn_keys_with_shared_long_prefix_are_independent():
    parent = RandomStreams(123)
    a = parent.spawn("replication-worker-pool-00001")
    b = parent.spawn("replication-worker-pool-00002")
    assert a.stream("x").random(8).tolist() != \
        b.stream("x").random(8).tolist()


# ---------------------------------------------------------------------------
# StreamReplay: exact replay of Generator.random / Generator.integers
# ---------------------------------------------------------------------------

#: Range widths covering every branch of numpy's int64 ``integers``:
#: nothing consumed (1), 32-bit Lemire (up to 2**32 - 1), the raw 32-bit
#: word (2**32) and 64-bit Lemire (wider).  2**31 + k rejects about half
#: of its words, so retries and word pairing get exercised.
REPLAY_WIDTHS = [1, 2, 3_276, 32_768, 2**31 + 1, 2**31 + 12_345,
                 2**32 - 1, 2**32, 2**40]

replay_calls = st.lists(st.one_of(
    st.tuples(st.just("random"), st.just(0), st.just(0), st.just(None)),
    st.tuples(st.just("integers"), st.integers(-1_000, 1_000),
              st.sampled_from(REPLAY_WIDTHS),
              st.one_of(st.none(), st.integers(0, 40)))),
    max_size=200)


def _replay_step(target, call):
    kind, low, width, size = call
    if kind == "random":
        return float(target.random())
    if isinstance(target, np.random.Generator):
        drawn = target.integers(low, low + width, size=size)
        return int(drawn) if size is None else drawn.tolist()
    return target.integers(low, low + width, size)


@given(seed=st.integers(0, 2**32 - 1), calls=replay_calls,
       pickle_at=st.integers(0, 200))
@settings(max_examples=300, deadline=None)
def test_replay_matches_generator(seed, calls, pickle_at):
    reference = np.random.Generator(np.random.PCG64(seed))
    replay = StreamReplay(np.random.Generator(np.random.PCG64(seed)))
    for index, call in enumerate(calls):
        if index == pickle_at:
            replay = pickle.loads(pickle.dumps(replay))
        got = _replay_step(replay, call)
        assert got == _replay_step(reference, call), (index, call)
        # Python ints and floats, never numpy scalars.
        assert type(got) in (int, float, list)
    # The stream position matches too: the next raw output is shared.
    assert replay.random() == reference.random()


@pytest.mark.parametrize("words", [1, 2, 127, 128, 129, 255])
def test_replay_crosses_batch_boundary_mid_word(words):
    """A 32-bit word stream whose raw outputs straddle a refill, with a
    pending high half at the boundary, then a 64-bit draw after it."""
    seed = 77
    reference = np.random.Generator(np.random.PCG64(seed))
    replay = StreamReplay(np.random.Generator(np.random.PCG64(seed)))
    assert replay.integers(0, 10_000, words) == \
        reference.integers(0, 10_000, size=words).tolist()
    for _ in range(_BATCH_START):
        assert replay.random() == reference.random()
        assert replay.integers(5, 9) == reference.integers(5, 9)


def test_replay_adopts_a_pending_half_word():
    """Created on a generator that owes a 32-bit half (``has_uint32``),
    the replay delivers that half first, as the generator would."""
    reference = np.random.Generator(np.random.PCG64(5))
    shared = np.random.Generator(np.random.PCG64(5))
    assert reference.integers(0, 100) == shared.integers(0, 100)
    assert shared.bit_generator.state["has_uint32"]
    replay = StreamReplay(shared)
    assert replay.integers(0, 100, 9) == \
        reference.integers(0, 100, size=9).tolist()


def test_replay_named_stream_matches_stream():
    replay = RandomStreams(3).replay("txn-references")
    raw = RandomStreams(3).stream("txn-references")
    assert [replay.integers(0, 3_276, 10) for _ in range(300)] == \
        [raw.integers(0, 3_276, size=10).tolist() for _ in range(300)]


def test_replay_full_int64_range():
    """Width 2**64 is numpy's raw-output path, reached through Lemire's
    zero threshold."""
    reference = np.random.Generator(np.random.PCG64(8))
    replay = StreamReplay(np.random.Generator(np.random.PCG64(8)))
    for size in (None, 1, 7):
        drawn = reference.integers(-2**63, 2**63, size=size)
        expected = int(drawn) if size is None else drawn.tolist()
        assert replay.integers(-2**63, 2**63, size) == expected


def test_replay_refuses_other_bit_generators():
    for bit_generator in (np.random.MT19937(1), np.random.Philox(1),
                          np.random.PCG64DXSM(1)):
        with pytest.raises(TypeError):
            StreamReplay(np.random.Generator(bit_generator))


def test_replay_rejects_empty_and_out_of_int64_ranges():
    replay = RandomStreams(0).replay("x")
    for low, high in [(5, 5), (6, 5), (-2**63 - 1, 0), (0, 2**63 + 1)]:
        with pytest.raises(ValueError):
            replay.integers(low, high)
