"""Reproducible random-number streams for simulations.

Every stochastic component of a simulation (arrivals per site, class
choice, lock-reference draws, ...) draws from its *own* named stream, all
derived from a single master seed via :class:`numpy.random.SeedSequence`
spawning.  This gives two properties that matter for simulation studies:

* **Reproducibility** -- the same master seed reproduces the same sample
  path exactly, independent of dict ordering or call interleaving.
* **Common random numbers** -- comparing two routing strategies under the
  same seed exposes them to the same arrival pattern and data references,
  which sharpens paired comparisons (a classic variance-reduction
  technique and the reason the paper can rank closely-spaced curves).

The samplers pre-draw in growing vectorised batches: one
``Generator.exponential(size=n)`` call is bit-identical to ``n`` scalar
calls on the same generator (and likewise for ``integers``), so the
*delivered* per-stream draw order -- the only thing the simulation ever
observes -- is unchanged by buffering.  The buffer travels with the
sampler through pickling, so a sampler restored inside a
:class:`~repro.experiments.parallel.ParallelRunner` worker continues the
exact sequence.  A sampler therefore assumes *exclusive* ownership of
its generator: drawing from the underlying stream directly while a
sampler holds buffered values would desynchronise the two.  Every
sampler in this codebase is built on a name no other component touches.

The workload's busiest streams (``txn-class``, ``txn-references``) mix
``random()`` with ``integers`` draws of varying width, so no single
vector call can pre-draw them.  :meth:`RandomStreams.replay` instead
buffers the stream's *raw* 64-bit PCG64 outputs
(``bit_generator.random_raw``, in the samplers' growing batches) and
turns them into draws in Python exactly as numpy's ``Generator`` does:
``random()`` is numpy's ``next_double`` and ``integers(low, high)`` is
the default int64 path of ``Generator.integers`` (Lemire's bounded
rejection on 32-bit words, each raw output yielding its low half first
and its high half on the next word, like PCG64's ``has_uint32``; 64-bit
Lemire for ranges wider than 2**32).  Every draw, and the stream
position after it, is bit-identical to calling the ``Generator``
directly.  A :class:`StreamReplay` follows the samplers' contract: it
owns its stream exclusively (it adopts a pending 32-bit half when it
is created, and the generator must not be drawn from afterwards), and
its buffer and pending half pickle with it, so a restored replay
continues the exact sequence.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["RandomStreams", "ExponentialSampler", "UniformIntSampler",
           "StreamReplay", "crn_seed"]


def crn_seed(base_seed: int, point_key: str, replication: int) -> int:
    """Master seed for one ``(experiment point, replication)`` pair.

    Common random numbers across *strategies*: the derivation hashes the
    base seed, a strategy-free point key (the arrival rate) and the
    replication index -- and deliberately nothing else -- so every
    strategy evaluated at the same load runs replication ``r`` on the
    **same** master seed, hence the same arrival pattern, class choices
    and lock references.  Positively correlated event streams make
    strategy-vs-strategy differences far less noisy than independent
    runs (see :func:`repro.sim.stats.paired_difference`).

    Unlike the legacy ``base_seed + replication`` scheme -- which reuses
    the *identical* sample path at every rate of a sweep -- distinct
    point keys and replication indices get independent entropy, so
    cross-replication variance estimates stay honest.

    The value is a 63-bit non-negative integer (blake2b digest of the
    joined material), stable across platforms and Python versions.
    """
    material = f"{base_seed}|{point_key}|{replication}".encode("utf-8")
    digest = hashlib.blake2b(material, digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


def _name_key(name: str) -> tuple[int, ...]:
    """Spawn-key words derived from the *full* stream name.

    A fixed-length blake2b digest keyed by every byte of the name: two
    distinct names always get distinct keys (up to hash collisions on a
    256-bit digest).  The previous derivation truncated the name to its
    first 16 bytes, silently aliasing any streams whose names shared a
    16-byte prefix -- e.g. two long per-site stream families.
    """
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=32).digest()
    return tuple(int.from_bytes(digest[i:i + 4], "little")
                 for i in range(0, 32, 4))

#: Pre-draw batch sizing: start small so short-lived samplers do not
#: waste entropy (the unused tail of a batch is simply never observed,
#: which is harmless for determinism but costs the vector-draw time),
#: then double up to the limit so long-running arrival streams amortise
#: the numpy call overhead over ~a thousand draws.
_BATCH_START = 64
_BATCH_LIMIT = 1024


class RandomStreams:
    """A factory of named, independent random generators.

    Streams are created lazily and cached by name; the same name always
    returns the same generator object within one :class:`RandomStreams`
    instance, and the same sequence of draws across instances built from
    the same master seed.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._root = np.random.SeedSequence(self.seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it if needed."""
        gen = self._streams.get(name)
        if gen is None:
            # Derive a child seed deterministically from the stream name so
            # that creation *order* does not matter.
            child = np.random.SeedSequence(
                entropy=self._root.entropy,
                spawn_key=tuple(self._root.spawn_key) + _name_key(name))
            gen = np.random.Generator(np.random.PCG64(child))
            self._streams[name] = gen
        return gen

    def exponential(self, name: str, rate: float) -> "ExponentialSampler":
        """Sampler of exponential inter-arrival times with the given rate."""
        return ExponentialSampler(self.stream(name), rate)

    def uniform_int(self, name: str, low: int,
                    high: int) -> "UniformIntSampler":
        """Sampler of uniform integers in ``[low, high)``."""
        return UniformIntSampler(self.stream(name), low, high)

    def replay(self, name: str) -> "StreamReplay":
        """Exact buffered replay of stream ``name`` (see
        :class:`StreamReplay`); it owns the stream from now on."""
        return StreamReplay(self.stream(name))

    def spawn(self, name: str) -> "RandomStreams":
        """Derive an independent child :class:`RandomStreams`."""
        child = RandomStreams.__new__(RandomStreams)
        child.seed = self.seed
        child._root = np.random.SeedSequence(
            entropy=self._root.entropy,
            spawn_key=(0xFFFF,) + _name_key(name))
        child._streams = {}
        return child


class ExponentialSampler:
    """Draws exponential variates with a fixed rate (mean ``1/rate``).

    Draws are pre-computed in growing vectorised batches; the delivered
    sequence is bit-identical to scalar-by-scalar draws on the same
    generator (see the module docstring for the ownership contract).
    """

    def __init__(self, generator: np.random.Generator, rate: float):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self._generator = generator
        self.rate = float(rate)
        self._scale = 1.0 / self.rate
        self._buffer: list[float] = []
        self._next = 0
        self._batch = _BATCH_START

    def _refill(self) -> None:
        self._buffer = self._generator.exponential(
            self._scale, size=self._batch).tolist()
        self._next = 0
        if self._batch < _BATCH_LIMIT:
            self._batch = min(self._batch * 2, _BATCH_LIMIT)

    def __call__(self) -> float:
        i = self._next
        buffer = self._buffer
        if i >= len(buffer):
            self._refill()
            buffer = self._buffer
            i = 0
        self._next = i + 1
        return buffer[i]


class UniformIntSampler:
    """Draws uniform integers from ``[low, high)``.

    Scalar calls and :meth:`sample` vectors are served from one shared
    pre-draw buffer, so the delivered order matches an unbuffered
    sampler draw-for-draw no matter how the two entry points interleave.
    """

    def __init__(self, generator: np.random.Generator, low: int, high: int):
        if high <= low:
            raise ValueError(f"empty range [{low}, {high})")
        self._generator = generator
        self.low = int(low)
        self.high = int(high)
        self._buffer: list[int] = []
        self._next = 0
        self._batch = _BATCH_START

    def _refill(self, need: int = 1) -> None:
        size = max(self._batch, need)
        self._buffer = self._generator.integers(
            self.low, self.high, size=size).tolist()
        self._next = 0
        if self._batch < _BATCH_LIMIT:
            self._batch = min(self._batch * 2, _BATCH_LIMIT)

    def __call__(self) -> int:
        i = self._next
        buffer = self._buffer
        if i >= len(buffer):
            self._refill()
            buffer = self._buffer
            i = 0
        self._next = i + 1
        return buffer[i]

    def sample(self, size: int) -> np.ndarray:
        """Vector of ``size`` draws (used for per-transaction lock sets)."""
        out: list[int] = []
        while len(out) < size:
            if self._next >= len(self._buffer):
                self._refill(size - len(out))
            take = min(len(self._buffer) - self._next, size - len(out))
            out.extend(self._buffer[self._next:self._next + take])
            self._next += take
        return np.asarray(out, dtype=np.int64)


_WORD32 = 1 << 32
_WORD64 = 1 << 64
_MASK64 = _WORD64 - 1
_INT64 = 1 << 63
_DOUBLE_UNIT = 2.0 ** -53


class StreamReplay:
    """``random()`` and ``integers`` of a PCG64 ``Generator``, replayed
    in Python from buffered raw outputs.

    Each draw equals the one the wrapped generator would have returned,
    and in the same order (see the module docstring for the algorithms
    and the ownership contract).  Only PCG64 is supported: the 32-bit
    word order replayed here is that bit generator's.
    """

    def __init__(self, generator: np.random.Generator):
        bit_generator = generator.bit_generator
        if not isinstance(bit_generator, np.random.PCG64):
            raise TypeError("StreamReplay replays PCG64 streams only, "
                            f"not {type(bit_generator).__name__}")
        state = bit_generator.state
        self._generator = generator
        self._raw: list[int] = []
        self._next = 0
        self._batch = _BATCH_START
        #: High half of the last raw output split into 32-bit words,
        #: owed to the next word (PCG64's ``has_uint32``/``uinteger``).
        self._half: int | None = (state["uinteger"] if state["has_uint32"]
                                  else None)

    def _refill(self) -> None:
        self._raw = self._generator.bit_generator.random_raw(
            self._batch).tolist()
        self._next = 0
        if self._batch < _BATCH_LIMIT:
            self._batch = min(self._batch * 2, _BATCH_LIMIT)

    def _next64(self) -> int:
        i = self._next
        raw = self._raw
        if i >= len(raw):
            self._refill()
            raw = self._raw
            i = 0
        self._next = i + 1
        return raw[i]

    def random(self) -> float:
        """Uniform float in ``[0, 1)``, as ``Generator.random()``."""
        return (self._next64() >> 11) * _DOUBLE_UNIT

    def integers(self, low: int, high: int, size: int | None = None):
        """Uniform integer(s) in ``[low, high)``, as
        ``Generator.integers(low, high, size)`` with its default int64
        dtype; a ``size`` gives a list of Python ints."""
        if not -_INT64 <= low < high <= _INT64:
            raise ValueError(f"bad int64 range [{low}, {high})")
        count = 1 if size is None else size
        span = high - low
        if span == 1:
            out = [low] * count
        elif span <= _WORD32:
            out = self._lemire32(low, span, count)
        else:
            out = self._lemire64(low, span, count)
        return out[0] if size is None else out

    def _lemire32(self, low: int, span: int, count: int) -> list[int]:
        """numpy's ``buffered_bounded_lemire_uint32``, with the word
        buffer kept in locals across the ``count`` draws.

        At ``span == 2**32`` the threshold is 0 and every word is kept
        as it is, which is numpy's separate full-width path.
        """
        threshold = _WORD32 % span
        raw, i, half = self._raw, self._next, self._half
        out = []
        append = out.append
        for _ in range(count):
            while True:
                if half is None:
                    if i >= len(raw):
                        self._refill()
                        raw, i = self._raw, 0
                    value = raw[i]
                    i += 1
                    half = value >> 32
                    scaled = (value & 0xFFFFFFFF) * span
                else:
                    scaled = half * span
                    half = None
                if scaled & 0xFFFFFFFF >= threshold:
                    break
            append(low + (scaled >> 32))
        self._next, self._half = i, half
        return out

    def _lemire64(self, low: int, span: int, count: int) -> list[int]:
        """numpy's ``bounded_lemire_uint64`` (at ``span == 2**64``, its
        full-width path, as in :meth:`_lemire32`)."""
        threshold = _WORD64 % span
        out = []
        for _ in range(count):
            scaled = self._next64() * span
            while scaled & _MASK64 < threshold:
                scaled = self._next64() * span
            out.append(low + (scaled >> 64))
        return out
