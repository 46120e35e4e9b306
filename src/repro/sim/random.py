"""Named, independently-seeded random streams.

Reproducibility rule of this code base: *no module ever calls the global
``random`` / ``numpy.random`` state*.  Every stochastic decision (EB think
times, workload-mix transitions, leak countdown draws, service-time noise)
pulls from a named stream obtained from a single :class:`RandomStreams`
object created by the experiment harness.

Streams are derived with ``numpy.random.SeedSequence.spawn``-style child
seeding keyed by the stream name, so adding a new stream never perturbs the
draws of existing ones (important when comparing a monitored and an
unmonitored run of the same workload, as the paper's Fig. 3 does).

Every draw goes through the stream's :class:`DrawEngine`, which yields the
values numpy's scalar ``Generator`` calls would, in the same order, without
a numpy call per draw:

* ``integers`` and ``uniform`` are computed from raw PCG64 words
  (``bit_generator.random_raw``) the way numpy computes them: Lemire's
  method on 32-bit half-words for ranges below 2**32 - 1 (keeping PCG64's
  spare half-word, as ``Generator`` does), a plain half-word at exactly
  2**32 - 1, Lemire's method on 64-bit words above; a uniform is
  ``low + (high - low) * ((word >> 11) * 2**-53)``.
* ``standard_exponential`` and ``standard_normal`` come from numpy batches.
  An exponential draw is ``mean * z`` and a service-time lognormal
  ``exp(mu + sigma * z)``: numpy's own formulas.

Refills start at 16 words or variates and double up to a cap, so a stream
drawn a handful of times prefetches little.  Between rewinds a stream
serves one source (raw words, standard exponentials or standard normals);
a draw from another source raises ``ValueError``, since each reads ahead.

**The rewind rule.**  An engine reads ahead of what it has handed out, so
its numpy generator sits past the stream's position.
:meth:`RandomStreams.stream` rewinds first: it restores the generator's
state from when the engine started drawing, redraws what the engine handed
out, restores the spare half-word and resets the engine.  The generator it
returns is where numpy's scalar calls would have left it, with an equal
``bit_generator.state``; the engine's next draw starts afresh from wherever
that generator then stands.  The returned generator stays in step with the
stream only until the engine's next draw.
"""

from __future__ import annotations

import math
import operator
import zlib
from typing import Dict, Tuple

import numpy as np

_INF = math.inf

_WORDS = "raw words"
_EXPONENTIALS = "standard exponentials"
_NORMALS = "standard normals"
#: Source -> (the engine slot holding its chunk's ``__next__``, largest refill).
_SOURCES = {
    _WORDS: ("_next_word", 4096),
    _EXPONENTIALS: ("_next_exponential", 512),
    _NORMALS: ("_next_normal", 512),
}
_FIRST_REFILL = 16


def _spent() -> float:
    """The next draw of an empty chunk: it makes the engine refill."""
    raise StopIteration


def _uniform_range(low, high) -> Tuple[float, float]:
    """``(low, high - low)`` as numpy's ``uniform`` computes and checks them."""
    low = float(low)
    span = float(high) - low
    if not math.isfinite(span):
        raise OverflowError("high - low range exceeds valid bounds")
    if span < 0:
        raise ValueError("high - low < 0")
    return low, span


class DrawEngine:
    """One stream's draws, bit-identical to numpy's scalar ``Generator`` calls.

    Draws are served from chunks read ahead from the stream's generator; see
    the module docstring for the algorithms, the refill sizes and the rewind
    rule.  ``integers`` and ``uniform`` return Python ``int`` and ``float``
    and raise what numpy raises for the same bounds.
    """

    __slots__ = (
        "name", "_generator", "_bit_generator", "_source", "_start", "_chunk", "_read",
        "_refill_size", "_spare", "_next_word", "_next_exponential", "_next_normal",
    )

    def __init__(self, name: str, bit_generator: np.random.PCG64) -> None:
        self.name = name
        self._bit_generator = bit_generator
        self._generator = np.random.Generator(bit_generator)
        self._reset()

    def _reset(self) -> None:
        """Forget the read-ahead: the next draw starts from the generator."""
        self._source = None
        #: The generator's state before the engine's first refill.
        self._start = None
        self._chunk = iter(())
        #: Units read ahead from the generator since the first refill.
        self._read = 0
        self._refill_size = _FIRST_REFILL
        #: PCG64's spare upper half-word when >= 0; once used, ``~`` of it
        #: (numpy's state keeps the used value as ``uinteger``).
        self._spare = -1
        self._next_word = self._next_exponential = self._next_normal = _spent

    def _refill(self, source: str) -> None:
        """Read the next chunk of ``source`` ahead."""
        if self._source is not source:
            if self._source is not None:
                raise ValueError(
                    f"stream {self.name!r} draws from {self._source}; "
                    f"it cannot also draw from {source}"
                )
            self._source = source
            state = self._start = self._bit_generator.state
            uinteger = state["uinteger"]
            self._spare = uinteger if state["has_uint32"] else ~uinteger
        slot, largest = _SOURCES[source]
        size = self._refill_size
        if size < largest:
            self._refill_size = 2 * size
        self._read += size
        self._chunk = iter(self._draw(source, size).tolist())
        setattr(self, slot, self._chunk.__next__)

    def _draw(self, source: str, size: int) -> np.ndarray:
        if source is _WORDS:
            return self._bit_generator.random_raw(size)
        if source is _EXPONENTIALS:
            return self._generator.standard_exponential(size)
        return self._generator.standard_normal(size)

    def rewind(self) -> np.random.Generator:
        """The generator, put where numpy's scalar draws would have left it."""
        source = self._source
        if source is None:
            return self._generator
        pending = self._read - operator.length_hint(self._chunk)
        bit_generator = self._bit_generator
        bit_generator.state = self._start
        largest = _SOURCES[source][1]
        while pending:
            size = min(pending, largest)
            self._draw(source, size)
            pending -= size
        state = bit_generator.state
        spare = self._spare
        state["has_uint32"], state["uinteger"] = (1, spare) if spare >= 0 else (0, ~spare)
        bit_generator.state = state
        self._reset()
        return self._generator

    # ------------------------------------------------------------------ #
    # Raw-word draws
    # ------------------------------------------------------------------ #
    def _next_uint32(self) -> int:
        """Numpy's ``next_uint32``: the spare half-word, else a word's lower half."""
        half = self._spare
        if half >= 0:
            self._spare = ~half
            return half
        try:
            word = self._next_word()
        except StopIteration:
            self._refill(_WORDS)
            return self._next_uint32()
        self._spare = word >> 32
        return word & 0xFFFFFFFF

    def _next_uint64(self) -> int:
        try:
            return self._next_word()
        except StopIteration:
            self._refill(_WORDS)
            return self._next_word()

    def integers(self, low: int, high: int) -> int:
        """One integer from ``[low, high)``: numpy's ``Generator.integers``."""
        span = high - low
        if span.__class__ is int and 1 < span < 2**32 and -(2**63) <= low and high <= 2**63:
            # Lemire's method on a 32-bit half-word (inlined _next_uint32).
            half = self._spare
            if half < 0:
                try:
                    word = self._next_word()
                    self._spare = word >> 32
                    half = word & 0xFFFFFFFF
                except StopIteration:
                    self._refill(_WORDS)
                    half = self._next_uint32()
            else:
                self._spare = ~half
            product = half * span
            if product & 0xFFFFFFFF < span:
                threshold = (2**32 - span) % span
                while product & 0xFFFFFFFF < threshold:
                    product = self._next_uint32() * span
            return low + (product >> 32)
        return self._integers(low, high)

    def _integers(self, low, high) -> int:
        """The rest of ``integers``: conversion, errors and the wide ranges."""
        low, high = int(low), int(high)  # numpy truncates bounds the same way
        if low < -(2**63):
            raise ValueError("low is out of bounds for int64")
        if high > 2**63:  # high is exclusive
            raise ValueError("high is out of bounds for int64")
        span = high - low
        if span < 1:
            raise ValueError("low >= high")
        if span == 1:
            return low
        if span < 2**32:
            return self.integers(low, high)
        if span == 2**32:
            return low + self._next_uint32()
        if span == 2**64:
            return low + self._next_uint64()
        product = self._next_uint64() * span
        if product & 0xFFFFFFFFFFFFFFFF < span:
            threshold = (2**64 - span) % span
            while product & 0xFFFFFFFFFFFFFFFF < threshold:
                product = self._next_uint64() * span
        return low + (product >> 64)

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """One float from ``[low, high)``: numpy's ``Generator.uniform``."""
        span = high - low
        if span.__class__ is not float or not 0.0 <= span < _INF:
            low, span = _uniform_range(low, high)
        try:
            word = self._next_word()
        except StopIteration:
            self._refill(_WORDS)
            word = self._next_word()
        return low + span * ((word >> 11) * 2**-53)

    # ------------------------------------------------------------------ #
    # Standard-variate draws
    # ------------------------------------------------------------------ #
    def standard_exponential(self) -> float:
        """One draw of numpy's ``Generator.standard_exponential``."""
        try:
            return self._next_exponential()
        except StopIteration:
            self._refill(_EXPONENTIALS)
            return self._next_exponential()

    def standard_normal(self) -> float:
        """One draw of numpy's ``Generator.standard_normal``."""
        try:
            return self._next_normal()
        except StopIteration:
            self._refill(_NORMALS)
            return self._next_normal()


class RandomStreams:
    """Factory of named, independently seeded draw streams.

    Parameters
    ----------
    seed:
        Master seed for the whole experiment (a non-negative integer).
    """

    def __init__(self, seed: int = 0) -> None:
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self._seed = int(seed)
        self._engines: Dict[str, DrawEngine] = {}
        #: ``(name, mean, cv) -> (bound standard normal, mu, sigma)``.
        self._lognormals: Dict[Tuple[str, float, float], tuple] = {}

    def engine(self, name: str) -> DrawEngine:
        """Return (creating on first use) the draw engine of stream ``name``."""
        engine = self._engines.get(name)
        if engine is None:
            if not name:
                raise ValueError("stream name must be a non-empty string")
            # Derive a child seed deterministically from (master seed, name).
            name_key = zlib.crc32(name.encode("utf-8"))
            seed_seq = np.random.SeedSequence(entropy=self._seed, spawn_key=(name_key,))
            engine = self._engines[name] = DrawEngine(name, np.random.PCG64(seed_seq))
        return engine

    def stream(self, name: str) -> np.random.Generator:
        """The numpy generator of ``name``, rewound to the stream's position."""
        return self.engine(name).rewind()

    # ------------------------------------------------------------------ #
    # Convenience draws used across the code base
    # ------------------------------------------------------------------ #
    def exponential(self, name: str, mean: float) -> float:
        """One draw from an exponential distribution with the given mean."""
        if not 0.0 < mean < _INF:
            raise ValueError(f"mean must be positive and finite, got {mean}")
        return float(mean) * (self._engines.get(name) or self.engine(name)).standard_exponential()

    def uniform_int(self, name: str, low: int, high: int) -> int:
        """One integer drawn uniformly from ``[low, high]`` inclusive."""
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        return (self._engines.get(name) or self.engine(name)).integers(low, high + 1)

    def uniform(self, name: str, low: float = 0.0, high: float = 1.0) -> float:
        """One float drawn uniformly from ``[low, high)``."""
        if high < low:
            raise ValueError(f"empty range [{low}, {high})")
        return (self._engines.get(name) or self.engine(name)).uniform(low, high)

    def lognormal_service_time(self, name: str, mean: float, cv: float = 0.3) -> float:
        """Draw a service time with the given mean and coefficient of variation.

        Service times in the container are modelled as lognormal (strictly
        positive, right-skewed) which matches observed servlet latencies far
        better than a normal distribution.  The distribution's ``mu`` and
        ``sigma`` and the stream's bound normal draw are computed once per
        ``(name, mean, cv)``; every draw is numpy's ``exp(mu + sigma * z)``.
        """
        key = (name, mean, cv)
        draw = self._lognormals.get(key)
        if draw is None:
            if not 0.0 < mean < _INF:
                raise ValueError(f"mean must be positive and finite, got {mean}")
            if not 0.0 <= cv < _INF:
                raise ValueError(f"coefficient of variation must be >= 0 and finite, got {cv}")
            if cv == 0:
                return float(mean)
            sigma2 = np.log(1.0 + cv * cv)
            mu = np.log(mean) - sigma2 / 2.0
            draw = self._lognormals[key] = (
                self.engine(name).standard_normal, float(mu), float(np.sqrt(sigma2))
            )
        normal, mu, sigma = draw
        return math.exp(mu + sigma * normal())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomStreams(seed={self._seed}, streams={len(self._engines)})"
