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
"""

from __future__ import annotations

import zlib
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: Default number of draws pulled from the generator per buffered refill.
DEFAULT_DRAW_BATCH = 512


class _DrawBuffer:
    """Batched draws for one (stream, distribution, parameters) triple.

    A numpy ``Generator`` consumes exactly the same underlying bit stream
    for ``generator.exponential(mean, size=k)`` as for ``k`` successive
    scalar calls, so serving scalar draws out of a batch array is
    bit-identical to the unbuffered path — it only amortises the per-call
    numpy dispatch overhead.  Each batch is kept as ``ndarray.tolist()``:
    the same Python floats ``float(values[i])`` gives, without a numpy
    scalar per draw.  The parameters are pinned at registration: a draw
    with different parameters would silently consume the wrong
    distribution, so it raises instead.
    """

    __slots__ = ("generator", "kind", "params", "batch", "_values", "_index")

    def __init__(
        self,
        generator: np.random.Generator,
        kind: str,
        params: Tuple[float, ...],
        batch: int,
    ) -> None:
        self.generator = generator
        self.kind = kind
        self.params = params
        self.batch = batch
        self._values: List[float] = []
        self._index = 0

    def next(self) -> float:
        """The next draw of the stream (refilling the batch when spent)."""
        index = self._index
        values = self._values
        if index == len(values):
            if self.kind == "exponential":
                batch = self.generator.exponential(self.params[0], size=self.batch)
            else:  # uniform
                batch = self.generator.uniform(self.params[0], self.params[1], size=self.batch)
            values = self._values = batch.tolist()
            index = 0
        self._index = index + 1
        return values[index]


class RandomStreams:
    """Factory of named :class:`numpy.random.Generator` streams.

    Parameters
    ----------
    seed:
        Master seed for the whole experiment.
    """

    def __init__(self, seed: int = 0) -> None:
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}
        self._buffers: Dict[str, _DrawBuffer] = {}
        #: ``(name, mean, cv) -> (bound lognormal, mu, sigma)``.
        self._lognormals: Dict[Tuple[str, float, float], tuple] = {}

    @property
    def seed(self) -> int:
        """The master seed."""
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the generator for ``name``."""
        if not name:
            raise ValueError("stream name must be a non-empty string")
        generator = self._streams.get(name)
        if generator is None:
            # Derive a child seed deterministically from (master seed, name).
            name_key = zlib.crc32(name.encode("utf-8"))
            seed_seq = np.random.SeedSequence(entropy=self._seed, spawn_key=(name_key,))
            generator = np.random.Generator(np.random.PCG64(seed_seq))
            self._streams[name] = generator
        return generator

    def names(self) -> List[str]:
        """Names of streams created so far (sorted)."""
        return sorted(self._streams)

    # ------------------------------------------------------------------ #
    # Batched draws (opt-in, bit-identical)
    # ------------------------------------------------------------------ #
    def buffer_stream(
        self,
        name: str,
        kind: str,
        params: Sequence[float],
        batch: int = DEFAULT_DRAW_BATCH,
    ) -> Callable[[], float]:
        """Serve ``name``'s scalar draws from bulk batches of ``batch`` draws.

        Only streams whose distribution parameters never vary may be
        buffered (``kind`` is ``"exponential"`` with ``(mean,)`` or
        ``"uniform"`` with ``(low, high)``); a later draw with different
        parameters raises ``ValueError`` rather than silently consuming a
        mismatched batch.  Buffered draws are bit-identical to unbuffered
        ones — numpy's sized draws consume the same underlying bit stream.

        Returns the buffer's draw function: calling it is the scalar draw
        with the pinned parameters, minus the per-call name lookup and
        parameter check (callers bind it once, when they are built).
        """
        if kind not in ("exponential", "uniform"):
            raise ValueError(f"cannot buffer draws of kind {kind!r}")
        if batch <= 0:
            raise ValueError(f"batch must be positive, got {batch}")
        params = tuple(float(p) for p in params)
        expected = 1 if kind == "exponential" else 2
        if len(params) != expected:
            raise ValueError(f"{kind} draws take {expected} parameter(s), got {len(params)}")
        existing = self._buffers.get(name)
        if existing is not None:
            if existing.kind != kind or existing.params != params:
                raise ValueError(
                    f"stream {name!r} already buffered as {existing.kind}{existing.params}"
                )
            return existing.next
        buffer = self._buffers[name] = _DrawBuffer(self.stream(name), kind, params, int(batch))
        return buffer.next

    def _buffer_mismatch(self, name: str, kind: str, params: Tuple[float, ...]) -> ValueError:
        buffer = self._buffers[name]
        return ValueError(
            f"stream {name!r} is buffered as {buffer.kind}{buffer.params}; "
            f"cannot draw {kind}{params} from it"
        )

    # ------------------------------------------------------------------ #
    # Convenience draws used across the code base
    # ------------------------------------------------------------------ #
    def exponential(self, name: str, mean: float) -> float:
        """One draw from an exponential distribution with the given mean."""
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        buffer = self._buffers.get(name)
        if buffer is not None:
            if buffer.kind != "exponential" or buffer.params[0] != mean:
                raise self._buffer_mismatch(name, "exponential", (float(mean),))
            return buffer.next()
        return float(self.stream(name).exponential(mean))

    def uniform_int(self, name: str, low: int, high: int) -> int:
        """One integer drawn uniformly from ``[low, high]`` inclusive."""
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        return int(self.stream(name).integers(low, high + 1))

    def uniform(self, name: str, low: float = 0.0, high: float = 1.0) -> float:
        """One float drawn uniformly from ``[low, high)``."""
        if high < low:
            raise ValueError(f"empty range [{low}, {high})")
        buffer = self._buffers.get(name)
        if buffer is not None:
            if buffer.kind != "uniform" or buffer.params != (low, high):
                raise self._buffer_mismatch(name, "uniform", (float(low), float(high)))
            return buffer.next()
        return float(self.stream(name).uniform(low, high))

    def uniform_array(self, name: str, low: float, high: float, size: int) -> np.ndarray:
        """``size`` uniform draws in one call (same stream as scalar draws).

        Used by bulk setup paths (e.g. staggering thousands of browser start
        times); consuming ``size`` draws here is bit-identical to ``size``
        scalar :meth:`uniform` calls.  Buffered streams cannot be bulk-drawn
        (the buffer already owns the stream's read position).
        """
        if high < low:
            raise ValueError(f"empty range [{low}, {high})")
        if size < 0:
            raise ValueError(f"size must be >= 0, got {size}")
        if name in self._buffers:
            raise ValueError(f"stream {name!r} is buffered; use scalar draws")
        return self.stream(name).uniform(low, high, size)

    def choice(self, name: str, options: Sequence, probabilities: Optional[Iterable[float]] = None):
        """Pick one element of ``options`` (optionally weighted)."""
        options = list(options)
        if not options:
            raise ValueError("cannot choose from an empty sequence")
        generator = self.stream(name)
        if probabilities is None:
            index = int(generator.integers(0, len(options)))
            return options[index]
        probs = np.asarray(list(probabilities), dtype=float)
        if probs.shape[0] != len(options):
            raise ValueError(
                f"probabilities length {probs.shape[0]} != options length {len(options)}"
            )
        if np.any(probs < 0):
            raise ValueError("probabilities must be non-negative")
        total = probs.sum()
        if total <= 0:
            raise ValueError("probabilities must sum to a positive value")
        probs = probs / total
        index = int(generator.choice(len(options), p=probs))
        return options[index]

    def lognormal_service_time(self, name: str, mean: float, cv: float = 0.3) -> float:
        """Draw a service time with the given mean and coefficient of variation.

        Service times in the container are modelled as lognormal (strictly
        positive, right-skewed) which matches observed servlet latencies far
        better than a normal distribution.  The distribution's ``mu`` and
        ``sigma`` and the stream's bound ``lognormal`` are computed once per
        ``(name, mean, cv)``; every later draw is one numpy call.
        """
        key = (name, mean, cv)
        draw = self._lognormals.get(key)
        if draw is None:
            if mean <= 0:
                raise ValueError(f"mean must be positive, got {mean}")
            if cv < 0:
                raise ValueError(f"coefficient of variation must be >= 0, got {cv}")
            if cv == 0:
                return float(mean)
            sigma2 = np.log(1.0 + cv * cv)
            mu = np.log(mean) - sigma2 / 2.0
            draw = self._lognormals[key] = (self.stream(name).lognormal, mu, np.sqrt(sigma2))
        lognormal, mu, sigma = draw
        return float(lognormal(mu, sigma))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomStreams(seed={self._seed}, streams={len(self._streams)})"
