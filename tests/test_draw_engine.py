"""The draw engine yields numpy's scalar draws, bit for bit.

Every stream draws through a :class:`~repro.sim.random.DrawEngine`: integers
and uniforms computed from raw PCG64 words, exponentials and lognormals
scaled from batches of standard variates.  The reference is
``NumpyScalarStreams`` (``tests/conftest.py``): one numpy scalar call per
draw.  A change to numpy's algorithms, or a platform whose numpy computes a
draw differently (a fused multiply-add in ``low + span * u``), fails here
rather than silently moving a digest.
"""

from __future__ import annotations

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.engine import Database
from repro.sim.random import RandomStreams
from repro.tpcw.population import PopulationScale, populate_database
from repro.tpcw.schema import create_tpcw_schema

#: Inclusive spans ``high - low`` at the edges of numpy's integer paths: zero
#: width, Lemire on half-words (up to 2**32 - 2), a plain half-word
#: (2**32 - 1), Lemire on words (2**32 on), the card-number range and a plain
#: word (the whole int64 range).  Lemire rejects about half the draws of
#: 2**31 and 2**63.
EDGE_SPANS = (
    0, 1, 2**31, 2**32 - 2, 2**32 - 1, 2**32, 10**16 - 1 - 10**15, 2**63, 2**64 - 1
)

WORD_STREAMS = ("w0", "w1")

_int_draw = st.tuples(
    st.just("integers"),
    st.sampled_from(WORD_STREAMS),
    st.sampled_from(EDGE_SPANS) | st.integers(0, 2**64 - 1) | st.integers(0, 300),
    st.floats(0.0, 1.0),
)
_uniform_draw = st.tuples(
    st.just("uniform"),
    st.sampled_from(WORD_STREAMS),
    st.floats(-1e9, 1e9),
    st.floats(0.0, 1e9),
)
_exponential_draw = st.tuples(
    st.just("exponential"), st.just("e"), st.floats(1e-3, 1e3), st.just(0.0)
)
_lognormal_draw = st.tuples(
    st.just("lognormal"), st.just("n"), st.floats(1e-3, 10.0), st.floats(1e-3, 2.0)
)
_rewind = st.tuples(
    st.just("rewind"), st.sampled_from(WORD_STREAMS + ("e", "n")), st.just(0), st.just(0.0)
)
_operations = st.lists(
    st.one_of(_int_draw, _int_draw, _uniform_draw, _exponential_draw, _lognormal_draw, _rewind),
    min_size=1,
    max_size=400,
)


def _apply(streams: RandomStreams, operation) -> object:
    """One draw (or rewind) on ``streams``; a rewind yields the state and the
    next numpy draw taken directly from the rewound generator."""
    kind, name, first, second = operation
    if kind == "integers":
        low = -(2**63) + (int(second * 2**53) * (2**64 - 1 - first) >> 53)
        return streams.uniform_int(name, low, low + first)
    if kind == "uniform":
        return streams.uniform(name, first, first + second)
    if kind == "exponential":
        return streams.exponential(name, first)
    if kind == "lognormal":
        return streams.lognormal_service_time(name, first, second)
    generator = streams.stream(name)
    state = generator.bit_generator.state
    return state, int(generator.integers(0, 1000))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), operations=_operations)
def test_engine_draws_equal_numpy_scalar_draws(numpy_scalar_streams, seed, operations):
    streams = RandomStreams(seed)
    reference = numpy_scalar_streams(seed)
    for operation in operations:
        got = _apply(streams, operation)
        expected = _apply(reference, operation)
        assert type(got) is type(expected)
        assert got == expected, operation
    for name in WORD_STREAMS + ("e", "n"):
        assert streams.stream(name).bit_generator.state == reference.stream(name).bit_generator.state


@pytest.mark.parametrize("seed", [1, 7])
def test_twenty_thousand_mixed_draws_cross_every_refill(numpy_scalar_streams, seed):
    """Enough draws to reach the largest refills, with rewinds between."""
    choose = random.Random(seed)
    streams = RandomStreams(seed)
    reference = numpy_scalar_streams(seed)
    for index in range(20_000):
        pick = choose.random()
        if pick < 0.45:
            span = choose.choice(EDGE_SPANS) if pick < 0.05 else choose.randrange(1, 10_000)
            operation = ("integers", choose.choice(WORD_STREAMS), span, choose.random())
        elif pick < 0.7:
            operation = ("uniform", choose.choice(WORD_STREAMS), choose.uniform(-1e3, 1e3), 1e3)
        elif pick < 0.85:
            operation = ("exponential", "e", choose.uniform(0.1, 10.0), 0.0)
        elif pick < 0.9995:
            operation = ("lognormal", "n", choose.uniform(0.01, 1.0), choose.uniform(0.01, 1.0))
        else:
            operation = ("rewind", choose.choice(WORD_STREAMS + ("e", "n")), 0, 0.0)
        assert _apply(streams, operation) == _apply(reference, operation), (index, operation)


def _outcome(draw):
    try:
        value = draw()
    except Exception as error:  # noqa: BLE001 - the type is what is compared
        return type(error)
    return type(value), value


@pytest.mark.parametrize(
    "low, high",
    [
        (5, 5), (5, 4), (0, 1), (0, 2**32), (-(2**63), 2**63), (-(2**63) - 1, 0),
        (0, 2**63 + 1), (2**63, 2**63 + 3), (np.int64(3), np.int64(90)), (1.5, 10),
    ],
)
def test_integers_raise_and_return_what_numpy_does(low, high):
    engine = RandomStreams(3).engine("x")
    generator = RandomStreams(3).stream("x")
    got = _outcome(lambda: engine.integers(low, high))
    expected = _outcome(lambda: generator.integers(low, high))
    if isinstance(expected, tuple):
        expected = (int, int(expected[1]))
    assert got == expected


@pytest.mark.parametrize(
    "low, high",
    [
        (0.0, float("inf")), (float("nan"), 1.0), (1.0, 0.0), (1.0, -float("inf")),
        (-1e308, 1e308), (3600, 604800), (np.float64(0.5), 2.0), (2**60 + 1, 2**60 + 3),
    ],
)
def test_uniform_raises_and_returns_what_numpy_does(low, high):
    engine = RandomStreams(3).engine("x")
    generator = RandomStreams(3).stream("x")
    assert _outcome(lambda: engine.uniform(low, high)) == _outcome(
        lambda: generator.uniform(low, high)
    )


def test_a_stream_serves_one_source_between_rewinds():
    streams = RandomStreams(5)
    streams.uniform_int("s", 0, 9)
    with pytest.raises(ValueError, match="stream 's' draws from raw words"):
        streams.exponential("s", 2.0)
    with pytest.raises(ValueError, match="stream 's'"):
        streams.lognormal_service_time("s", 0.1, 0.3)
    # After a rewind the stream may serve another source, from where the
    # scalar path would stand.
    streams.stream("s")
    reference = RandomStreams(5).stream("s")
    reference.integers(0, 10)
    assert streams.exponential("s", 2.0) == float(reference.exponential(2.0))


def test_refills_start_small_and_double():
    streams = RandomStreams(9)
    streams.uniform("u")
    streams.exponential("e", 1.0)
    assert streams.engine("u")._read == streams.engine("e")._read == 16
    for _ in range(16):
        streams.uniform("u")
    assert streams.engine("u")._read == 16 + 32


def _counting_subclass(base, calls: Counter):
    """``base`` with every public method and the ``state`` property counted."""
    namespace = {}
    for name in dir(base):
        member = getattr(base, name)
        if name == "state":
            def get(self, _name=name):
                calls[_name] += 1
                return base.state.__get__(self, base)

            def put(self, value, _name=name):
                calls[_name] += 1
                base.state.__set__(self, value)

            namespace[name] = property(get, put)
        elif not name.startswith("_") and callable(member) and not isinstance(member, type):
            def method(self, *args, _name=name, _member=member, **kwargs):
                calls[_name] += 1
                return _member(self, *args, **kwargs)

            namespace[name] = method
    return type(f"Counting{base.__name__}", (base,), namespace)


def test_populating_the_standard_store_makes_at_most_20_numpy_calls(monkeypatch):
    """Numpy's methods are compiled, so a profiler does not see them; counting
    subclasses patched in do.  One numpy scalar call per draw made 52 080."""
    calls: Counter = Counter()
    monkeypatch.setattr(np.random, "Generator", _counting_subclass(np.random.Generator, calls))
    monkeypatch.setattr(np.random, "PCG64", _counting_subclass(np.random.PCG64, calls))
    database = Database()
    create_tpcw_schema(database)
    populate_database(database, PopulationScale.standard(), RandomStreams(1))
    assert calls["random_raw"] >= 1  # the patch took
    assert sum(calls.values()) <= 20, calls
