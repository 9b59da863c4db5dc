"""Tests for the RNG helpers: seeded, spawned and counter-keyed streams."""

from __future__ import annotations

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.sampling import CounterStreams, counter_rng, make_rng, spawn_rng


class TestMakeRng:
    def test_seed_reproducibility(self):
        assert make_rng(42).random() == make_rng(42).random()

    def test_generator_passthrough(self):
        rng = np.random.default_rng(0)
        assert make_rng(rng) is rng

    def test_none_gives_fresh_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)


def _draws(rng: np.random.Generator, bound: int) -> list:
    """A mix of the draw kinds the simulator makes, bounded integers included."""
    return [
        rng.random(),
        int(rng.integers(0, bound)),
        int(rng.integers(bound // 3, bound)),
        rng.uniform(0.05, 0.6),
        rng.exponential(3.5),
        rng.random(),
    ]


_SEEDS = st.integers(min_value=0, max_value=2**40)
_DOMAINS = st.sampled_from(["request", "warm", "origin-mutation", ""])
_INDICES = st.integers(min_value=0, max_value=2**64 - 1)
# Bounds on both sides of 2**32: numpy's bounded-integer path switches from
# 32-bit (buffered half-words) to 64-bit draws there.
_BOUNDS = st.one_of(
    st.integers(min_value=1, max_value=2**32),
    st.integers(min_value=2**32 + 1, max_value=2**62),
)


class TestCounterStreams:
    @settings(max_examples=200)
    @given(seed=_SEEDS, domain=_DOMAINS, index=_INDICES, bound=_BOUNDS)
    def test_at_equals_counter_rng(self, seed, domain, index, bound):
        streams = CounterStreams(seed, domain)
        assert _draws(streams.at(index), bound) == _draws(counter_rng(seed, domain, index), bound)

    @settings(max_examples=50)
    @given(
        seed=_SEEDS,
        indices=st.lists(st.integers(min_value=2**63, max_value=2**64 - 1), min_size=1, max_size=5),
        bound=_BOUNDS,
    )
    def test_indices_at_and_above_2_63(self, seed, indices, bound):
        streams = CounterStreams(seed, "request")
        for index in indices:
            assert _draws(streams.at(index), bound) == _draws(counter_rng(seed, "request", index), bound)

    @settings(max_examples=50)
    @given(seed=_SEEDS, indices=st.lists(_INDICES, min_size=2, max_size=8), bound=_BOUNDS)
    def test_rekeying_back_to_an_earlier_index(self, seed, indices, bound):
        """Any visiting order, revisits and partly consumed streams included."""
        streams = CounterStreams(seed, "request")
        for index in indices + indices[::-1]:
            assert _draws(streams.at(index), bound) == _draws(counter_rng(seed, "request", index), bound)
        # A stream abandoned after an odd number of 32-bit draws leaves a
        # buffered half-word behind; re-keying must drop it.
        streams.at(indices[0]).integers(0, 7, dtype=np.uint32)
        assert _draws(streams.at(indices[-1]), bound) == _draws(
            counter_rng(seed, "request", indices[-1]), bound
        )

    @settings(max_examples=30)
    @given(seed=_SEEDS, domain=_DOMAINS, first=_INDICES, second=_INDICES)
    def test_pickle_round_trip(self, seed, domain, first, second):
        streams = CounterStreams(seed, domain)
        streams.at(first).random()
        clone = pickle.loads(pickle.dumps(streams))
        assert (clone.seed, clone.domain) == (seed, domain)
        for index in (second, first):
            assert _draws(clone.at(index), 1000) == _draws(counter_rng(seed, domain, index), 1000)

    def test_the_generator_is_shared(self):
        streams = CounterStreams(3, "request")
        assert streams.at(1) is streams.at(2)

    def test_index_wraps_like_counter_rng(self):
        streams = CounterStreams(3, "request")
        assert streams.at(2**64 + 5).random() == counter_rng(3, "request", 5).random()


class TestSpawnRng:
    def test_deterministic_given_parent_state(self):
        a = spawn_rng(make_rng(1), "catalog").random()
        b = spawn_rng(make_rng(1), "catalog").random()
        assert a == b

    def test_different_labels_diverge(self):
        parent = make_rng(1)
        child_a = spawn_rng(parent, "a")
        parent2 = make_rng(1)
        child_b = spawn_rng(parent2, "b")
        assert child_a.random() != child_b.random()
