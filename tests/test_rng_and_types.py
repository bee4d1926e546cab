"""Tests for the RNG utilities and the public structural protocols."""

import math

import numpy as np
import pytest

from repro.rng import ExactRandom, as_generator, spawn
from repro.types import Release, StreamCounterProtocol, Synthesizer


class TestAsGenerator:
    def test_none_gives_fresh_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_int_seed_reproducible(self):
        a = as_generator(42).random(5)
        b = as_generator(42).random(5)
        assert np.allclose(a, b)

    def test_generator_passthrough(self):
        generator = as_generator(1)
        assert as_generator(generator) is generator

    def test_seed_sequence_accepted(self):
        sequence = np.random.SeedSequence(7)
        assert isinstance(as_generator(sequence), np.random.Generator)


class TestSpawn:
    def test_children_independent_and_reproducible(self):
        children_a = spawn(5, 3)
        children_b = spawn(5, 3)
        for a, b in zip(children_a, children_b):
            assert np.allclose(a.random(4), b.random(4))
        draws = [tuple(child.random(4)) for child in spawn(5, 3)]
        assert len(set(draws)) == 3

    def test_spawn_count(self):
        assert len(spawn(0, 7)) == 7
        assert spawn(0, 0) == []

    def test_spawn_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn(0, -1)

    def test_spawn_from_generator(self):
        children = spawn(as_generator(3), 4)
        assert len(children) == 4


class TestExactRandom:
    def test_randbits_range(self):
        random = ExactRandom(as_generator(0))
        for k in (0, 1, 5, 31, 32, 33, 64, 100):
            value = random.randbits(k)
            assert 0 <= value < (1 << k) if k else value == 0

    def test_randbits_negative_rejected(self):
        with pytest.raises(ValueError):
            ExactRandom(as_generator(0)).randbits(-1)

    def test_randrange_uniformity(self):
        random = ExactRandom(as_generator(1))
        counts = np.zeros(7, dtype=int)
        for _ in range(7000):
            counts[random.randrange(7)] += 1
        assert counts.min() > 800  # roughly uniform

    def test_randrange_large_bound(self):
        random = ExactRandom(as_generator(2))
        bound = 10**30
        values = [random.randrange(bound) for _ in range(20)]
        assert all(0 <= v < bound for v in values)
        assert len(set(values)) > 1

    def test_randrange_invalid(self):
        with pytest.raises(ValueError):
            ExactRandom(as_generator(0)).randrange(0)

    def test_bernoulli_exact_probability(self):
        random = ExactRandom(as_generator(3))
        hits = sum(random.bernoulli(1, 3) for _ in range(9000))
        assert abs(hits / 9000 - 1 / 3) < 0.02

    def test_bernoulli_edges(self):
        random = ExactRandom(as_generator(4))
        assert not random.bernoulli(0, 5)
        assert random.bernoulli(5, 5)

    def test_bernoulli_invalid(self):
        random = ExactRandom(as_generator(5))
        with pytest.raises(ValueError):
            random.bernoulli(6, 5)
        with pytest.raises(ValueError):
            random.bernoulli(1, 0)


class TestProtocols:
    def test_builtin_synthesizers_satisfy_protocol(self):
        from repro.baselines.recompute import RecomputeBaseline
        from repro.core.categorical_window import CategoricalWindowSynthesizer
        from repro.core.cumulative import CumulativeSynthesizer
        from repro.core.fixed_window import FixedWindowSynthesizer

        for synthesizer in (
            FixedWindowSynthesizer(horizon=4, window=2, rho=1.0),
            CumulativeSynthesizer(horizon=4, rho=1.0),
            CategoricalWindowSynthesizer(horizon=4, window=2, alphabet=3, rho=1.0),
            RecomputeBaseline(horizon=4, window=2, rho=1.0),
        ):
            assert isinstance(synthesizer, Synthesizer)

    def test_builtin_releases_satisfy_protocol(self, small_markov_panel):
        from repro.core.cumulative import CumulativeSynthesizer
        from repro.core.fixed_window import FixedWindowSynthesizer

        window_release = FixedWindowSynthesizer(
            horizon=small_markov_panel.horizon, window=2, rho=math.inf
        ).run(small_markov_panel)
        cumulative_release = CumulativeSynthesizer(
            horizon=small_markov_panel.horizon, rho=math.inf
        ).run(small_markov_panel)
        assert isinstance(window_release, Release)
        assert isinstance(cumulative_release, Release)

    def test_builtin_counters_satisfy_protocol(self):
        from repro.streams.registry import available_counters, make_counter

        for name in available_counters():
            assert isinstance(
                make_counter(name, horizon=4, rho=1.0), StreamCounterProtocol
            )
