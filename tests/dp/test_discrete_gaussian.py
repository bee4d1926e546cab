"""Tests for the discrete Gaussian sampler (Definition 2.2 of the paper)."""

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dp import discrete_gaussian as dg
from repro.dp.discrete_gaussian import DiscreteGaussianSampler, sample_discrete_gaussian
from repro.rng import ExactRandom, as_generator, generator_state, restore_generator_state


class TestExactSampler:
    def test_rejects_negative_variance(self):
        with pytest.raises(ValueError):
            sample_discrete_gaussian(Fraction(-1), ExactRandom(as_generator(0)))

    def test_zero_variance_is_constant_zero(self):
        random = ExactRandom(as_generator(0))
        assert all(sample_discrete_gaussian(Fraction(0), random) == 0 for _ in range(10))

    def test_returns_integers(self):
        random = ExactRandom(as_generator(1))
        assert all(
            isinstance(sample_discrete_gaussian(Fraction(9), random), int)
            for _ in range(30)
        )

    def test_mean_near_zero(self):
        random = ExactRandom(as_generator(2))
        draws = [sample_discrete_gaussian(Fraction(16), random) for _ in range(2500)]
        # stderr = 4/50 = 0.08; allow 5 sigma.
        assert abs(np.mean(draws)) < 0.45

    def test_variance_at_most_sigma_sq(self):
        # The discrete Gaussian's variance is at most sigma^2 (CKS 2020).
        random = ExactRandom(as_generator(3))
        draws = np.array(
            [sample_discrete_gaussian(Fraction(25), random) for _ in range(4000)]
        )
        assert draws.var() < 25.0 * 1.15  # sampling tolerance

    def test_small_sigma_concentrates(self):
        random = ExactRandom(as_generator(4))
        draws = [sample_discrete_gaussian(Fraction(1, 4), random) for _ in range(300)]
        assert all(abs(d) <= 4 for d in draws)

    @given(st.fractions(min_value=Fraction(1, 4), max_value=Fraction(50)))
    @settings(max_examples=20, deadline=None)
    def test_any_rational_variance_samples(self, sigma_sq):
        value = sample_discrete_gaussian(sigma_sq, ExactRandom(as_generator(5)))
        assert isinstance(value, int)


class TestDiscreteGaussianSampler:
    """The exact draws, and the float rep-axis block (``vectorized`` cases)."""

    def test_invalid_method(self):
        # No setting chooses the noise: every release draw is exact.
        with pytest.raises(TypeError):
            DiscreteGaussianSampler(1, method="vectorized")

    def test_negative_variance(self):
        with pytest.raises(ValueError):
            DiscreteGaussianSampler(-2)

    def test_zero_variance_array(self):
        sampler = DiscreteGaussianSampler(0, seed=0)
        assert (sampler.sample_array(10) == 0).all()
        assert sampler.sample() == 0

    def test_sigma_property(self):
        assert DiscreteGaussianSampler(25, seed=0).sigma == pytest.approx(5.0)

    def test_vectorized_shape(self):
        sampler = DiscreteGaussianSampler(10, seed=0)
        assert sampler.sample_array((3, 4)).shape == (3, 4)
        assert sampler.sample_array(11).shape == (11,)
        assert sampler.sample_array_2d([10] * 4, 3).shape == (3, 4)
        assert sampler.sample_columns([10] * 11, size=1).shape == (1, 11)

    def test_vectorized_moments(self):
        sampler = DiscreteGaussianSampler(0, seed=1)
        draws = sampler.sample_array_2d([100], 100000)
        assert abs(draws.mean()) < 0.2
        assert abs(draws.var() / 100.0 - 1.0) < 0.03

    def test_exact_vs_vectorized_variance_agreement(self):
        exact = DiscreteGaussianSampler(36, seed=2).sample_array(2500)
        vec = DiscreteGaussianSampler(0, seed=3).sample_array_2d([36], 50000)
        assert abs(exact.var() / vec.var() - 1.0) < 0.20

    def test_symmetry_vectorized(self):
        draws = DiscreteGaussianSampler(0, seed=4).sample_array_2d([50], 100000)
        positive = (draws > 0).mean()
        negative = (draws < 0).mean()
        assert abs(positive - negative) < 0.01

    def test_integer_dtype(self):
        sampler = DiscreteGaussianSampler(5, seed=5)
        assert np.issubdtype(sampler.sample_array(100).dtype, np.integer)
        assert np.issubdtype(sampler.sample_array_2d([5], 100).dtype, np.integer)

    def test_reproducible_with_seed(self):
        a = DiscreteGaussianSampler(9, seed=6).sample_array(25)
        b = DiscreteGaussianSampler(9, seed=6).sample_array(25)
        assert (a == b).all()

    def test_fractional_variance_accepted(self):
        sampler = DiscreteGaussianSampler(Fraction(5, 2), seed=7)
        assert isinstance(sampler.sample(), int)

    def test_large_variance_tail_behaviour(self):
        # P(|X| > 5 sigma) should be negligible.
        sampler = DiscreteGaussianSampler(0, seed=8)
        draws = sampler.sample_array_2d([400], 20000)
        assert (np.abs(draws) > 5 * 20).mean() < 1e-3


class _IntegersOnly:
    """A generator stand-in that serves ``integers`` and nothing else."""

    def __init__(self, generator):
        self._generator = generator
        self.calls = 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        out = self._generator.integers(*args, **kwargs)
        assert np.issubdtype(np.asarray(out).dtype, np.integer)
        return out

    def __getattr__(self, name):
        raise AssertionError(f"the exact sampler called Generator.{name}")


class TestBatchedExactSampler:
    """Structure of the batched integer-only arm (distribution: test_pmf)."""

    ROWS = [Fraction(9), 0, Fraction(400), Fraction(1, 3), 10**9 + 7, Fraction(64289)]

    @pytest.mark.parametrize(
        "sigma_sq", [Fraction(1, 4), Fraction(1, 3), 1, 2.5, 9, 400, 3400, 64289, 6300400]
    )
    def test_calibration_rounds_up_and_fits_int64(self, sigma_sq):
        sigma_sq = dg.upper_sigma_sq(sigma_sq)
        (t, n, qt, den, y_max), bounds = dg._calibrate(sigma_sq)
        q = qt // t
        assert q & (q - 1) == 0  # a power of two
        rounded = Fraction(n, q)
        assert rounded >= sigma_sq
        assert (rounded - sigma_sq) / sigma_sq < 1e-8
        assert t == math.isqrt(n // q) + 1
        assert den == 2 * n * q * t * t
        assert den * 32 < 2**62
        assert abs(y_max * qt - n) <= math.isqrt(2**62)
        assert abs((y_max + 1) * qt - n) > math.isqrt(2**62)
        assert max(bounds) < 2**63

    def test_restore_mid_stream_continues_byte_identically(self):
        generator = as_generator(31)
        sampler = DiscreteGaussianSampler(4, seed=generator)
        sampler.sample_columns(self.ROWS)
        sampler.sample_array(7)
        snapshot = generator_state(generator)

        def stream(s):
            return np.concatenate(
                [
                    s.sample_columns(self.ROWS),
                    s.sample_columns(self.ROWS[:3], size=5).ravel(),
                    s.sample_array(33),
                    [s.sample()],
                    s.sample_columns(self.ROWS[2:]),
                ]
            )

        expected = stream(sampler)
        replay_generator = as_generator(0)
        restore_generator_state(replay_generator, snapshot)
        replayed = stream(DiscreteGaussianSampler(4, seed=replay_generator))
        assert replayed.tobytes() == expected.tobytes()

    @staticmethod
    def _integers_only(sampler) -> _IntegersOnly:
        proxy = _IntegersOnly(sampler._generator)
        sampler._generator = proxy
        sampler._exact = ExactRandom(proxy)
        return proxy

    def test_batched_arm_never_draws_a_float(self, monkeypatch):
        # Every 1-D draw is integers only ...
        sampler = DiscreteGaussianSampler(Fraction(9), seed=32)
        proxy = self._integers_only(sampler)
        sampler.sample_columns(self.ROWS * 20)
        sampler.sample_array(50)
        sampler.sample()
        # ... nor on the Python-integer path (fresh calibrations under a
        # tiny product limit).
        monkeypatch.setattr(dg, "_INT64_LIMIT", 1 << 40)
        sampler._rows = dg._Calibration()
        sampler.sample_columns(self.ROWS * 5)
        assert proxy.calls > 0
        # ... and size=R is the float draw.
        with pytest.raises(AssertionError, match="Generator"):
            sampler.sample_columns(self.ROWS, size=20)

    def test_one_draw_keeps_the_scalar_sampler(self, monkeypatch):
        calls = []
        scalar = dg.sample_discrete_gaussian
        monkeypatch.setattr(
            dg, "sample_discrete_gaussian", lambda *args: calls.append(1) or scalar(*args)
        )
        sampler = DiscreteGaussianSampler(9, seed=33)
        sampler.sample()
        sampler.sample_array(1)
        sampler.sample_columns([0, Fraction(25), 0])
        assert len(calls) == 3
        # More draws take the batched arm, and size=R the float block.
        sampler.sample_columns([Fraction(25)], size=1)
        sampler.sample_columns([Fraction(25), Fraction(9)])
        sampler.sample_array(5)
        assert len(calls) == 3

    def test_rows_calibrate_once_per_sampler(self, monkeypatch):
        calibrated = []
        calibrate = dg._calibrate
        monkeypatch.setattr(
            dg, "_calibrate", lambda s: calibrated.append(s) or calibrate(s)
        )
        rows = [Fraction(9 + j) for j in range(6)]
        sampler = DiscreteGaussianSampler(0, seed=34)
        for t in range(2, len(rows) + 1):
            sampler.sample_columns(rows[:t])
        assert calibrated == rows

    def test_threads_draw_independently(self):
        # Samplers on different threads share no state: each thread's
        # stream equals the one its seed gives on its own.
        rows = [Fraction(9 + j) for j in range(40)]

        def stream(seed):
            sampler = DiscreteGaussianSampler(0, seed=seed)
            return np.concatenate([sampler.sample_columns(rows) for _ in range(30)])

        seeds = range(8)
        expected = {seed: stream(seed) for seed in seeds}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(seeds)) as pool:
                futures = {seed: pool.submit(stream, seed) for seed in seeds}
                drawn = {seed: future.result(timeout=120) for seed, future in futures.items()}
        finally:
            sys.setswitchinterval(interval)
        for seed in seeds:
            assert drawn[seed].tobytes() == expected[seed].tobytes()

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            DiscreteGaussianSampler(0, seed=35).sample_columns([Fraction(4), -1])
