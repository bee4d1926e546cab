"""Tests for the exact discrete Gaussian pmf, and distributional validation
of both samplers against it (chi-square goodness of fit)."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from repro.dp import discrete_gaussian as dg
from repro.dp.discrete_gaussian import DiscreteGaussianSampler
from repro.dp.pmf import (
    discrete_gaussian_normalizer,
    discrete_gaussian_pmf,
    discrete_gaussian_tail,
    discrete_gaussian_variance,
)
from repro.exceptions import ConfigurationError


class TestPmf:
    def test_sums_to_one(self):
        for sigma_sq in (0.5, 1.0, 4.0, 25.0):
            xs = np.arange(-200, 201)
            assert discrete_gaussian_pmf(xs, sigma_sq).sum() == pytest.approx(1.0)

    def test_symmetry(self):
        assert discrete_gaussian_pmf(3, 5.0) == pytest.approx(
            discrete_gaussian_pmf(-3, 5.0)
        )

    def test_mode_at_zero(self):
        pmf = discrete_gaussian_pmf(np.arange(-10, 11), 4.0)
        assert pmf.argmax() == 10  # x = 0

    def test_normalizer_close_to_continuous_for_large_sigma(self):
        # Z -> sigma * sqrt(2 pi) as sigma grows (Poisson summation).
        sigma_sq = 100.0
        expected = math.sqrt(2 * math.pi * sigma_sq)
        assert discrete_gaussian_normalizer(sigma_sq) == pytest.approx(
            expected, rel=1e-6
        )

    def test_tail_properties(self):
        sigma_sq = 9.0
        assert discrete_gaussian_tail(0, sigma_sq) > 0.5  # includes the mode
        assert discrete_gaussian_tail(1, sigma_sq) < 0.5
        assert discrete_gaussian_tail(1000, sigma_sq) == 0.0
        # Tail decreasing in k.
        tails = [discrete_gaussian_tail(k, sigma_sq) for k in range(0, 12)]
        assert all(a > b for a, b in zip(tails, tails[1:]))

    def test_tail_matches_pmf_sum(self):
        sigma_sq = 4.0
        direct = sum(discrete_gaussian_pmf(x, sigma_sq) for x in range(3, 60))
        assert discrete_gaussian_tail(3, sigma_sq) == pytest.approx(direct)

    def test_variance_below_sigma_sq(self):
        # Strict for small sigma; approaches sigma^2 from below as it grows.
        assert discrete_gaussian_variance(0.25) < 0.25
        assert discrete_gaussian_variance(100.0) == pytest.approx(100.0, rel=1e-3)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            discrete_gaussian_pmf(0, 0.0)
        with pytest.raises(ConfigurationError):
            discrete_gaussian_tail(0, -1.0)


class TestSamplersMatchPmf:
    """Chi-square goodness of fit of both samplers against the exact pmf."""

    def _chi_square_pvalue(self, samples: np.ndarray, sigma_sq: float) -> float:
        radius = int(4 * math.sqrt(sigma_sq)) + 1
        support = np.arange(-radius, radius + 1)
        observed = np.array([(samples == x).sum() for x in support], dtype=np.float64)
        # Lump the two tails into the end bins so expected counts stay high.
        observed[0] += (samples < -radius).sum()
        observed[-1] += (samples > radius).sum()
        expected = discrete_gaussian_pmf(support, sigma_sq) * samples.size
        expected[0] += discrete_gaussian_tail(radius + 1, sigma_sq) * samples.size
        expected[-1] += discrete_gaussian_tail(radius + 1, sigma_sq) * samples.size
        keep = expected > 5
        statistic, pvalue = stats.chisquare(
            observed[keep], expected[keep] * observed[keep].sum() / expected[keep].sum()
        )
        return pvalue

    def test_exact_sampler_distribution(self):
        sampler = DiscreteGaussianSampler(9, seed=1)
        samples = sampler.sample_array(4000)
        assert self._chi_square_pvalue(samples, 9.0) > 1e-3

    def test_vectorized_sampler_distribution(self):
        sampler = DiscreteGaussianSampler(0, seed=2)
        samples = sampler.sample_array_2d([9], 60000)
        assert self._chi_square_pvalue(samples, 9.0) > 1e-3

    def test_vectorized_sampler_small_sigma(self):
        sampler = DiscreteGaussianSampler(0, seed=3)
        samples = sampler.sample_array_2d([1], 60000)
        assert self._chi_square_pvalue(samples, 1.0) > 1e-3

    def test_empirical_variance_matches_exact(self):
        sigma_sq = 2.0
        sampler = DiscreteGaussianSampler(0, seed=4)
        samples = sampler.sample_array_2d([sigma_sq], 100000)
        assert samples.var() == pytest.approx(
            discrete_gaussian_variance(sigma_sq), rel=0.03
        )


def _binned_chi_square_pvalue(samples: np.ndarray, sigma_sq: float) -> float:
    """Chi-square over integer bins about half a standard deviation wide.

    Expected counts are exact pmf sums per bin, with the tail mass beyond
    four standard deviations lumped into the two end bins.
    """
    sigma = math.sqrt(sigma_sq)
    radius = int(4 * sigma) + 1
    width = max(1, int(sigma / 2))
    n_bins = (2 * radius) // width + 1

    def bin_of(x):
        return np.clip((np.asarray(x) + radius) // width, 0, n_bins - 1)

    support = np.arange(-radius, radius + 1)
    expected = np.bincount(
        bin_of(support), weights=discrete_gaussian_pmf(support, sigma_sq), minlength=n_bins
    )
    tail = discrete_gaussian_tail(radius + 1, sigma_sq)
    expected[0] += tail
    expected[-1] += tail
    expected *= samples.size
    observed = np.bincount(bin_of(samples), minlength=n_bins).astype(np.float64)
    keep = expected > 5
    _, pvalue = stats.chisquare(
        observed[keep], expected[keep] * observed[keep].sum() / expected[keep].sum()
    )
    return pvalue


#: Variances the batched exact arm is held to, from the quarter-integer
#: regime (proposal scale t = 1) to the widest bank row of a T=128 run.
BATCHED_SIGMA_SQS = [Fraction(1, 4), Fraction(1, 3), 1, 2, 9, 25, 400, 3400, 64289]


class TestBatchedExactArm:
    """The batched integer-only sampler against the exact pmf."""

    @pytest.mark.parametrize("sigma_sq", BATCHED_SIGMA_SQS, ids=str)
    def test_homogeneous_batch_matches_pmf(self, sigma_sq):
        samples = DiscreteGaussianSampler(sigma_sq, seed=21).sample_array(6000)
        assert _binned_chi_square_pvalue(samples, float(sigma_sq)) > 1e-3

    def test_variance_beyond_int64_takes_the_python_path(self):
        sigma_sq = 10**9 + 7
        assert dg._calibrate(Fraction(sigma_sq)) is None
        samples = DiscreteGaussianSampler(sigma_sq, seed=22).sample_array(1500)
        assert _binned_chi_square_pvalue(samples, float(sigma_sq)) > 1e-3

    def test_heterogeneous_columns_with_zero_variance(self):
        sigma_sqs = [0, Fraction(1, 4), 9, 0, 400, 64289]
        sampler = DiscreteGaussianSampler(0, seed=23)
        flat = sampler.sample_columns(sigma_sqs * 800)
        assert flat.shape == (len(sigma_sqs) * 800,)
        by_column = flat.reshape(800, len(sigma_sqs))
        replicated = sampler.sample_columns(sigma_sqs, size=3000)
        assert replicated.shape == (3000, len(sigma_sqs))
        for block in (by_column, replicated):
            for j, sigma_sq in enumerate(sigma_sqs):
                if sigma_sq == 0:
                    assert (block[:, j] == 0).all()
                else:
                    assert _binned_chi_square_pvalue(block[:, j], float(sigma_sq)) > 1e-3

    @pytest.mark.parametrize("sigma_sq", [Fraction(1, 3), 9, 400], ids=str)
    def test_forced_overflow_still_matches_pmf(self, monkeypatch, sigma_sq):
        # A tiny product limit sends every acceptance test to the
        # Python-integer path (the per-proposal overflow fallback).
        calls = []
        exact_bernoulli = dg.bernoulli_exp
        monkeypatch.setattr(dg, "_INT64_LIMIT", 1 << 40)
        monkeypatch.setattr(
            dg, "bernoulli_exp", lambda *args: calls.append(1) or exact_bernoulli(*args)
        )
        samples = DiscreteGaussianSampler(sigma_sq, seed=24).sample_array(4000)
        assert len(calls) >= 4000
        assert _binned_chi_square_pvalue(samples, float(sigma_sq)) > 1e-3
