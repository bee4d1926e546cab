"""The one-draw exact samplers against their ``Fraction`` oracle.

``sample_discrete_gaussian``, ``sample_discrete_laplace`` and
``bernoulli_exp`` decide every step in Python integers; the oracle in
``tests/oracles/exact_sampler.py`` is the rational form they replaced.
Both must make the same ``ExactRandom`` calls with the same bounds in the
same order — every ``bernoulli(num, den)`` in its reduced form — so they
return the same draws and leave the generator in the same state.
"""

from fractions import Fraction

import pytest

from oracles.exact_sampler import (
    oracle_bernoulli_exp,
    oracle_bernoulli_exp_le1,
    oracle_sample_discrete_gaussian,
    oracle_sample_discrete_laplace,
)
from repro.dp.bernoulli_exp import bernoulli_exp, bernoulli_exp_le1
from repro.dp.discrete_gaussian import sample_discrete_gaussian
from repro.dp.discrete_laplace import sample_discrete_laplace
from repro.rng import ExactRandom, as_generator


class _Recording(ExactRandom):
    """``ExactRandom`` that logs every ``randrange`` and ``bernoulli`` call."""

    def __init__(self, seed):
        super().__init__(as_generator(seed))
        self.calls = []

    def randrange(self, bound):
        self.calls.append(("randrange", bound))
        return super().randrange(bound)

    def bernoulli(self, numerator, denominator):
        self.calls.append(("bernoulli", numerator, denominator))
        return super().bernoulli(numerator, denominator)


def _assert_same_run(sample, oracle, parameter, n_draws, seed=11):
    ours, theirs = _Recording(seed), _Recording(seed)
    draws = [sample(parameter, ours) for _ in range(n_draws)]
    expected = [oracle(parameter, theirs) for _ in range(n_draws)]
    assert draws == expected
    assert all(type(value) is type(reference) for value, reference in zip(draws, expected))
    assert ours.calls == theirs.calls
    assert ours._generator.bit_generator.state == theirs._generator.bit_generator.state


@pytest.mark.parametrize(
    "sigma_sq", [Fraction(1, 3), Fraction(5, 2), Fraction(150), Fraction(89_600)], ids=str
)
def test_gaussian_matches_the_oracle(sigma_sq):
    _assert_same_run(sample_discrete_gaussian, oracle_sample_discrete_gaussian, sigma_sq, 400)


@pytest.mark.parametrize(
    "scale", [Fraction(1), Fraction(3), Fraction(7, 3), Fraction(11, 4)], ids=str
)
def test_laplace_matches_the_oracle(scale):
    _assert_same_run(sample_discrete_laplace, oracle_sample_discrete_laplace, scale, 400)


@pytest.mark.parametrize(
    "gamma",
    [Fraction(0), Fraction(1, 3), Fraction(6, 8), Fraction(1), Fraction(2), Fraction(7, 2),
     Fraction(13, 5), Fraction(10)],
    ids=str,
)
def test_bernoulli_exp_matches_the_oracle(gamma):
    _assert_same_run(bernoulli_exp, oracle_bernoulli_exp, gamma, 200)
    if gamma <= 1:
        _assert_same_run(bernoulli_exp_le1, oracle_bernoulli_exp_le1, gamma, 200)
