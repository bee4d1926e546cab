"""``Fraction`` reference implementations of the one-draw exact samplers.

:func:`repro.dp.bernoulli_exp.bernoulli_exp`,
:func:`repro.dp.discrete_laplace.sample_discrete_laplace` and
:func:`repro.dp.discrete_gaussian.sample_discrete_gaussian` written the
direct way, in rational arithmetic: Algorithms 1-3 of Canonne, Kamath &
Steinke (2020) step by step, each acceptance probability a ``Fraction``
whose reduced numerator and denominator go to ``ExactRandom.bernoulli``.

The product samplers work in Python integers and must return what these
return, from the same ``ExactRandom`` calls with the same bounds in the
same order, so that they leave the generator in the same state.
"""

import math
from fractions import Fraction


def oracle_bernoulli_exp_le1(gamma, random):
    """``Bernoulli(exp(-gamma))`` for ``0 <= gamma <= 1``."""
    gamma = Fraction(gamma)
    if not 0 <= gamma <= 1:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    k = 1
    while True:
        p = gamma / k
        if not random.bernoulli(p.numerator, p.denominator):
            return k % 2 == 1
        k += 1


def oracle_bernoulli_exp(gamma, random):
    """``Bernoulli(exp(-gamma))`` for any ``gamma >= 0``."""
    gamma = Fraction(gamma)
    if gamma < 0:
        raise ValueError(f"gamma must be non-negative, got {gamma}")
    one = Fraction(1)
    while gamma > 1:
        if not oracle_bernoulli_exp_le1(one, random):
            return False
        gamma = gamma - 1
    return oracle_bernoulli_exp_le1(gamma, random)


def oracle_sample_discrete_laplace(scale, random):
    """One draw from ``Lap_Z(scale)``."""
    scale = Fraction(scale)
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    s = scale.numerator
    t = scale.denominator
    one = Fraction(1)
    while True:
        u = random.randrange(s)
        if not oracle_bernoulli_exp_le1(Fraction(u, s), random):
            continue
        v = 0
        while oracle_bernoulli_exp_le1(one, random):
            v += 1
        x = u + s * v
        y = x // t
        negative = random.bernoulli(1, 2)
        if negative and y == 0:
            continue
        return -y if negative else y


def oracle_sample_discrete_gaussian(sigma_sq, random):
    """One draw from ``N_Z(0, sigma_sq)``."""
    sigma_sq = Fraction(sigma_sq)
    if sigma_sq < 0:
        raise ValueError(f"sigma_sq must be non-negative, got {sigma_sq}")
    if sigma_sq == 0:
        return 0
    t = math.isqrt(math.floor(sigma_sq)) + 1
    t_frac = Fraction(t)
    while True:
        y = oracle_sample_discrete_laplace(t_frac, random)
        gamma = (abs(y) - sigma_sq / t) ** 2 / (2 * sigma_sq)
        if oracle_bernoulli_exp(gamma, random):
            return y
