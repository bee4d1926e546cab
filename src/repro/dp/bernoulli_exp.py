"""Exact sampling from ``Bernoulli(exp(-gamma))`` for rational ``gamma``.

This is Algorithm 1 of Canonne, Kamath & Steinke, *The Discrete Gaussian for
Differential Privacy* (NeurIPS 2020).  It needs only uniform integers and
exact rational comparisons, so the output distribution is *exactly*
``Bernoulli(exp(-gamma))`` — no floating-point approximation is involved.
The exact discrete Laplace and discrete Gaussian samplers are rejection
samplers built on top of this primitive.

The public functions take ``gamma`` as a ``Fraction``; the work runs on its
numerator and denominator in Python integers (``_bernoulli_exp`` and
``_bernoulli_exp_le1``, which the samplers call directly).  Each chain step
hands ``ExactRandom.bernoulli`` the reduced form of its probability, the
numerator and denominator ``Fraction`` arithmetic would give, so the draws
and the generator state are the same as the rational form's.
"""

from __future__ import annotations

import math
from fractions import Fraction

from repro.rng import ExactRandom

__all__ = ["bernoulli_exp", "bernoulli_exp_le1"]


def _bernoulli_exp_le1(num: int, den: int, random: ExactRandom) -> bool:
    """``Bernoulli(exp(-num/den))`` for ``0 <= num <= den``, in integers."""
    k = 1
    while True:
        step_den = den * k
        common = math.gcd(num, step_den)  # the reduced Bernoulli(num / (den k))
        if not random.bernoulli(num // common, step_den // common):
            return k % 2 == 1
        k += 1


def _bernoulli_exp(num: int, den: int, random: ExactRandom) -> bool:
    """``Bernoulli(exp(-num/den))`` for ``num >= 0``, in integers.

    One ``Bernoulli(exp(-1))`` factor per unit of ``gamma`` above 1 (the
    ``ceil(gamma) - 1`` of them short-circuit on the first failure), then
    the remainder in ``[0, 1]``.
    """
    whole = (num - 1) // den if num > den else 0
    for _ in range(whole):
        if not _bernoulli_exp_le1(1, 1, random):
            return False
    return _bernoulli_exp_le1(num - whole * den, den, random)


def bernoulli_exp_le1(gamma: Fraction, random: ExactRandom) -> bool:
    """Sample ``Bernoulli(exp(-gamma))`` exactly, for ``0 <= gamma <= 1``.

    Works by sampling the sequence ``A_k ~ Bernoulli(gamma / k)`` until the
    first failure at index ``K``; the output is 1 iff ``K`` is odd, which by
    the alternating series for ``exp(-gamma)`` has probability exactly
    ``exp(-gamma)``.
    """
    if not 0 <= gamma <= 1:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    return _bernoulli_exp_le1(gamma.numerator, gamma.denominator, random)


def bernoulli_exp(gamma: Fraction, random: ExactRandom) -> bool:
    """Sample ``Bernoulli(exp(-gamma))`` exactly, for any ``gamma >= 0``.

    For ``gamma > 1`` the event ``exp(-gamma)`` factors as
    ``exp(-1)^(ceil(gamma) - 1) * exp(-(gamma - ceil(gamma) + 1))``; each
    factor is sampled independently with the ``gamma <= 1`` chain and the
    conjunction is returned, short-circuiting on the first failure.
    """
    if gamma < 0:
        raise ValueError(f"gamma must be non-negative, got {gamma}")
    return _bernoulli_exp(gamma.numerator, gamma.denominator, random)
