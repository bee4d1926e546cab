"""Exact sampling from the discrete Laplace distribution.

The discrete (two-sided geometric) Laplace distribution with scale ``s`` is
supported on the integers with ``P[X = x]`` proportional to
``exp(-|x| / s)``.  The exact sampler is Algorithm 2 of Canonne, Kamath &
Steinke (2020) and handles any positive rational scale, in Python integers.
Its one consumer is the exact discrete Gaussian sampler
(:mod:`repro.dp.discrete_gaussian`), which uses it as its proposal
distribution.
"""

from __future__ import annotations

from fractions import Fraction

from repro.dp.bernoulli_exp import _bernoulli_exp_le1
from repro.rng import ExactRandom

__all__ = ["sample_discrete_laplace"]


def _sample_geometric_exp1(random: ExactRandom) -> int:
    """Number of consecutive ``Bernoulli(exp(-1))`` successes (Geom support)."""
    count = 0
    while _bernoulli_exp_le1(1, 1, random):
        count += 1
    return count


def sample_discrete_laplace(scale: Fraction, random: ExactRandom) -> int:
    """Draw one exact sample from ``Lap_Z(scale)``.

    ``scale`` is the rational parameter ``s/t`` such that
    ``P[X = x] ∝ exp(-|x| * t / s)``.  The sampler first draws a geometric
    variable with parameter ``exp(-1/s')`` in *unit steps of the numerator*,
    rescales by the denominator via integer division, applies a random sign,
    and rejects the duplicated zero on the negative side so the result is
    exactly two-sided.
    """
    scale = Fraction(scale)
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    s = scale.numerator
    t = scale.denominator
    while True:
        u = random.randrange(s)
        # Accept the fractional offset u with probability exp(-u/s) ...
        if not _bernoulli_exp_le1(u, s, random):
            continue
        # ... then append exp(-1)-geometric whole units of s.
        v = _sample_geometric_exp1(random)
        x = u + s * v
        y = x // t
        negative = random.bernoulli(1, 2)
        if negative and y == 0:
            continue
        return -y if negative else y
