"""Exact and vectorized sampling from the discrete Laplace distribution.

The discrete (two-sided geometric) Laplace distribution with scale ``s`` is
supported on the integers with ``P[X = x]`` proportional to
``exp(-|x| / s)``.  The exact sampler is Algorithm 2 of Canonne, Kamath &
Steinke (2020) and handles any positive rational scale; it is the proposal
distribution inside the exact discrete Gaussian sampler and is also exposed
directly for pure-DP mechanism variants.

:meth:`DiscreteLaplaceSampler.sample_columns` is the heterogeneous batched
API (one draw per column at per-column scales); its ``size=R`` form returns
an ``(R, columns)`` block of independent replicas — the rep-axis draw used
by the batched replication engine (:mod:`repro.core.replicated`).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from repro.rng import ExactRandom, SeedLike, as_generator

__all__ = ["sample_discrete_laplace", "DiscreteLaplaceSampler", "calibrate_laplace_scale"]

#: Largest denominator of a rational scale the exact sampler works with.
_MAX_DENOMINATOR = 10**12


def calibrate_laplace_scale(levels: int, rho) -> Fraction:
    """The per-node scale ``levels / sqrt(2 rho)`` that realizes at most ``rho``.

    A node of scale ``s`` is ``(1/s)``-DP, so an element touching
    ``levels`` nodes is ``(levels/s)``-DP and hence
    ``(levels/s)**2 / 2``-zCDP.  The Laplace twin of
    :func:`~repro.dp.discrete_gaussian.calibrate_sigma_sq`.

    Parameters
    ----------
    levels:
        Noisy nodes one element touches (``L`` for a tree).
    rho:
        zCDP budget (positive float), converted exactly.

    Returns
    -------
    fractions.Fraction
        The smallest multiple of ``1e-9`` with
        ``scale**2 * 2 * Fraction(rho) >= levels**2`` exactly — more
        noise, never less, for every budget however small.
    """
    target = Fraction(int(levels) ** 2) / (2 * Fraction(rho))  # scale**2 must reach it
    denominator = 10**9
    numerator = math.isqrt(math.ceil(target * denominator**2))
    while Fraction(numerator, denominator) ** 2 < target:
        numerator += 1
    return Fraction(numerator, denominator)


def _upper_scale(scale) -> Fraction:
    """``scale`` as a rational with denominator at most 10**12, never below it."""
    value = Fraction(scale)
    rounded = value.limit_denominator(_MAX_DENOMINATOR)
    if rounded < value:
        rounded = Fraction(math.ceil(value * _MAX_DENOMINATOR), _MAX_DENOMINATOR)
    return rounded


def _sample_geometric_exp1(random: ExactRandom) -> int:
    """Number of consecutive ``Bernoulli(exp(-1))`` successes (Geom support)."""
    from repro.dp.bernoulli_exp import bernoulli_exp_le1

    one = Fraction(1)
    count = 0
    while bernoulli_exp_le1(one, random):
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
    from repro.dp.bernoulli_exp import bernoulli_exp_le1

    scale = Fraction(scale)
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    s = scale.numerator
    t = scale.denominator
    while True:
        u = random.randrange(s)
        # Accept the fractional offset u with probability exp(-u/s) ...
        p = Fraction(u, s)
        if not bernoulli_exp_le1(p, random):
            continue
        # ... then append exp(-1)-geometric whole units of s.
        v = _sample_geometric_exp1(random)
        x = u + s * v
        y = x // t
        negative = random.bernoulli(1, 2)
        if negative and y == 0:
            continue
        return -y if negative else y


class DiscreteLaplaceSampler:
    """Reusable discrete Laplace sampler bound to a random generator.

    Parameters
    ----------
    scale:
        Positive scale ``s`` of ``P[X = x] ∝ exp(-|x|/s)``; may be any value
        convertible to :class:`fractions.Fraction` (rounded up to a
        denominator of at most ``10**12``, never down).
    seed:
        Seed, :class:`numpy.random.Generator`, or ``None``.
    method:
        ``"exact"`` uses the rational-arithmetic rejection sampler for every
        draw.  ``"vectorized"`` uses numpy geometric draws with a
        floating-point parameter — distributionally correct up to float
        rounding of ``exp(-1/s)``, and roughly two orders of magnitude
        faster for large batches.
    """

    def __init__(self, scale, seed: SeedLike = None, method: str = "exact"):
        self.scale = _upper_scale(scale)
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        if method not in ("exact", "vectorized"):
            raise ValueError(f"method must be 'exact' or 'vectorized', got {method!r}")
        self.method = method
        self._generator = as_generator(seed)
        self._exact = ExactRandom(self._generator)

    @property
    def variance(self) -> float:
        """Exact variance ``2p/(1-p)^2`` with ``p = exp(-1/scale)``."""
        p = math.exp(-1 / float(self.scale))
        return 2 * p / (1 - p) ** 2

    def sample(self) -> int:
        """Draw a single integer sample."""
        if self.method == "exact":
            return sample_discrete_laplace(self.scale, self._exact)
        return int(self.sample_array(1)[0])

    def sample_array(self, shape) -> np.ndarray:
        """Draw an integer array of the given shape."""
        size = int(np.prod(shape)) if not np.isscalar(shape) else int(shape)
        if self.method == "exact":
            flat = np.array(
                [sample_discrete_laplace(self.scale, self._exact) for _ in range(size)],
                dtype=np.int64,
            )
            return flat.reshape(shape)
        return self._sample_vectorized(size).reshape(shape)

    def _sample_vectorized(self, size: int) -> np.ndarray:
        # Two-sided geometric: difference of two iid geometrics with
        # success probability 1 - exp(-1/s) is Lap_Z(s).
        q = 1.0 - math.exp(-1 / float(self.scale))
        g1 = self._generator.geometric(q, size=size) - 1
        g2 = self._generator.geometric(q, size=size) - 1
        return (g1 - g2).astype(np.int64)

    def sample_columns(self, scales, size: int | None = None) -> np.ndarray:
        """Per-column-scale draws (heterogeneous), optionally replicated.

        ``scales`` is a sequence of non-negative scales; entry ``j`` of the
        returned int64 vector is an independent ``Lap_Z(scales[j])`` draw
        (exactly 0 where ``scales[j] == 0``, the noiseless convention used
        by the counter banks).  The instance's own ``scale`` is ignored.

        With ``size=R`` the call returns a ``(R, len(scales))`` array of
        i.i.d. draws — the rep-axis API used by the replicated counter
        banks, which feed all ``R`` repetitions of an experiment from one
        batched draw per round.  ``size=None`` (default) keeps the legacy
        1-D shape and bit-stream.
        """
        if size is not None:
            if size < 0:
                raise ValueError(f"size must be non-negative, got {size}")
            return self.sample_array_2d(scales, size)
        if self.method == "exact":
            return self._sample_columns_exact(scales)
        return _sample_heterogeneous_laplace(
            np.asarray([float(s) for s in scales], dtype=np.float64), self._generator
        )

    def sample_array_2d(self, scales, n_rows: int) -> np.ndarray:
        """``(n_rows, len(scales))`` i.i.d. draws, column ``j`` at scale ``scales[j]``."""
        if n_rows < 0:
            raise ValueError(f"n_rows must be non-negative, got {n_rows}")
        n_cols = len(scales)
        if self.method == "exact":
            rows = [self._sample_columns_exact(scales) for _ in range(n_rows)]
            return np.stack(rows) if rows else np.zeros((0, n_cols), dtype=np.int64)
        tiled = np.tile(np.asarray([float(s) for s in scales], dtype=np.float64), n_rows)
        return _sample_heterogeneous_laplace(tiled, self._generator).reshape(n_rows, n_cols)

    def _sample_columns_exact(self, scales) -> np.ndarray:
        out = np.zeros(len(scales), dtype=np.int64)
        for j, scale in enumerate(scales):
            if not isinstance(scale, Fraction):
                scale = _upper_scale(scale)
            if scale < 0:
                raise ValueError(f"scale must be non-negative, got {scale}")
            if scale:
                out[j] = sample_discrete_laplace(scale, self._exact)
        return out


def _sample_heterogeneous_laplace(
    scales: np.ndarray, generator: np.random.Generator
) -> np.ndarray:
    """One ``Lap_Z(scales[j])`` draw per entry; zero-scale entries yield 0."""
    if (scales < 0).any():
        raise ValueError("scale entries must be non-negative")
    out = np.zeros(scales.shape, dtype=np.int64)
    active = np.flatnonzero(scales > 0)
    if active.size == 0:
        return out
    q = 1.0 - np.exp(-1.0 / scales[active])
    g1 = generator.geometric(q) - 1
    g2 = generator.geometric(q) - 1
    out[active] = (g1 - g2).astype(np.int64)
    return out
