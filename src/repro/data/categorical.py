"""Categorical longitudinal panels — the paper's multi-category extension.

Section 1 of the paper: "The solutions we develop for fixed time window
queries naturally extend to handle categorical data with more than 2
categories."  This module provides the data substrate for that extension:
an ``n x T`` panel over ``{0, ..., q-1}`` (e.g. SIPP employment status:
employed / unemployed / not in labor force), the base-``q`` window-code
helpers mirroring :class:`LongitudinalDataset`, and generators.  The
categorical de Bruijn padding population is
:func:`repro.data.debruijn.padding_panel` with ``alphabet=q``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import ConfigurationError, DataValidationError
from repro.rng import SeedLike, as_generator

__all__ = [
    "CategoricalDataset",
    "EMPLOYMENT_TRANSITIONS",
    "categorical_iid",
    "categorical_markov",
    "employment_status_panel",
    "sticky_transitions",
]

#: Monthly transition matrix of the 3-state employment-status workload
#: (employed / unemployed / not in labor force) used by the categorical
#: experiment, benchmark, and example: employment is sticky, unemployment
#: resolves mostly back to employment, and labor-force exit is persistent.
EMPLOYMENT_TRANSITIONS = np.array(
    [[0.90, 0.05, 0.05], [0.30, 0.60, 0.10], [0.05, 0.10, 0.85]]
)
EMPLOYMENT_TRANSITIONS.setflags(write=False)


class CategoricalDataset:
    """An immutable ``n x T`` panel over ``{0, ..., alphabet - 1}``.

    The categorical counterpart of
    :class:`~repro.data.dataset.LongitudinalDataset` (which is the special
    case ``alphabet = 2``).  Window patterns are coded base-``q``
    big-endian: pattern ``(s_1, ..., s_k)`` maps to
    ``sum_j s_j * q**(k - j)``, so the most recent report is the least
    significant digit.

    Parameters
    ----------
    matrix:
        ``n x T`` integer array with entries in ``[0, alphabet)``.
    alphabet:
        Number of categories ``q >= 2``.

    Raises
    ------
    repro.exceptions.DataValidationError
        If the matrix is not 2-D or holds out-of-range categories.
    """

    def __init__(self, matrix, alphabet: int):
        # Imported here: repro.core imports repro.data at package load.
        from repro.core.population import validate_column

        if alphabet < 2:
            raise ConfigurationError(f"alphabet must be at least 2, got {alphabet}")
        arr = np.asarray(matrix)
        if arr.ndim != 2:
            raise DataValidationError(
                f"panel must be 2-dimensional (individuals x time), got shape {arr.shape}"
            )
        validate_column(arr, alphabet, label="panel")
        self.alphabet = int(alphabet)
        self._matrix = arr.astype(np.int64).copy()
        self._matrix.setflags(write=False)

    @property
    def matrix(self) -> np.ndarray:
        """The underlying read-only ``int64`` matrix."""
        return self._matrix

    @property
    def n_individuals(self) -> int:
        """Number of rows ``n``."""
        return self._matrix.shape[0]

    @property
    def horizon(self) -> int:
        """Number of reporting periods ``T``."""
        return self._matrix.shape[1]

    def column(self, t: int) -> np.ndarray:
        """The round-``t`` report vector (1-indexed)."""
        self._check_time(t)
        return self._matrix[:, t - 1]

    def columns(self):
        """Iterate over report vectors in arrival order."""
        for t in range(1, self.horizon + 1):
            yield self._matrix[:, t - 1]

    def prefix(self, t: int) -> "CategoricalDataset":
        """The panel restricted to rounds ``1..t``."""
        self._check_time(t)
        return CategoricalDataset(self._matrix[:, :t], self.alphabet)

    def window_codes(self, t: int, k: int) -> np.ndarray:
        """Base-``q`` integer codes of each individual's current window."""
        self._check_window(t, k)
        window = self._matrix[:, t - k : t]
        powers = self.alphabet ** np.arange(k - 1, -1, -1, dtype=np.int64)
        return window @ powers

    def suffix_histogram(self, t: int, k: int) -> np.ndarray:
        """Counts of each length-``k`` pattern at time ``t`` (length q^k)."""
        codes = self.window_codes(t, k)
        return np.bincount(codes, minlength=self.alphabet**k).astype(np.int64)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CategoricalDataset):
            return NotImplemented
        return (
            self.alphabet == other.alphabet
            and self._matrix.shape == other._matrix.shape
            and bool((self._matrix == other._matrix).all())
        )

    def __hash__(self):
        return hash((self.alphabet, self._matrix.shape, self._matrix.tobytes()))

    def __repr__(self) -> str:
        return (
            f"CategoricalDataset(n={self.n_individuals}, T={self.horizon}, "
            f"alphabet={self.alphabet})"
        )

    def _check_time(self, t: int) -> None:
        if not 1 <= t <= self.horizon:
            raise DataValidationError(f"time {t} outside [1, {self.horizon}]")

    def _check_window(self, t: int, k: int) -> None:
        self._check_time(t)
        if not 1 <= k <= self.horizon:
            raise DataValidationError(f"window width {k} outside [1, {self.horizon}]")
        if t < k:
            raise DataValidationError(
                f"window of width {k} undefined before t={k}, got t={t}"
            )


def categorical_iid(
    n: int,
    horizon: int,
    probabilities: Sequence[float],
    seed: SeedLike = None,
) -> CategoricalDataset:
    """Independent categorical reports with the given category distribution.

    Parameters
    ----------
    n:
        Number of individuals.
    horizon:
        Number of rounds ``T``.
    probabilities:
        Category distribution (length >= 2, non-negative, sums to 1).
    seed:
        Seed or generator for the draws.

    Returns
    -------
    CategoricalDataset
        An ``n x T`` panel of i.i.d. categorical reports.

    Raises
    ------
    repro.exceptions.ConfigurationError
        If the distribution or dimensions are invalid.
    """
    probs = np.asarray(probabilities, dtype=np.float64)
    if probs.ndim != 1 or probs.shape[0] < 2:
        raise ConfigurationError("probabilities must list at least two categories")
    if (probs < 0).any() or not np.isclose(probs.sum(), 1.0):
        raise ConfigurationError("probabilities must be non-negative and sum to 1")
    if n <= 0 or horizon <= 0:
        raise ConfigurationError("n and horizon must be positive")
    generator = as_generator(seed)
    matrix = generator.choice(probs.shape[0], size=(n, horizon), p=probs)
    return CategoricalDataset(matrix, alphabet=probs.shape[0])


def categorical_markov(
    n: int,
    horizon: int,
    transition: np.ndarray,
    initial: Sequence[float] | None = None,
    seed: SeedLike = None,
) -> CategoricalDataset:
    """First-order Markov chain over categories per individual.

    ``transition[i, j] = P(x^t = j | x^{t-1} = i)``; ``initial`` defaults to
    the uniform distribution.  Models multi-state longitudinal variables
    like employment status (employed / unemployed / out of labor force).

    Parameters
    ----------
    n:
        Number of individuals.
    horizon:
        Number of rounds ``T``.
    transition:
        ``q x q`` row-stochastic transition matrix.
    initial:
        Optional length-``q`` initial distribution (default uniform).
    seed:
        Seed or generator for the draws.

    Returns
    -------
    CategoricalDataset
        An ``n x T`` panel of per-individual Markov trajectories.

    Raises
    ------
    repro.exceptions.ConfigurationError
        If the transition matrix or initial distribution is invalid.
    """
    transition = np.asarray(transition, dtype=np.float64)
    if transition.ndim != 2 or transition.shape[0] != transition.shape[1]:
        raise ConfigurationError("transition must be a square matrix")
    q = transition.shape[0]
    if q < 2:
        raise ConfigurationError("need at least two categories")
    if (transition < 0).any() or not np.allclose(transition.sum(axis=1), 1.0):
        raise ConfigurationError("transition rows must be distributions")
    if n <= 0 or horizon <= 0:
        raise ConfigurationError("n and horizon must be positive")
    if initial is None:
        initial = np.full(q, 1.0 / q)
    initial = np.asarray(initial, dtype=np.float64)
    if initial.shape != (q,) or (initial < 0).any() or not np.isclose(initial.sum(), 1.0):
        raise ConfigurationError("initial must be a distribution over the categories")

    generator = as_generator(seed)
    matrix = np.empty((n, horizon), dtype=np.int64)
    matrix[:, 0] = generator.choice(q, size=n, p=initial)
    cumulative = transition.cumsum(axis=1)
    for t in range(1, horizon):
        uniforms = generator.random(n)
        rows = cumulative[matrix[:, t - 1]]
        matrix[:, t] = (uniforms[:, None] > rows).sum(axis=1)
    return CategoricalDataset(matrix, alphabet=q)


def sticky_transitions(alphabet: int, persistence: float = 0.85) -> np.ndarray:
    """A ``q x q`` transition matrix with sticky states.

    Each state repeats with probability ``persistence`` and moves to any
    other state uniformly otherwise — the generic-``q`` stand-in for the
    hand-calibrated :data:`EMPLOYMENT_TRANSITIONS` when an experiment
    sweeps the alphabet size.

    Parameters
    ----------
    alphabet:
        Number of categories ``q >= 2``.
    persistence:
        Per-round probability of repeating the current state, in
        ``(0, 1]``.

    Returns
    -------
    numpy.ndarray
        Row-stochastic ``q x q`` matrix.

    Raises
    ------
    repro.exceptions.ConfigurationError
        If ``alphabet`` or ``persistence`` is out of range.
    """
    if alphabet < 2:
        raise ConfigurationError(f"alphabet must be at least 2, got {alphabet}")
    if not 0 < persistence <= 1:
        raise ConfigurationError(
            f"persistence must lie in (0, 1], got {persistence}"
        )
    off = (1.0 - persistence) / (alphabet - 1)
    matrix = np.full((alphabet, alphabet), off)
    np.fill_diagonal(matrix, persistence)
    return matrix


def employment_status_panel(
    n: int, horizon: int, alphabet: int = 3, seed: SeedLike = None
) -> CategoricalDataset:
    """The multi-category reference workload: per-month employment status.

    A first-order Markov panel over ``q`` labor-market states — the
    calibrated 3-state :data:`EMPLOYMENT_TRANSITIONS` chain by default,
    or a :func:`sticky_transitions` chain for other alphabet sizes.  Used
    by the ``categorical`` experiment, the categorical benchmark, and the
    employment example so they all draw from one definition.

    Parameters
    ----------
    n:
        Number of individuals.
    horizon:
        Number of monthly rounds ``T``.
    alphabet:
        Number of status categories ``q >= 2`` (default 3:
        employed / unemployed / not in labor force).
    seed:
        Seed or generator for the draws.

    Returns
    -------
    CategoricalDataset
        An ``n x T`` panel of status trajectories.
    """
    if alphabet == 3:
        transitions = EMPLOYMENT_TRANSITIONS
    else:
        transitions = sticky_transitions(alphabet)
    return categorical_markov(n, horizon, transitions, seed=seed)
