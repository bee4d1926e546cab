"""Query abstractions.

A :class:`Query` evaluates to a fraction in ``[0, 1]`` on a
:class:`~repro.data.dataset.LongitudinalDataset` at a given time.  Window
queries additionally expose a weight vector over the ``2**k`` pattern bins,
which is how the synthetic-data releases answer them directly from their
maintained histograms (and how debiasing subtracts the padding
contribution).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.data.dataset import LongitudinalDataset
from repro.exceptions import ConfigurationError

__all__ = ["Query", "WindowQuery"]


class Query(abc.ABC):
    """A counting query: a predicate averaged over individuals."""

    #: Human-readable name used in reports and experiment tables.
    name: str = "query"

    @abc.abstractmethod
    def min_time(self) -> int:
        """Earliest round ``t`` at which the query is defined."""

    @abc.abstractmethod
    def evaluate(self, dataset: LongitudinalDataset, t: int) -> float:
        """Ground-truth value ``q(D^1, ..., D^t)`` on the raw panel."""

    def check_time(self, t: int) -> None:
        """Raise if the query is not defined at round ``t``."""
        if t < self.min_time():
            raise ConfigurationError(
                f"{self.name} is defined from t={self.min_time()}, got t={t}"
            )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class WindowQuery(Query):
    """A linear query over the length-``k`` window histogram.

    Subclasses provide ``k`` and a length ``2**k`` weight vector ``w``; the
    query value at time ``t`` is ``sum_s w_s * C_s^t / n`` where ``C_s^t``
    is the count of individuals whose window ``(x^{t-k+1}, ..., x^t)``
    equals pattern ``s``.
    """

    #: Alphabet size ``q``: a binary window query is the ``q = 2`` case of
    #: :class:`~repro.queries.categorical.CategoricalWindowQuery`.
    alphabet = 2

    def __init__(self, k: int, weights: np.ndarray, name: str):
        if k <= 0:
            raise ConfigurationError(f"window width k must be positive, got {k}")
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (1 << k,):
            raise ConfigurationError(
                f"weights must have length 2**k = {1 << k}, got shape {weights.shape}"
            )
        self.k = int(k)
        self.weights = weights
        self.weights.setflags(write=False)
        self.name = name

    def min_time(self) -> int:
        return self.k

    def evaluate(self, dataset: LongitudinalDataset, t: int) -> float:
        self.check_time(t)
        histogram = dataset.suffix_histogram(t, self.k)
        return float(self.weights @ histogram) / dataset.n_individuals

    def evaluate_histogram(self, histogram: np.ndarray, denominator: float) -> float:
        """Answer from a (possibly synthetic) bin-count vector."""
        histogram = np.asarray(histogram, dtype=np.float64)
        if histogram.shape != self.weights.shape:
            raise ConfigurationError(
                f"histogram has shape {histogram.shape}, expected {self.weights.shape}"
            )
        if denominator <= 0:
            raise ConfigurationError(f"denominator must be positive, got {denominator}")
        return float(self.weights @ histogram) / denominator

    @property
    def weight_sum(self) -> float:
        """``sum_s w_s`` — the padding contribution per fake person per bin."""
        return float(self.weights.sum())

    @property
    def weight_l2(self) -> float:
        """``||w||_2`` — enters the linear-combination error bound (§1)."""
        return float(np.linalg.norm(self.weights))
