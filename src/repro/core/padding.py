"""Padding for Algorithm 1.

``n_pad`` "fake" people are added to every histogram bin before noising so
that noisy counts stay positive for the whole run with probability
``1 - beta`` (Theorem 3.2 picks ``n_pad`` equal to the max-error bound).
The padding is public: analysts debias query answers by subtracting the
padding's (exactly computable) contribution.

:class:`PaddingSpec` bundles the parameters with the exact padding
arithmetic for any alphabet size ``q >= 2`` (``q = 2`` is the paper's
binary panel), and can materialize the padding population as de Bruijn
records (:func:`repro.data.debruijn.padding_panel`, binary at ``q = 2``
and categorical above) — a concrete witness that a dataset with exactly
``n_pad`` per bin in *every* window exists, used by the release object to
debias queries of widths other than ``k``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.analysis.theory import default_n_pad
from repro.data.debruijn import padding_panel
from repro.exceptions import ConfigurationError

__all__ = ["PaddingSpec"]


@dataclass(frozen=True)
class PaddingSpec:
    """Public padding parameters of a fixed-window release.

    Attributes
    ----------
    window:
        Window width ``k``.
    n_pad:
        Fake people per length-``k`` bin.
    horizon:
        Time horizon ``T`` (needed to materialize padding records).
    alphabet:
        Number of categories ``q >= 2`` (default 2, the binary panel);
        the histogram has ``q**k`` bins.
    """

    window: int
    n_pad: int
    horizon: int
    alphabet: int = 2

    def __post_init__(self):
        if self.window <= 0:
            raise ConfigurationError(f"window must be positive, got {self.window}")
        if self.n_pad < 0:
            raise ConfigurationError(f"n_pad must be non-negative, got {self.n_pad}")
        if self.horizon < self.window:
            raise ConfigurationError(
                f"horizon {self.horizon} shorter than window {self.window}"
            )
        if self.alphabet < 2:
            raise ConfigurationError(f"alphabet must be at least 2, got {self.alphabet}")

    @classmethod
    def auto(
        cls,
        horizon: int,
        window: int,
        rho: float,
        beta: float = 0.05,
        alphabet: int = 2,
    ) -> "PaddingSpec":
        """The Theorem 3.2 default: ``n_pad = ceil(error bound)``.

        Parameters
        ----------
        horizon, window, rho, beta:
            The run's parameters entering the Theorem 3.2 bound.
        alphabet:
            Number of categories; generalizes the union bound from
            ``2**k`` to ``q**k`` bins.
        """
        return cls(
            window=window,
            n_pad=default_n_pad(horizon, window, rho, beta, alphabet=alphabet),
            horizon=horizon,
            alphabet=alphabet,
        )

    @property
    def total_records(self) -> int:
        """Total fake people: ``n_pad * q**k``."""
        return self.n_pad * self.alphabet**self.window

    def count_contribution(self, query) -> float:
        """Idealized padding contribution to a query's *count* answer.

        Under the paper's "``n_pad`` fake people per bin" idealization, a
        width-``k'`` bin receives ``n_pad * q**(k - k')`` fake people: for
        ``k' <= k`` this is exact (a width-``k'`` bin aggregates
        ``q**(k-k')`` width-``k`` bins); for ``k' > k`` it extrapolates the
        uniform-padding model (``q**(k-k')`` is fractional), matching the
        paper's convention of subtracting ``n_pad`` per noisy count.

        Parameters
        ----------
        query:
            A window query (binary or categorical) exposing ``k`` and
            ``weight_sum``.
        """
        multiplicity = float(self.alphabet) ** (self.window - query.k)
        return self.n_pad * multiplicity * query.weight_sum

    @cached_property
    def panel(self):
        """Materialized padding records (de Bruijn construction).

        A :class:`~repro.data.dataset.LongitudinalDataset` for the
        binary alphabet, a
        :class:`~repro.data.categorical.CategoricalDataset` otherwise.
        """
        return padding_panel(self.window, self.n_pad, self.horizon, self.alphabet)

    def panel_count_answer(self, query, t: int) -> float:
        """Padding count answer computed on the materialized records.

        Works for any query width (including ``k' > k``, where the exact
        per-bin contribution is no longer uniform); for ``k' <= k`` it
        agrees exactly with :meth:`count_contribution`.

        Parameters
        ----------
        query:
            A window query evaluable on the padding panel.
        t:
            Round to evaluate at.
        """
        if self.n_pad == 0:
            return 0.0
        return query.evaluate(self.panel, t) * self.panel.n_individuals
