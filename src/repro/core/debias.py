"""Debiasing post-processing for fixed-window releases (§3.2).

Padding introduces a *publicly known* bias: each bin count carries an extra
``n_pad`` fake people, and the synthetic population is ``n* = sum_s p_s``
rather than ``n``.  Since ``n_pad`` and ``k`` are public, an analyst can
subtract the padding contribution from any window query's count answer and
renormalize by ``n`` — recovering an unbiased estimate with error bounded by
Theorem 3.2 over ``n`` (Figures 4-7 show the difference this makes).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["lift_window_weights", "debias_count_answer"]


def lift_window_weights(
    weights: np.ndarray, from_k: int, to_k: int, alphabet: int = 2
) -> np.ndarray:
    """Lift a width-``k'`` weight vector to width ``k >= k'``.

    The width-``k'`` histogram is the marginal of the width-``k`` histogram
    over the most recent ``k'`` positions (the least significant base-``q``
    digits), so a width-``k'`` linear query is the width-``k`` linear query
    with weights ``w_k[s] = w_{k'}[s mod q**k']``.

    Parameters
    ----------
    weights:
        Length-``alphabet**from_k`` coefficient vector.
    from_k, to_k:
        Source and target window widths (``to_k >= from_k``).
    alphabet:
        Number of categories ``q >= 2`` (default 2, the binary panel).
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (alphabet**from_k,):
        raise ConfigurationError(
            f"weights must have length {alphabet}**{from_k}, got shape {weights.shape}"
        )
    if to_k < from_k:
        raise ConfigurationError(f"cannot lift width {from_k} down to {to_k}")
    return weights[np.arange(alphabet**to_k) % alphabet**from_k]


def debias_count_answer(
    count_answer: float,
    padding_count: float,
    n_original: int,
) -> float:
    """Debiased fraction: ``(count - padding_count) / n`` (§3.2).

    ``count_answer`` is the query's answer on the synthetic data in *count*
    scale (``sum_s w_s p_s``); ``padding_count`` is the same query's exact
    answer on the padding population.
    """
    if n_original <= 0:
        raise ConfigurationError(f"n_original must be positive, got {n_original}")
    return (count_answer - padding_count) / n_original
