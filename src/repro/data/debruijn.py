"""de Bruijn padding records.

Algorithm 1 pads every histogram bin with ``n_pad`` "fake" people so that
noisy counts stay positive.  The paper treats padding as an additive
constant on each count; this module makes the padding *concrete*: an actual
population of fake individuals whose window histogram equals exactly
``n_pad`` in every bin at every time step.

The construction uses a de Bruijn cycle ``B(q, k)`` — a cyclic sequence of
length ``q**k`` containing every length-``k`` pattern over ``q`` symbols
exactly once as a (cyclic) window.  Take one fake individual per rotation
offset of the cycle (``q**k`` of them, each reporting the cycle starting
from their offset, wrapping around as long as needed): at every time
``t >= k`` their ``k``-windows are the ``q**k`` distinct patterns, i.e.
exactly one per bin.  ``n_pad`` copies of this population put exactly
``n_pad`` in every bin in every window, and the padding answer to any
window query can be computed exactly — which is what makes the debiasing
step of §3.2 an *exact* correction rather than an approximation.  The
binary panel (``q = 2``, a
:class:`~repro.data.dataset.LongitudinalDataset`) is Algorithm 1's; larger
alphabets (a :class:`~repro.data.categorical.CategoricalDataset`) serve
the categorical extension.
"""

from __future__ import annotations

import numpy as np

from repro.data.categorical import CategoricalDataset
from repro.data.dataset import LongitudinalDataset
from repro.exceptions import ConfigurationError

__all__ = ["debruijn_sequence", "padding_panel"]


def debruijn_sequence(k: int, alphabet: int = 2) -> np.ndarray:
    """The lexicographically-least de Bruijn cycle ``B(alphabet, k)``.

    Returns a vector of length ``alphabet**k`` whose cyclic length-``k``
    windows enumerate every pattern over ``{0, ..., alphabet-1}`` exactly
    once.  Uses the standard Lyndon-word (FKM) construction; ``alphabet=2``
    serves Algorithm 1's binary padding, larger alphabets serve the
    categorical extension (paper §1: the fixed-window solution "naturally
    extend[s] to handle categorical data").
    """
    if k <= 0:
        raise ConfigurationError(f"k must be positive, got {k}")
    if alphabet < 2:
        raise ConfigurationError(f"alphabet must be at least 2, got {alphabet}")
    sequence: list[int] = []
    a = [0] * (alphabet * k)

    def extend(t: int, p: int) -> None:
        if t > k:
            if k % p == 0:
                sequence.extend(a[1 : p + 1])
            return
        a[t] = a[t - p]
        extend(t + 1, p)
        for j in range(a[t - p] + 1, alphabet):
            a[t] = j
            extend(t + 1, t)

    extend(1, 1)
    dtype = np.uint8 if alphabet <= 256 else np.int64
    result = np.asarray(sequence, dtype=dtype)
    assert result.shape == (alphabet**k,), "de Bruijn construction produced wrong length"
    return result


def padding_panel(k: int, n_pad: int, horizon: int, alphabet: int = 2):
    """Padding population: ``n_pad * q**k`` fake individuals over ``horizon``.

    One fake individual per rotation offset of the de Bruijn cycle
    ``B(q, k)``, times ``n_pad``: every length-``k`` window histogram of
    the returned panel equals exactly ``n_pad`` in every bin, for every
    ``t in [k, horizon]``.

    Parameters
    ----------
    k:
        Window width.
    n_pad:
        Fake individuals per length-``k`` bin (non-negative).
    horizon:
        Number of rounds ``T >= k``.
    alphabet:
        Number of categories ``q >= 2`` (default 2, the binary panel).

    Returns
    -------
    LongitudinalDataset or CategoricalDataset
        The materialized padding panel (possibly with zero rows): binary
        at ``q = 2``, categorical above.

    Raises
    ------
    repro.exceptions.ConfigurationError
        If ``n_pad`` is negative, ``horizon < k``, or ``alphabet < 2``.
    """
    if n_pad < 0:
        raise ConfigurationError(f"n_pad must be non-negative, got {n_pad}")
    if horizon < k:
        raise ConfigurationError(f"horizon {horizon} shorter than window width {k}")
    cycle = debruijn_sequence(k, alphabet=alphabet)
    length = cycle.shape[0]
    # Row r follows the cycle starting at offset r; tile enough copies of
    # the cycle to cover the horizon, then slice per offset.
    repeats = -(-(horizon + length) // length)  # ceil division
    tiled = np.tile(cycle, repeats)
    offsets = np.arange(length)[:, None] + np.arange(horizon)[None, :]
    records = np.tile(tiled[offsets], (n_pad, 1))  # (n_pad * q**k, horizon)
    if alphabet == 2:
        return LongitudinalDataset(records)
    return CategoricalDataset(records, alphabet)
