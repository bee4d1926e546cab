"""Overlap-consistency projection for Algorithm 1.

When the sliding window advances from ``t`` to ``t+1``, the two windows
overlap on ``k-1`` positions.  A synthetic record whose window ended in
suffix ``z`` (a ``(k-1)``-bit string) at time ``t`` must extend into
pattern ``z0`` or ``z1`` at time ``t+1``, so the new synthetic histogram is
*feasible* only if

    p_{z0}^{t+1} + p_{z1}^{t+1}  =  p_{0z}^t + p_{1z}^t    for every z.

The paper enforces this by a per-pair correction
``Delta_z = (M_z - (C^_{z0} + C^_{z1})) / 2`` added to both noisy counts,
with a fair ±1/2 rounding when ``Delta_z`` is a half-integer (Equations
1-4).  The crucial property (used in the Theorem 3.2 error recursion) is
that the correction *splits the pair's total discrepancy evenly*, so the
per-bin error stays mean-zero with time-uniform variance.

Pattern-code conventions (big-endian, oldest bit first — matching
:meth:`LongitudinalDataset.window_codes`):

* pattern ``0z`` has code ``z``; pattern ``1z`` has code ``z + 2**(k-1)``;
* pattern ``z0`` has code ``2 z``; pattern ``z1`` has code ``2 z + 1``.

The base-``q`` generalization (:func:`apply_group_correction` /
:func:`group_totals` / :func:`check_group_consistency`) lives here too:
the paper's categorical extension distributes each overlap group's
discrepancy evenly over its ``q`` children, and the binary pair
correction is exactly its ``q = 2`` case with the tighter fair-rounding
analysis.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError, NegativeCountError

__all__ = [
    "apply_overlap_correction",
    "apply_group_correction",
    "pair_totals",
    "group_totals",
    "check_window_consistency",
    "check_group_consistency",
]


def pair_totals(previous_counts: np.ndarray) -> np.ndarray:
    """``M_z = p_{0z}^t + p_{1z}^t`` for every ``(k-1)``-bit suffix ``z``.

    ``previous_counts`` is the length ``2**k`` synthetic histogram at time
    ``t``; the result has length ``2**(k-1)`` (length 1 when ``k = 1`` —
    the single "empty suffix" group containing every record).
    """
    counts = np.asarray(previous_counts, dtype=np.int64)
    n_bins = counts.shape[0]
    if n_bins < 2 or n_bins & (n_bins - 1):
        raise ConfigurationError(f"histogram length must be a power of two >= 2, got {n_bins}")
    half = n_bins // 2
    return counts[:half] + counts[half:]


def apply_overlap_correction(
    previous_counts: np.ndarray,
    noisy_counts: np.ndarray,
    generator: np.random.Generator,
    on_negative: str = "redistribute",
) -> tuple[np.ndarray, int]:
    """Project noisy counts onto the consistency constraint set.

    Parameters
    ----------
    previous_counts:
        Synthetic histogram ``p^t`` (length ``2**k``, non-negative ints).
    noisy_counts:
        Noisy padded histogram ``C^_{t+1}`` (length ``2**k`` ints, possibly
        negative).
    generator:
        Source of the fair rounding bits ``b_z``.
    on_negative:
        ``"redistribute"`` clamps a negative target into ``[0, M_z]`` while
        keeping the pair total (the documented deviation used outside the
        Theorem 3.2 good event); ``"raise"`` raises
        :class:`NegativeCountError` instead.

    Returns
    -------
    ``(new_counts, n_negative_events)`` — the consistent histogram
    ``p^{t+1}`` and how many pairs needed the negative-count fallback.
    """
    if on_negative not in ("redistribute", "raise"):
        raise ConfigurationError(
            f"on_negative must be 'redistribute' or 'raise', got {on_negative!r}"
        )
    previous = np.asarray(previous_counts, dtype=np.int64)
    noisy = np.asarray(noisy_counts, dtype=np.int64)
    if previous.shape != noisy.shape:
        raise ConfigurationError(
            f"histogram shapes differ: {previous.shape} vs {noisy.shape}"
        )
    totals = pair_totals(previous)  # M_z, length 2**(k-1)
    c_even = noisy[0::2]  # C^_{z0}
    c_odd = noisy[1::2]  # C^_{z1}

    # 2*Delta_z; even entries divide exactly, odd entries get a fair +-1.
    double_delta = totals - (c_even + c_odd)
    odd = (double_delta & 1).astype(bool)
    rounding = np.where(
        odd, generator.integers(0, 2, size=totals.shape[0]) * 2 - 1, 0
    ).astype(np.int64)
    p_even = c_even + (double_delta + rounding) // 2
    p_odd = totals - p_even

    negative = (p_even < 0) | (p_odd < 0)
    n_events = int(negative.sum())
    if n_events and on_negative == "raise":
        bad = int(np.flatnonzero(negative)[0])
        raise NegativeCountError(
            f"target count went negative for suffix pair z={bad}: "
            f"p_z0={p_even[bad]}, p_z1={p_odd[bad]} (pair total {totals[bad]}); "
            "increase n_pad or use on_negative='redistribute'"
        )
    if n_events:
        # At most one side of a pair can be negative (they sum to M_z >= 0).
        p_even = np.clip(p_even, 0, totals)
        p_odd = totals - p_even

    new_counts = np.empty_like(noisy)
    new_counts[0::2] = p_even
    new_counts[1::2] = p_odd
    return new_counts, n_events


def check_window_consistency(previous_counts: np.ndarray, new_counts: np.ndarray) -> bool:
    """True iff ``p^{t+1}`` is feasible given ``p^t`` (the §3.1 constraint)."""
    new = np.asarray(new_counts, dtype=np.int64)
    if (new < 0).any():
        return False
    totals = pair_totals(previous_counts)
    return bool((new[0::2] + new[1::2] == totals).all())


# ----------------------------------------------------------------------
# Base-q generalization (the paper's categorical extension)
# ----------------------------------------------------------------------


def group_totals(previous_counts: np.ndarray, alphabet: int) -> np.ndarray:
    """``M_z = sum_c p_{cz}^t`` for every ``(k-1)``-digit suffix ``z``.

    The base-``q`` generalization of :func:`pair_totals`:
    ``previous_counts`` is the length-``q**k`` synthetic histogram at time
    ``t`` (base-``q`` big-endian pattern codes, so the parents of overlap
    ``z`` are codes ``c * q**(k-1) + z``); the result has length
    ``q**(k-1)``.

    Parameters
    ----------
    previous_counts:
        Length-``q**k`` histogram.
    alphabet:
        Number of categories ``q >= 2``.
    """
    counts = np.asarray(previous_counts, dtype=np.int64)
    if alphabet < 2:
        raise ConfigurationError(f"alphabet must be at least 2, got {alphabet}")
    n_bins = counts.shape[0]
    n_groups, remainder = divmod(n_bins, alphabet)
    if counts.ndim != 1 or n_groups == 0 or remainder:
        raise ConfigurationError(
            f"histogram length must be a positive multiple of {alphabet}, got {n_bins}"
        )
    return counts.reshape(alphabet, n_groups).sum(axis=0)


def apply_group_correction(
    previous_counts: np.ndarray,
    noisy_counts: np.ndarray,
    alphabet: int,
    generator: np.random.Generator,
    on_negative: str = "redistribute",
) -> tuple[np.ndarray, int]:
    """Project noisy base-``q`` counts onto the consistency constraint set.

    The categorical generalization of :func:`apply_overlap_correction`:
    with overlap group totals ``M_z`` (:func:`group_totals`), each group's
    discrepancy ``D_z = M_z - sum_c C^_{zc}`` is distributed evenly — every
    child ``zc`` receives ``floor(D_z / q)`` and the residue ``D_z mod q``
    goes to that many children chosen uniformly at random (the fair
    ``+-1/2`` rounding of the binary case is ``q = 2``).

    Parameters
    ----------
    previous_counts:
        Synthetic histogram ``p^t`` (length ``q**k``, non-negative ints).
    noisy_counts:
        Noisy padded histogram ``C^_{t+1}`` (length ``q**k`` ints,
        possibly negative).
    alphabet:
        Number of categories ``q >= 2``.
    generator:
        Source of the residue-placement randomness.
    on_negative:
        ``"redistribute"`` clamps a negative target into ``[0, M_z]``
        while keeping the group total (the documented deviation outside
        the good event); ``"raise"`` raises :class:`NegativeCountError`.

    Returns
    -------
    ``(new_counts, n_negative_events)`` — the consistent histogram
    ``p^{t+1}`` and how many groups needed the negative-count fallback.
    """
    if on_negative not in ("redistribute", "raise"):
        raise ConfigurationError(
            f"on_negative must be 'redistribute' or 'raise', got {on_negative!r}"
        )
    previous = np.asarray(previous_counts, dtype=np.int64)
    noisy = np.asarray(noisy_counts, dtype=np.int64)
    if previous.shape != noisy.shape:
        raise ConfigurationError(
            f"histogram shapes differ: {previous.shape} vs {noisy.shape}"
        )
    totals = group_totals(previous, alphabet)  # M_z, length q**(k-1)
    n_bins = previous.shape[0]
    n_groups = n_bins // alphabet
    children = noisy.reshape(n_groups, alphabet).copy()

    discrepancy = totals - children.sum(axis=1)
    base, residue = np.divmod(discrepancy, alphabet)
    children += base[:, None]
    with_residue = np.flatnonzero(residue)
    if with_residue.size:
        # One key per (group, child); each group's residue goes to the
        # children holding its smallest keys — a batched uniform
        # without-replacement draw for every group at once.
        keys = generator.random((with_residue.size, alphabet))
        ranks = np.argsort(np.argsort(keys, axis=1), axis=1)
        children[with_residue] += ranks < residue[with_residue, None]

    negative_groups = (children < 0).any(axis=1)
    n_events = int(negative_groups.sum())
    if n_events and on_negative == "raise":
        bad = int(np.flatnonzero(negative_groups)[0])
        raise NegativeCountError(
            f"target counts went negative for overlap group z={bad}: "
            f"{children[bad].tolist()} (group total {totals[bad]}); "
            "increase n_pad or use on_negative='redistribute'"
        )
    if n_events:
        for z in np.flatnonzero(negative_groups):
            row = np.maximum(children[z], 0)
            excess = int(row.sum() - totals[z])
            # Clamping only raises the sum, so excess >= 0; shave it from
            # the largest children (fallback path outside the good event).
            while excess > 0:
                top = int(row.argmax())
                take = min(excess, int(row[top]))
                row[top] -= take
                excess -= take
            children[z] = row

    return children.reshape(n_bins), n_events


def check_group_consistency(
    previous_counts: np.ndarray, new_counts: np.ndarray, alphabet: int
) -> bool:
    """True iff ``p^{t+1}`` is base-``q`` feasible given ``p^t``.

    The categorical counterpart of :func:`check_window_consistency`: the
    children of every overlap group must be non-negative and sum to the
    group total ``M_z``.

    Parameters
    ----------
    previous_counts, new_counts:
        Length-``q**k`` histograms at ``t`` and ``t+1``.
    alphabet:
        Number of categories ``q >= 2``.
    """
    new = np.asarray(new_counts, dtype=np.int64)
    if (new < 0).any():
        return False
    totals = group_totals(previous_counts, alphabet)
    child_sums = new.reshape(totals.shape[0], alphabet).sum(axis=1)
    return bool((child_sums == totals).all())
