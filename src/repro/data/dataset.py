"""The longitudinal panel container.

A :class:`LongitudinalDataset` wraps an ``n x T`` matrix over ``{0, 1}``:
one row per individual, one column per reporting period.  This matches the
paper's data model with universe ``X = {0, 1}`` — each individual reports
one new bit per round.  Time is **1-indexed** throughout the public API, as
in the paper (``t = 1, ..., T``); internally column ``t - 1`` stores round
``t``.

The class provides the vectorized counting primitives both synthesizers
need: window pattern codes and histograms (Algorithm 1) and Hamming-weight
census / threshold counts / increments (Algorithm 2).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import DataValidationError

__all__ = ["LongitudinalDataset", "DynamicPanel"]


class LongitudinalDataset:
    """An immutable ``n x T`` binary panel.

    Parameters
    ----------
    matrix:
        Array-like of shape ``(n, T)`` with entries in ``{0, 1}``.  The data
        is copied into a read-only ``uint8`` array.

    Examples
    --------
    >>> panel = LongitudinalDataset([[1, 0, 1], [0, 0, 1]])
    >>> panel.n_individuals, panel.horizon
    (2, 3)
    >>> panel.suffix_histogram(t=3, k=2).tolist()  # windows '01' and '01'
    [0, 2, 0, 0]
    """

    #: Alphabet size ``q``: a binary panel is the ``q = 2`` case of
    #: :class:`~repro.data.categorical.CategoricalDataset`.
    alphabet = 2

    def __init__(self, matrix):
        arr = np.asarray(matrix)
        if arr.ndim != 2:
            raise DataValidationError(
                f"panel must be 2-dimensional (individuals x time), got shape {arr.shape}"
            )
        if arr.size and not np.isin(arr, (0, 1)).all():
            raise DataValidationError("panel entries must be 0 or 1")
        self._matrix = arr.astype(np.uint8).copy()
        self._matrix.setflags(write=False)

    # ------------------------------------------------------------------
    # Shape and access
    # ------------------------------------------------------------------

    @property
    def matrix(self) -> np.ndarray:
        """The underlying read-only ``uint8`` matrix."""
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
        """The round-``t`` report vector ``D_t`` (1-indexed)."""
        self._check_time(t)
        return self._matrix[:, t - 1]

    def columns(self) -> Iterable[np.ndarray]:
        """Iterate over report vectors ``D_1, ..., D_T`` in arrival order."""
        for t in range(1, self.horizon + 1):
            yield self._matrix[:, t - 1]

    def prefix(self, t: int) -> "LongitudinalDataset":
        """The panel restricted to rounds ``1..t``."""
        self._check_time(t)
        return LongitudinalDataset(self._matrix[:, :t])

    def subset(self, indices: Sequence[int]) -> "LongitudinalDataset":
        """The panel restricted to the given individuals."""
        return LongitudinalDataset(self._matrix[np.asarray(indices)])

    def concat(self, other: "LongitudinalDataset") -> "LongitudinalDataset":
        """Stack two panels with equal horizons (e.g. data + padding)."""
        if other.horizon != self.horizon:
            raise DataValidationError(
                f"cannot concat panels with horizons {self.horizon} and {other.horizon}"
            )
        return LongitudinalDataset(np.vstack([self._matrix, other._matrix]))

    # ------------------------------------------------------------------
    # Fixed-window primitives (Algorithm 1)
    # ------------------------------------------------------------------

    def window_codes(self, t: int, k: int) -> np.ndarray:
        """Integer codes of each individual's window ``(x^{t-k+1}, ..., x^t)``.

        The code reads the window as a big-endian ``k``-bit number, so
        pattern ``s = (s_1, ..., s_k)`` maps to ``sum_j s_j 2^(k-j)``.
        Requires ``t >= k``.
        """
        self._check_window(t, k)
        # Column by column: NumPy runs a uint8 @ int64 product on a slow
        # mixed-type path, several times slower than k shift-or passes.
        codes = self._matrix[:, t - k].astype(np.int64)
        for column in range(t - k + 1, t):
            codes <<= 1
            codes |= self._matrix[:, column]
        return codes

    def suffix_histogram(self, t: int, k: int) -> np.ndarray:
        """Counts ``C_s^t`` of each length-``k`` pattern at time ``t``.

        Returns a length ``2**k`` int64 vector indexed by pattern code.
        """
        codes = self.window_codes(t, k)
        return np.bincount(codes, minlength=1 << k).astype(np.int64)

    # ------------------------------------------------------------------
    # Cumulative primitives (Algorithm 2)
    # ------------------------------------------------------------------

    def hamming_weights(self, t: int) -> np.ndarray:
        """Each individual's cumulative number of 1s through round ``t``.

        ``t = 0`` is allowed and returns all zeros (the paper's convention
        ``x^t = 0`` for ``t <= 0``).
        """
        if t == 0:
            return np.zeros(self.n_individuals, dtype=np.int64)
        self._check_time(t)
        return self._matrix[:, :t].sum(axis=1, dtype=np.int64)

    def threshold_counts(self, t: int) -> np.ndarray:
        """``S_b^t = #{i : weight_i(t) >= b}`` for ``b = 0, ..., T``."""
        weights = self.hamming_weights(t)
        # counts_by_weight[w] = #individuals with weight exactly w
        counts_by_weight = np.bincount(weights, minlength=self.horizon + 1)
        # S_b = sum_{w >= b} counts_by_weight[w]
        return counts_by_weight[::-1].cumsum()[::-1].astype(np.int64)

    def increments(self, t: int) -> np.ndarray:
        """``z_b^t`` for ``b = 1, ..., t``: the stream elements of round ``t``.

        ``z_b^t`` counts individuals with exactly ``b - 1`` ones through
        ``t - 1`` who report 1 at round ``t`` — the increment of ``S_b``.
        Returns a length-``t`` vector indexed by ``b - 1``.
        """
        self._check_time(t)
        prev_weights = self.hamming_weights(t - 1)
        reporting_one = self.column(t) == 1
        counts = np.bincount(prev_weights[reporting_one], minlength=t)
        return counts[:t].astype(np.int64)

    # ------------------------------------------------------------------
    # Dunder / misc
    # ------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LongitudinalDataset):
            return NotImplemented
        return self._matrix.shape == other._matrix.shape and bool(
            (self._matrix == other._matrix).all()
        )

    def __hash__(self):
        return hash((self._matrix.shape, self._matrix.tobytes()))

    def __repr__(self) -> str:
        return f"LongitudinalDataset(n={self.n_individuals}, T={self.horizon})"

    def _check_time(self, t: int) -> None:
        if not 1 <= t <= self.horizon:
            raise DataValidationError(f"time {t} outside [1, {self.horizon}]")

    def _check_window(self, t: int, k: int) -> None:
        self._check_time(t)
        if not 1 <= k <= self.horizon:
            raise DataValidationError(f"window width {k} outside [1, {self.horizon}]")
        if t < k:
            raise DataValidationError(f"window of width {k} undefined before t={k}, got t={t}")


class DynamicPanel:
    """A longitudinal panel over a churning population.

    Wraps an ``n_ever x T`` binary matrix over the *ever-admitted*
    population together with each individual's lifespan: ``entry_round``
    (first round present, 1-indexed) and ``exit_round`` (first round
    absent; 0 means the individual never departs).  Rows must be ordered
    by admission (non-decreasing ``entry_round``) so that row index
    doubles as the individual's id in the synthesizers' admission-order
    protocol; reports outside an individual's lifespan must be 0 (the
    zero-fill convention of :mod:`repro.core.population`).

    Parameters
    ----------
    matrix:
        Array-like of shape ``(n_ever, T)`` with entries in ``{0, 1}``;
        entries outside each row's lifespan must be 0.
    entry_round:
        Length-``n_ever`` 1-indexed entry rounds, non-decreasing.
    exit_round:
        Length-``n_ever`` exit rounds; each is 0 (never departs) or
        strictly greater than the individual's entry round.
    """

    def __init__(self, matrix, entry_round, exit_round):
        panel = LongitudinalDataset(matrix)
        self._matrix = panel.matrix
        self._entry = np.asarray(entry_round, dtype=np.int64)
        self._exit = np.asarray(exit_round, dtype=np.int64)
        n_ever, horizon = self._matrix.shape
        if self._entry.shape != (n_ever,) or self._exit.shape != (n_ever,):
            raise DataValidationError(
                f"entry/exit rounds must have shape ({n_ever},), got "
                f"{self._entry.shape} and {self._exit.shape}"
            )
        if n_ever and (self._entry[0] != 1 or (np.diff(self._entry) < 0).any()):
            raise DataValidationError(
                "rows must be ordered by admission: entry rounds start at 1 "
                "and are non-decreasing"
            )
        if ((self._entry < 1) | (self._entry > horizon)).any():
            raise DataValidationError(f"entry rounds must lie in [1, {horizon}]")
        departs = self._exit != 0
        if (self._exit[departs] <= self._entry[departs]).any():
            raise DataValidationError(
                "exit rounds must be 0 (never) or strictly after the entry round"
            )
        # Zero-fill sanity: no reports outside a lifespan.
        rounds = np.arange(1, horizon + 1)
        outside = (rounds[None, :] < self._entry[:, None]) | (
            departs[:, None] & (rounds[None, :] >= self._exit[:, None])
        )
        if (self._matrix[outside] != 0).any():
            raise DataValidationError(
                "reports outside an individual's lifespan must be 0 "
                "(the zero-fill convention)"
            )

    @property
    def matrix(self) -> np.ndarray:
        """The read-only ``uint8`` matrix over the ever-admitted rows."""
        return self._matrix

    @property
    def n_ever(self) -> int:
        """Individuals ever admitted over the whole horizon."""
        return self._matrix.shape[0]

    @property
    def horizon(self) -> int:
        """Number of reporting periods ``T``."""
        return self._matrix.shape[1]

    @property
    def entry_round(self) -> np.ndarray:
        """Per-row entry rounds (copy)."""
        return self._entry.copy()

    @property
    def exit_round(self) -> np.ndarray:
        """Per-row exit rounds, 0 for never-departing rows (copy)."""
        return self._exit.copy()

    def active_mask(self, t: int) -> np.ndarray:
        """Boolean mask of the rows present in round ``t`` (1-indexed)."""
        if not 1 <= t <= self.horizon:
            raise DataValidationError(f"time {t} outside [1, {self.horizon}]")
        departs = self._exit != 0
        return (self._entry <= t) & (~departs | (self._exit > t))

    def n_active(self, t: int) -> int:
        """Individuals present in round ``t``."""
        return int(self.active_mask(t).sum())

    def rounds(self):
        """Iterate ``(column, entrants, exits)`` round events in order.

        Yields
        ------
        tuple
            Per round ``t``: the active-population report ``column``
            (ascending row id), the number of rows entering at ``t``
            (their reports are the column's final entries), and the row
            ids exiting as of ``t`` — exactly the arguments of the
            synthesizers' ``observe(column, entrants=, exits=)``.
        """
        for t in range(1, self.horizon + 1):
            active = self.active_mask(t)
            column = self._matrix[active, t - 1].astype(np.int64)
            entrants = int((self._entry == t).sum()) if t > 1 else 0
            exits = np.flatnonzero(self._exit == t)
            yield column, entrants, exits

    def as_longitudinal(self) -> LongitudinalDataset:
        """The zero-filled static panel over the ever-admitted rows.

        This is the panel a fixed-population synthesizer would consume
        under the zero-fill convention — the noiseless reference for
        churn experiments.
        """
        return LongitudinalDataset(self._matrix)

    @property
    def churned(self) -> bool:
        """True when any row enters after round 1 or ever departs."""
        return bool((self._entry > 1).any() or (self._exit != 0).any())

    def __repr__(self) -> str:
        return (
            f"DynamicPanel(n_ever={self.n_ever}, T={self.horizon}, "
            f"churned={self.churned})"
        )
