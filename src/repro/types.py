"""The public interface contracts: value types and structural protocols.

Two layers live here:

* :class:`AttributeFrame` — the **value type** of one round of
  multi-attribute reports: an ``(n, d)`` matrix (one row per individual,
  one column per attribute) plus the attribute names.  Single-attribute
  callers never need to build one — every ``observe`` accepts a plain
  1-D column and wraps it — but the frame is what flows through the
  serving stack (sharded row-splitting, shared-memory staging) when
  ``d >= 2``.
* The **structural protocols**: :class:`Synthesizer` (the full modern
  surface — ``observe`` / ``run`` / ``release`` / ``config_dict`` /
  ``state_dict``) and :class:`Release` (scalar ``answer`` plus the
  batched ``answer_batch`` workload surface).  Third parties can
  implement their own synthesizers or release objects and use them with
  the replication harness, the serving layer, and the experiment
  machinery, as long as they satisfy these protocols; the conformance
  test suite asserts that every built-in class does.

The pre-PR-9 protocols (``SynthesizerProtocol``, keyed on the removed
``observe_column`` spelling, and ``ReleaseProtocol``) are gone along
with the deprecation shims — their one-release migration window is up.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.exceptions import ConfigurationError, DataValidationError

__all__ = [
    "AttributeFrame",
    "as_frame",
    "Synthesizer",
    "Release",
    "StreamCounterProtocol",
]


def _default_names(width: int) -> tuple[str, ...]:
    """Positional attribute names used when the caller provides none."""
    return tuple(f"attr{i}" for i in range(width))


class AttributeFrame:
    """One round of multi-attribute reports: an ``(n, d)`` matrix + names.

    The frame is deliberately a single C-contiguous integer matrix rather
    than a mapping of columns: row operations (sharded splitting, churn
    routing, shared-memory staging) become one fancy-index or slice, and
    the flattened buffer ships through the process executor's staging
    segments exactly like a single column does.

    Parameters
    ----------
    data:
        ``(n, d)`` integer matrix — or a 1-D length-``n`` vector, treated
        as a single-attribute ``(n, 1)`` frame.
    names:
        Attribute names, one per column (default ``attr0, attr1, ...``).

    Raises
    ------
    repro.exceptions.DataValidationError
        If the matrix is not 1-D/2-D or the name count mismatches.
    """

    __slots__ = ("_data", "_names")

    def __init__(self, data, names: Sequence[str] | None = None):
        arr = np.asarray(data)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2:
            raise DataValidationError(
                f"frame data must be 1-D or (n, d), got shape {arr.shape}"
            )
        if arr.shape[1] == 0:
            raise DataValidationError("frame needs at least one attribute column")
        self._data = np.ascontiguousarray(arr)
        if names is None:
            self._names = _default_names(arr.shape[1])
        else:
            self._names = tuple(str(name) for name in names)
        if len(self._names) != self._data.shape[1]:
            raise DataValidationError(
                f"{len(self._names)} names for {self._data.shape[1]} columns"
            )
        if len(set(self._names)) != len(self._names):
            raise DataValidationError(f"attribute names must be unique: {self._names}")

    @property
    def names(self) -> tuple[str, ...]:
        """The attribute names, in column order."""
        return self._names

    @property
    def data(self) -> np.ndarray:
        """The underlying C-contiguous ``(n, d)`` matrix."""
        return self._data

    @property
    def n(self) -> int:
        """Number of reporting individuals (rows)."""
        return int(self._data.shape[0])

    @property
    def width(self) -> int:
        """Number of attributes ``d`` (columns)."""
        return int(self._data.shape[1])

    def column(self, name) -> np.ndarray:
        """One attribute's report vector, by name or column index.

        Parameters
        ----------
        name:
            Attribute name (string) or 0-based column index.

        Returns
        -------
        numpy.ndarray
            A 1-D view of that attribute's column.
        """
        if isinstance(name, str):
            try:
                index = self._names.index(name)
            except ValueError:
                raise ConfigurationError(
                    f"unknown attribute {name!r}; frame has {self._names}"
                ) from None
        else:
            index = int(name)
            if not 0 <= index < self.width:
                raise ConfigurationError(
                    f"column index {index} outside [0, {self.width})"
                )
        return self._data[:, index]

    def sole(self) -> np.ndarray:
        """The single column of a width-1 frame (the 1-D compatibility view).

        Raises
        ------
        repro.exceptions.DataValidationError
            If the frame holds more than one attribute.
        """
        if self.width != 1:
            raise DataValidationError(
                f"expected a single-attribute frame, got {self.width} "
                f"attributes {self._names}"
            )
        return self._data[:, 0]

    def take(self, indices) -> "AttributeFrame":
        """A new frame holding the given rows (in the given order).

        Parameters
        ----------
        indices:
            Row indices (any integer index array or slice).

        Returns
        -------
        AttributeFrame
            The selected rows with the same attribute names.
        """
        return AttributeFrame(self._data[indices], self._names)

    @classmethod
    def from_columns(cls, columns: Mapping[str, np.ndarray]) -> "AttributeFrame":
        """Build a frame from a ``name -> column`` mapping (insertion order).

        Parameters
        ----------
        columns:
            Equal-length 1-D report vectors keyed by attribute name.

        Returns
        -------
        AttributeFrame
            The stacked ``(n, d)`` frame.
        """
        if not columns:
            raise DataValidationError("from_columns needs at least one column")
        names = tuple(columns)
        stacked = np.column_stack([np.asarray(columns[name]) for name in names])
        return cls(stacked, names)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AttributeFrame):
            return NotImplemented
        return (
            self._names == other._names
            and self._data.shape == other._data.shape
            and bool((self._data == other._data).all())
        )

    def __hash__(self):
        return hash((self._names, self._data.shape, self._data.tobytes()))

    def __repr__(self) -> str:
        return f"AttributeFrame(n={self.n}, attributes={list(self._names)})"


def as_frame(data, names: Sequence[str] | None = None) -> AttributeFrame:
    """Coerce observe-style input into an :class:`AttributeFrame`.

    Accepts a frame (returned unchanged — names, when given, are checked
    rather than re-applied), a ``name -> column`` mapping, or a plain
    1-D/2-D array (wrapped with ``names``).

    Parameters
    ----------
    data:
        An :class:`AttributeFrame`, a mapping of columns, or an array.
    names:
        Expected attribute names; applied to bare arrays and validated
        against frames/mappings.

    Returns
    -------
    AttributeFrame
        The coerced frame.

    Raises
    ------
    repro.exceptions.DataValidationError
        If an existing frame's or mapping's names don't match ``names``.
    """
    if isinstance(data, AttributeFrame):
        frame = data
    elif isinstance(data, Mapping):
        frame = AttributeFrame.from_columns(data)
    else:
        return AttributeFrame(data, names)
    if names is not None and frame.names != tuple(names):
        raise DataValidationError(
            f"frame attributes {frame.names} do not match expected {tuple(names)}"
        )
    return frame


@runtime_checkable
class Release(Protocol):
    """A released artifact that answers queries at released rounds.

    ``answer_batch`` answers a whole workload as a
    ``(len(queries), len(times))`` float64 grid with ``NaN`` where
    ``t < query.min_time()``; ``answer(query, t)`` returns one cell of
    that grid, the same float.  The package's releases compute answers
    only in the grid (vectorized through :mod:`repro.queries.plan`);
    a release whose ``answer`` is its implementation builds the grid
    with :func:`repro.queries.plan.scalar_answer_grid`.
    """

    def answer(self, query, t: int, *args, **kwargs) -> float:
        """Answer a query at round ``t``."""
        ...

    def answer_batch(self, queries, times, *args, **kwargs) -> np.ndarray:
        """Answer a workload of queries at a set of rounds as one grid."""
        ...


@runtime_checkable
class Synthesizer(Protocol):
    """The full modern synthesizer surface (PR 9's unified protocol).

    ``observe`` is the canonical streaming entry point — it accepts a
    1-D column or an :class:`AttributeFrame` and threads churn through
    ``entrants=`` / ``exits=``; ``config_dict`` / ``state_dict`` are the
    checkpoint surface every serving layer builds on.
    """

    def observe(self, data, *, entrants: int = 0, exits=None) -> Release:
        """Consume one round of reports; return the release view."""
        ...

    def run(self, dataset) -> Release:
        """Batch driver over a whole panel."""
        ...

    @property
    def release(self) -> Release:
        """View of everything released so far."""
        ...

    def config_dict(self) -> dict:
        """JSON-able construction parameters (checkpoint ``config``)."""
        ...

    def state_dict(self, *, copy: bool = True) -> dict:
        """Snapshot of the mutable state (checkpoint ``state``)."""
        ...


@runtime_checkable
class StreamCounterProtocol(Protocol):
    """A private running-sum estimator pluggable into Algorithm 2."""

    def feed(self, z: int) -> float:
        """Consume one stream element; return the noisy running sum."""
        ...

    def run(self, stream: Iterable[int]) -> np.ndarray:
        """Feed an entire stream; return the noisy prefix sums."""
        ...

    def error_stddev(self, t: int) -> float:
        """Standard deviation of the estimate error at time ``t``."""
        ...
