"""Non-private oracle synthesizer.

Releases synthetic data equal in distribution to the raw panel (in fact,
the raw panel itself).  Used as the accuracy ceiling in comparisons and to
sanity-check experiment plumbing: every query answered on the oracle's
release must equal the ground truth exactly.
"""

from __future__ import annotations

import numpy as np

from repro.core.population import validate_column
from repro.data.dataset import LongitudinalDataset
from repro.exceptions import ConfigurationError, DataValidationError, NotFittedError
from repro.queries.base import Query
from repro.queries.plan import scalar_answer_grid
from repro.types import AttributeFrame

__all__ = ["NonPrivateSynthesizer"]


class _OracleRelease:
    """Release view that evaluates queries on the raw panel."""

    def __init__(self, panel: LongitudinalDataset):
        self._panel = panel

    @property
    def t(self) -> int:
        """Rounds available."""
        return self._panel.horizon

    def synthetic_data(self, t: int | None = None) -> LongitudinalDataset:
        """The "synthetic" panel — the raw data itself."""
        return self._panel if t is None else self._panel.prefix(t)

    def answer(self, query: Query, t: int, debias: bool = True) -> float:
        """Ground-truth answer (``debias`` accepted for API compatibility)."""
        return query.evaluate(self._panel, t)

    def answer_batch(self, queries, times, debias: bool = True) -> np.ndarray:
        """Workload grid via the scalar fallback (already exact)."""
        return scalar_answer_grid(self, queries, times, debias=debias)


class NonPrivateSynthesizer:
    """Oracle: outputs the original records (no privacy whatsoever).

    Parameters
    ----------
    horizon:
        Known time horizon ``T`` (validated against the panel fed to
        ``run``).

    Raises
    ------
    repro.exceptions.ConfigurationError
        If ``horizon`` is not positive.
    """

    def __init__(self, horizon: int):
        if horizon <= 0:
            raise ConfigurationError(f"horizon must be positive, got {horizon}")
        self.horizon = int(horizon)
        self._columns: list[np.ndarray] = []
        self._release: _OracleRelease | None = None

    @property
    def t(self) -> int:
        """Rounds observed so far (streaming mode only)."""
        return len(self._columns)

    @property
    def release(self) -> _OracleRelease:
        """The release view (after :meth:`run` or :meth:`observe`)."""
        if self._release is None:
            raise NotFittedError("run() has not been called")
        return self._release

    def observe(self, data, *, entrants: int = 0, exits=None) -> _OracleRelease:
        """Consume one round's reports; the oracle re-releases the prefix.

        Parameters
        ----------
        data:
            Length-``n`` 0/1 report vector, or a width-1
            :class:`~repro.types.AttributeFrame`.
        entrants, exits:
            Unsupported — the oracle tracks a fixed population.
        """
        if entrants or (exits is not None and np.asarray(exits).size):
            raise ConfigurationError(
                "NonPrivateSynthesizer does not support churn (entrants/exits)"
            )
        if isinstance(data, AttributeFrame):
            data = data.sole()
        column = np.asarray(data)
        if column.ndim != 1:
            raise DataValidationError(f"column must be 1-D, got shape {column.shape}")
        validate_column(column, 2)
        if self._columns and column.shape[0] != self._columns[0].shape[0]:
            raise DataValidationError(
                f"column has {column.shape[0]} entries, expected "
                f"{self._columns[0].shape[0]}"
            )
        if len(self._columns) >= self.horizon:
            raise DataValidationError(f"horizon {self.horizon} already exhausted")
        self._columns.append(column.astype(np.uint8))
        self._release = _OracleRelease(
            LongitudinalDataset(np.column_stack(self._columns))
        )
        return self._release

    def run(self, dataset: LongitudinalDataset) -> _OracleRelease:
        """Record the panel and return the oracle release."""
        if dataset.horizon != self.horizon:
            raise DataValidationError(
                f"dataset horizon {dataset.horizon} != synthesizer horizon {self.horizon}"
            )
        self._release = _OracleRelease(dataset)
        return self._release

    def config_dict(self) -> dict:
        """JSON-able construction parameters."""
        return {"algorithm": "nonprivate", "horizon": self.horizon}

    def state_dict(self, *, copy: bool = True) -> dict:
        """Snapshot of the observed prefix (the oracle's only state)."""
        if not self._columns:
            return {"t": 0}
        stacked = np.column_stack(self._columns)
        return {"t": len(self._columns), "columns": stacked.copy() if copy else stacked}
