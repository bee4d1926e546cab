"""Histogram-based private density estimation — the competitor baseline.

Private density estimation over a discrete domain (in the spirit of
Bojkovic & Loh's locally/centrally private density estimators): at every
round the mechanism privatizes the histogram of length-``k`` window
patterns with discrete Gaussian noise, clamps and renormalizes it into a
probability density over the ``q**k`` pattern cells, and releases a fresh
synthetic sample drawn iid from that density.

This is a *per-round single-shot* competitor to Algorithm 1, and it fails
in instructive, measurable ways:

* **Composition penalty** — each of the ``T - k + 1`` rounds gets only
  ``rho / (T - k + 1)``, so the per-bin noise scale carries the same
  ``sqrt(T - k + 1)`` factor as the recompute strawman;
* **No longitudinal consistency** — every round's sample is a fresh
  population; synthetic individuals do not persist, so monotone
  statistics can decrease between rounds;
* **Clamp-and-renormalize bias** — truncating negative noisy bins at 0
  before normalizing inflates small cells, the same §3.1 pathology the
  clamping baseline exhibits (padding avoids it).

The utility harness (:mod:`repro.analysis.utility`) scores this baseline
head-to-head with Algorithm 1 on pMSE and query accuracy; it satisfies the
:class:`~repro.types.Synthesizer` protocol (``run`` / ``observe`` /
``release`` / ``config_dict`` / ``state_dict``) so
:func:`~repro.analysis.replication.replicate_synthesizer` drives it
unchanged.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.population import validate_column
from repro.data.categorical import CategoricalDataset
from repro.data.dataset import LongitudinalDataset
from repro.dp.accountant import ZCDPAccountant
from repro.dp.mechanisms import GaussianHistogramMechanism
from repro.exceptions import ConfigurationError, DataValidationError, NotFittedError
from repro.queries.categorical import categorical_pattern_table
from repro.queries.plan import scalar_answer_grid
from repro.rng import SeedLike, as_generator, generator_state, spawn
from repro.types import AttributeFrame

__all__ = ["PrivateDensityBaseline", "DensityRelease"]


class DensityRelease:
    """Per-round densities and fresh synthetic samples of the baseline.

    Parameters
    ----------
    baseline:
        The fitted :class:`PrivateDensityBaseline` this view reads from.
    """

    def __init__(self, baseline: "PrivateDensityBaseline"):
        self._baseline = baseline

    @property
    def t(self) -> int:
        """Rounds observed so far."""
        return self._baseline.t

    def density(self, t: int) -> np.ndarray:
        """The released pattern density at round ``t`` (length ``q**k``)."""
        try:
            return self._baseline._densities[t]
        except KeyError:
            raise NotFittedError(f"no density released for t={t}") from None

    def synthetic_data(self, t: int | None = None):
        """The fresh ``window``-wide synthetic panel sampled at round ``t``.

        Parameters
        ----------
        t:
            Release round (default: the latest).  Each round's panel is an
            independent sample — there is no linkage between rounds.
        """
        if t is None:
            if not self._baseline._panels:
                raise NotFittedError("no rounds released yet")
            t = max(self._baseline._panels)
        try:
            return self._baseline._panels[t]
        except KeyError:
            raise NotFittedError(f"no synthetic panel for t={t}") from None

    def answer(self, query, t: int, debias: bool = True) -> float:
        """Answer a window query from the round-``t`` released density.

        The answer is ``weights @ density`` after marginalizing the
        length-``k`` density down to the query's width (summing out the
        oldest positions), so any suffix-window query of width
        ``<= window`` is supported.  ``debias`` is accepted for interface
        compatibility and ignored — density answers carry no padding
        offset to subtract.

        Parameters
        ----------
        query:
            A binary :class:`~repro.queries.base.WindowQuery` or a
            :class:`~repro.queries.categorical.CategoricalWindowQuery`
            matching the baseline's alphabet.
        t:
            Release round.
        debias:
            Ignored (interface compatibility).
        """
        width = getattr(query, "k", None)
        weights = getattr(query, "weights", None)
        if width is None or weights is None:
            raise ConfigurationError(
                f"density answers need a window query with weights, got {query!r}"
            )
        alphabet = int(getattr(query, "alphabet", 2))
        if alphabet != self._baseline.alphabet:
            raise ConfigurationError(
                f"query alphabet {alphabet} != baseline alphabet "
                f"{self._baseline.alphabet}"
            )
        if not 1 <= width <= self._baseline.window:
            raise ConfigurationError(
                f"query width {width} outside [1, window={self._baseline.window}]"
            )
        density = self.density(t)
        marginal = self._baseline._suffix_marginal(density, width)
        return float(np.asarray(weights, dtype=np.float64) @ marginal)

    def answer_batch(self, queries, times, debias: bool = True) -> np.ndarray:
        """Workload grid via the scalar fallback (density answers are cheap)."""
        return scalar_answer_grid(self, queries, times, debias=debias)

    def __repr__(self) -> str:
        return f"DensityRelease(t={self.t}, rounds={sorted(self._baseline._panels)})"


class PrivateDensityBaseline:
    """Noisy-histogram private density estimation, one release per round.

    Parameters
    ----------
    horizon:
        Total number of rounds ``T``.
    window:
        Pattern width ``k`` of the estimated density (``1 <= k <= T``).
    rho:
        Total zCDP budget, split evenly over the ``T - k + 1`` release
        rounds; ``math.inf`` disables the noise (oracle density).
    alphabet:
        Category count ``q >= 2`` (2 = binary panels).
    n_synthetic:
        Records per released sample (default: the observed population
        size).
    seed:
        Seed or generator for the (exact) noise and the sampling.

    Raises
    ------
    repro.exceptions.ConfigurationError
        On out-of-range ``horizon``, ``window``, ``rho``, ``alphabet``,
        or ``n_synthetic``.
    """

    def __init__(
        self,
        horizon: int,
        window: int,
        rho: float,
        *,
        alphabet: int = 2,
        n_synthetic: int | None = None,
        seed: SeedLike = None,
    ):
        if horizon <= 0:
            raise ConfigurationError(f"horizon must be positive, got {horizon}")
        if not 1 <= window <= horizon:
            raise ConfigurationError(
                f"window must lie in [1, horizon={horizon}], got {window}"
            )
        if not rho > 0:
            raise ConfigurationError(f"rho must be positive, got {rho}")
        if alphabet < 2:
            raise ConfigurationError(f"alphabet must be at least 2, got {alphabet}")
        if n_synthetic is not None and n_synthetic <= 0:
            raise ConfigurationError(
                f"n_synthetic must be positive, got {n_synthetic}"
            )
        self.horizon = int(horizon)
        self.window = int(window)
        self.rho = float(rho)
        self.alphabet = int(alphabet)
        self.n_synthetic = None if n_synthetic is None else int(n_synthetic)
        self.n_bins = self.alphabet**self.window
        self.rounds = self.horizon - self.window + 1
        noise_seed, self._sampling_generator = spawn(as_generator(seed), 2)
        if math.isinf(rho):
            self.rho_per_round = math.inf
            self.accountant = None
            self._mechanism = None
        else:
            self.rho_per_round = self.rho / self.rounds
            self.accountant = ZCDPAccountant(self.rho)
            # sigma^2 = 1 / (2 rho_round) at sensitivity 1 — the same
            # add/remove accounting convention as Algorithm 1's stage 1.
            self._mechanism = GaussianHistogramMechanism(
                self.n_bins,
                1.0 / (2.0 * self.rho_per_round),
                seed=noise_seed,
            )
        self._pattern_table = categorical_pattern_table(self.window, self.alphabet)
        self._t = 0
        self._columns: list[np.ndarray] = []
        self._densities: dict[int, np.ndarray] = {}
        self._panels: dict[int, object] = {}

    @property
    def t(self) -> int:
        """Rounds observed so far."""
        return self._t

    @property
    def release(self) -> DensityRelease:
        """View of every density and sample released so far."""
        return DensityRelease(self)

    def zcdp_spent(self) -> float:
        """Total zCDP charged so far (0.0 for the noiseless oracle)."""
        return 0.0 if self.accountant is None else self.accountant.spent

    def _suffix_marginal(self, density: np.ndarray, width: int) -> np.ndarray:
        """Marginal density of the most recent ``width`` window positions."""
        if width == self.window:
            return density
        shaped = density.reshape((self.alphabet,) * self.window)
        return shaped.sum(axis=tuple(range(self.window - width))).reshape(-1)

    def _window_histogram(self) -> np.ndarray:
        """Pattern counts of the most recent ``window`` observed columns."""
        recent = np.column_stack(self._columns[-self.window :])
        powers = self.alphabet ** np.arange(
            self.window - 1, -1, -1, dtype=np.int64
        )
        codes = recent.astype(np.int64) @ powers
        return np.bincount(codes, minlength=self.n_bins)

    def observe(self, data, *, entrants: int = 0, exits=None) -> DensityRelease:
        """Consume one round's reports; release a density once ``t >= k``.

        Parameters
        ----------
        data:
            Length-``n`` report vector with values in ``[0, alphabet)``,
            or a width-1 :class:`~repro.types.AttributeFrame`.
        entrants, exits:
            Unsupported — the baseline estimates a fixed-population
            density.
        """
        if entrants or (exits is not None and np.asarray(exits).size):
            raise ConfigurationError(
                "PrivateDensityBaseline does not support churn (entrants/exits)"
            )
        if isinstance(data, AttributeFrame):
            data = data.sole()
        column = np.asarray(data)
        if column.ndim != 1:
            raise DataValidationError(
                f"column must be 1-D, got shape {column.shape}"
            )
        if column.size == 0:
            raise DataValidationError("column must not be empty")
        validate_column(column, self.alphabet)
        if self._columns and column.shape[0] != self._columns[0].shape[0]:
            raise DataValidationError(
                f"column has {column.shape[0]} entries, expected "
                f"{self._columns[0].shape[0]}"
            )
        if self._t >= self.horizon:
            raise DataValidationError(f"horizon {self.horizon} already exhausted")
        self._t += 1
        self._columns.append(column.astype(np.int64))
        if self._t < self.window:
            return self.release

        histogram = self._window_histogram()
        if self._mechanism is None:
            noisy = histogram.astype(np.int64)
        else:
            self.accountant.charge(
                self.rho_per_round, label=f"density release t={self._t}"
            )
            noisy = self._mechanism.release(histogram)
        clamped = np.maximum(noisy, 0).astype(np.float64)
        total = clamped.sum()
        if total <= 0:
            density = np.full(self.n_bins, 1.0 / self.n_bins)
        else:
            density = clamped / total
        density.setflags(write=False)
        self._densities[self._t] = density

        n_sample = self.n_synthetic or self._columns[0].shape[0]
        codes = self._sampling_generator.choice(self.n_bins, size=n_sample, p=density)
        matrix = self._pattern_table[codes]
        if self.alphabet == 2:
            panel = LongitudinalDataset(matrix)
        else:
            panel = CategoricalDataset(matrix, self.alphabet)
        self._panels[self._t] = panel
        return self.release

    def config_dict(self) -> dict:
        """JSON-able construction parameters."""
        return {
            "algorithm": "density",
            "horizon": self.horizon,
            "window": self.window,
            "rho": self.rho,
            "alphabet": self.alphabet,
            "n_synthetic": self.n_synthetic,
        }

    def state_dict(self, *, copy: bool = True) -> dict:
        """Snapshot of the mutable state (observed prefix + RNG streams)."""
        state: dict = {
            "t": self._t,
            "sampling_generator": generator_state(self._sampling_generator),
        }
        if self.accountant is not None:
            state["accountant"] = self.accountant.to_dict()
        if self._columns:
            stacked = np.column_stack(self._columns)
            state["columns"] = stacked.copy() if copy else stacked
        return state

    def run(self, dataset) -> DensityRelease:
        """Batch driver: feed every column of ``dataset`` in order.

        Parameters
        ----------
        dataset:
            A :class:`~repro.data.dataset.LongitudinalDataset`
            (``alphabet=2``) or
            :class:`~repro.data.categorical.CategoricalDataset` with this
            baseline's alphabet and horizon.
        """
        if dataset.horizon != self.horizon:
            raise DataValidationError(
                f"dataset horizon {dataset.horizon} != baseline horizon "
                f"{self.horizon}"
            )
        if dataset.alphabet != self.alphabet:
            raise DataValidationError(
                f"dataset alphabet {dataset.alphabet} != baseline alphabet "
                f"{self.alphabet}"
            )
        if self._t:
            raise ConfigurationError("run() requires a fresh baseline")
        for column in dataset.columns():
            self.observe(column)
        return self.release

    def __repr__(self) -> str:
        return (
            f"PrivateDensityBaseline(T={self.horizon}, k={self.window}, "
            f"rho={self.rho}, q={self.alphabet}, t={self._t})"
        )
