"""The recompute-from-scratch baseline (the paper's introductory strawman).

"Simply recompute a new synthetic dataset from scratch in every round. That
is, in each time step t, one could apply a single-shot synthetic data
generator to the portion of the dataset observed up to time t" (§1).

Each round ``t >= k`` this baseline runs a fresh single-shot synthesis over
the prefix ``1..t`` (internally a fixed-window synthesizer with horizon
``t``), with the total budget split evenly over the ``T - k + 1`` rounds as
composition requires.  Two failure modes the paper highlights, both
measurable on this class:

* **Composition penalty** — each round's synthesis gets only
  ``rho / (T-k+1)``, so its per-bin noise scale is
  ``(T-k+1)/sqrt(2 rho)`` — a ``sqrt(T-k+1)`` factor worse than
  Algorithm 1 (compare ``error_stddev_factor``).
* **No consistency** — round ``t + 1`` materializes entirely new records,
  so monotone longitudinal statistics such as "ever had a spell of at
  least ``L`` consecutive 1s" (:meth:`RecomputeRelease.ever_spell_series`)
  can *decrease* between rounds, which is impossible under a consistent
  release.  The
  `abl-baseline` benchmark counts these violations.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.fixed_window import FixedWindowSynthesizer
from repro.core.population import validate_column
from repro.data.dataset import LongitudinalDataset
from repro.dp.accountant import ZCDPAccountant
from repro.exceptions import ConfigurationError, DataValidationError, NotFittedError
from repro.queries.base import WindowQuery
from repro.queries.plan import scalar_answer_grid
from repro.rng import SeedLike, as_generator, generator_state, spawn
from repro.types import AttributeFrame

__all__ = [
    "RecomputeBaseline",
    "RecomputeRelease",
    "ever_pattern_fraction",
    "ever_spell_fraction",
]


def ever_pattern_fraction(
    panel: LongitudinalDataset, k: int, pattern_code: int, t: int
) -> float:
    """Fraction of records that matched window pattern ``s`` at least once.

    Scans every window position ``tau = k..t``; this is the "ever
    experienced a spell" style statistic whose monotonicity consistent
    releases preserve.
    """
    if t < k:
        return 0.0
    ever = np.zeros(panel.n_individuals, dtype=bool)
    for tau in range(k, t + 1):
        ever |= panel.window_codes(tau, k) == pattern_code
    return float(ever.mean())


def ever_spell_fraction(panel: LongitudinalDataset, length: int, t: int) -> float:
    """Fraction of records with a run of >= ``length`` consecutive 1s by ``t``.

    The paper's motivating pathology: "the number of synthetic individuals
    who have ever experienced a 6-month unemployment spell" must never
    decrease under a consistent release, but can decrease when each round's
    synthetic population is regenerated from scratch.
    """
    if length <= 0:
        return 1.0
    if t < length:
        return 0.0
    matrix = panel.matrix[:, :t]
    run = np.zeros(matrix.shape[0], dtype=np.int64)
    best = np.zeros(matrix.shape[0], dtype=np.int64)
    for j in range(t):
        run = np.where(matrix[:, j] == 1, run + 1, 0)
        best = np.maximum(best, run)
    return float((best >= length).mean())


class RecomputeRelease:
    """One fresh synthetic panel per round, with no linkage between rounds."""

    #: Release-protocol capability flag: ``answer`` honors ``debias=``
    #: (forwarded to the round's inner window release).
    debias_aware = True

    def __init__(self, baseline: "RecomputeBaseline"):
        self._baseline = baseline

    @property
    def t(self) -> int:
        """Rounds observed so far."""
        return self._baseline.t

    def panel(self, t: int) -> LongitudinalDataset:
        """The fresh synthetic panel regenerated at round ``t`` (covers 1..t)."""
        try:
            return self._baseline._panels[t]
        except KeyError:
            raise NotFittedError(f"no panel released for t={t}") from None

    def synthetic_data(self, t: int | None = None) -> LongitudinalDataset:
        """The round-``t`` fresh synthetic panel (default: the latest).

        The uniform spelling every release type exposes; identical to
        :meth:`panel` apart from the latest-round default.
        """
        if t is None:
            if not self._baseline._panels:
                raise NotFittedError("no rounds released yet")
            t = max(self._baseline._panels)
        return self.panel(t)

    def answer(self, query: WindowQuery, t: int, debias: bool = True) -> float:
        """Answer a window query on the round-``t`` fresh panel."""
        try:
            release = self._baseline._releases[t]
        except KeyError:
            raise NotFittedError(f"no release for t={t}") from None
        return release.answer(query, t, debias=debias)

    def answer_batch(self, queries, times, debias: bool = True) -> np.ndarray:
        """Workload grid via the scalar fallback.

        Each round answers from a *different* inner release (the fresh
        per-round synthesis), so there is no shared compiled plan to
        amortize; the fallback is already the natural evaluation.
        """
        return scalar_answer_grid(self, queries, times, debias=debias)

    def padding(self, t: int):
        """Public padding spec of the round-``t`` single-shot synthesis.

        Each round regenerates the prefix with a fresh
        :class:`~repro.core.fixed_window.FixedWindowSynthesizer`, so the
        padding parameters differ per round; utility scorers
        (:func:`~repro.analysis.utility.pmse_release`) use this to score
        the fresh panel against its padded target.
        """
        try:
            return self._baseline._releases[t].padding
        except KeyError:
            raise NotFittedError(f"no release for t={t}") from None

    def ever_spell_series(self, length: int) -> list[float]:
        """"Ever had a >= length spell" fraction per round, fresh panels."""
        return [
            ever_spell_fraction(self._baseline._panels[t], length, t)
            for t in sorted(self._baseline._panels)
        ]

    def spell_violations(self, lengths: tuple[int, ...] = (5, 6)) -> int:
        """Total decreases of the "ever had a spell" series over lengths."""
        total = 0
        for length in lengths:
            series = self.ever_spell_series(length)
            total += sum(1 for a, b in zip(series, series[1:]) if b < a - 1e-12)
        return total


class RecomputeBaseline:
    """Fresh single-shot synthesis of the whole prefix, every round.

    Parameters mirror :class:`~repro.core.fixed_window.FixedWindowSynthesizer`.
    The per-round single-shot generator reuses the fixed-window machinery
    with horizon ``t`` — a reasonable single-shot synthesizer for the query
    class ``Q_t`` — seeded independently per round.
    """

    def __init__(
        self,
        horizon: int,
        window: int,
        rho: float,
        *,
        beta: float = 0.05,
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
        self.horizon = int(horizon)
        self.window = int(window)
        self.rho = float(rho)
        self.beta = float(beta)
        self._generator = as_generator(seed)
        self.rounds = self.horizon - self.window + 1
        self.rho_per_round = math.inf if math.isinf(rho) else self.rho / self.rounds
        self.accountant = None if math.isinf(rho) else ZCDPAccountant(self.rho)
        self._round_seeds = spawn(self._generator, self.rounds)
        self._t = 0
        self._columns: list[np.ndarray] = []
        self._panels: dict[int, LongitudinalDataset] = {}
        self._releases: dict[int, object] = {}

    @property
    def t(self) -> int:
        """Rounds observed so far."""
        return self._t

    @property
    def release(self) -> RecomputeRelease:
        """View of everything released so far."""
        return RecomputeRelease(self)

    def error_stddev_factor(self) -> float:
        """Per-bin noise stddev at the final round, for bound comparisons.

        The round-``T`` synthesis adds ``N_Z(0, (T-k+1)/(2 rho_round))``
        per bin with ``rho_round = rho/(T-k+1)``: stddev
        ``(T-k+1)/sqrt(2 rho)`` — compare Algorithm 1's
        ``sqrt((T-k+1)/(2 rho))``.
        """
        if math.isinf(self.rho):
            return 0.0
        return self.rounds / math.sqrt(2.0 * self.rho)

    def observe(self, data, *, entrants: int = 0, exits=None) -> RecomputeRelease:
        """Consume one round's reports; regenerate the prefix once ``t >= k``.

        Parameters
        ----------
        data:
            Length-``n`` 0/1 report vector, or a width-1
            :class:`~repro.types.AttributeFrame`.
        entrants, exits:
            Unsupported — the strawman rebuilds a fixed-population prefix.
        """
        if entrants or (exits is not None and np.asarray(exits).size):
            raise ConfigurationError(
                "RecomputeBaseline does not support churn (entrants/exits)"
            )
        if isinstance(data, AttributeFrame):
            data = data.sole()
        column = np.asarray(data)
        if column.ndim != 1:
            raise DataValidationError(f"column must be 1-D, got shape {column.shape}")
        validate_column(column, 2)
        if self._columns and column.shape[0] != self._columns[0].shape[0]:
            raise DataValidationError(
                f"column has {column.shape[0]} entries, expected {self._columns[0].shape[0]}"
            )
        if self._t >= self.horizon:
            raise DataValidationError(f"horizon {self.horizon} already exhausted")
        self._t += 1
        self._columns.append(column.astype(np.uint8))
        if self._t < self.window:
            return self.release

        prefix = LongitudinalDataset(np.column_stack(self._columns))
        round_index = self._t - self.window  # 0-based
        if self.accountant is not None:
            self.accountant.charge(
                self.rho_per_round, label=f"single-shot synthesis t={self._t}"
            )
        single_shot = FixedWindowSynthesizer(
            horizon=self._t,
            window=self.window,
            rho=self.rho_per_round,
            beta=self.beta,
            seed=self._round_seeds[round_index],
        )
        inner_release = single_shot.run(prefix)
        self._releases[self._t] = inner_release
        self._panels[self._t] = inner_release.synthetic_data()
        return self.release

    def run(self, dataset: LongitudinalDataset) -> RecomputeRelease:
        """Batch driver."""
        if dataset.horizon != self.horizon:
            raise DataValidationError(
                f"dataset horizon {dataset.horizon} != baseline horizon {self.horizon}"
            )
        if self._t:
            raise ConfigurationError("run() requires a fresh baseline")
        for column in dataset.columns():
            self.observe(column)
        return self.release

    def config_dict(self) -> dict:
        """JSON-able construction parameters."""
        return {
            "algorithm": "recompute",
            "horizon": self.horizon,
            "window": self.window,
            "rho": self.rho,
            "beta": self.beta,
        }

    def state_dict(self, *, copy: bool = True) -> dict:
        """Snapshot of the mutable state.

        Includes the observed prefix and every RNG stream, so replaying
        the remaining columns after a restore regenerates identical
        panels (each round draws from its own pre-spawned seed).
        """
        state: dict = {
            "t": self._t,
            "generator": generator_state(self._generator),
            "round_seeds": [generator_state(g) for g in self._round_seeds],
        }
        if self.accountant is not None:
            state["accountant"] = self.accountant.to_dict()
        if self._columns:
            stacked = np.column_stack(self._columns)
            state["columns"] = stacked.copy() if copy else stacked
        return state
