"""Batched replication of Algorithm 2: all ``R`` repetitions as one state machine.

Every figure in the paper repeats a synthesizer ``R = 1000`` times on the
*same* panel and plots the answer distribution.  Re-running
:class:`~repro.core.cumulative.CumulativeSynthesizer` in a Python loop
repeats three kinds of work that are identical across repetitions:

1. the stream increments ``z_b^t`` (data-dependent only — computed once
   here);
2. the per-round Python dispatch of stage 1 (the counter bank) and stage 2
   (monotonization) — batched here along a rep axis via
   :class:`~repro.streams.bank.CounterBank` with ``n_reps=R`` and
   :func:`~repro.core.monotonize.monotonize_rows`;
3. the synthetic record draws — skipped entirely, because
   :class:`HammingAtLeast` / :class:`HammingExactly` answers read off the
   threshold table ``S^`` alone (the synthetic census equals the table
   exactly, Theorem 4.4), and replication experiments never request the
   records.

The result is a ``(R, T+1, T+1)`` stack of monotonized threshold tables
from which :meth:`ReplicatedCumulativeRelease.answer_grid` evaluates the
whole ``(rep, query, time)`` answer cube with array indexing.

Equivalence contract (pinned by ``tests/core/test_replicated.py`` and the
``benchmarks/bench_replication.py`` acceptance test): in noiseless mode
(``rho = inf``) every replica's table is bit-exact with a serial
:class:`~repro.core.cumulative.CumulativeSynthesizer` run, and the zCDP
ledger charged per replica is identical to the serial ledger entry for
entry; with noise, the per-rep answer distributions are the same up to
float rounding (the noise is drawn from the same per-threshold
mechanisms, batched, with the samplers' float rep-axis draw when
``R > 1`` — an accuracy study never publishes, and exact noise at the
figures' ``12 x 1,000`` shape is still many times slower).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.budget import allocate_budget
from repro.core.cumulative import counter_charge_label, stream_increments
from repro.core.monotonize import is_monotone_table, monotonize_rows
from repro.data.dataset import LongitudinalDataset
from repro.dp.accountant import ZCDPAccountant
from repro.exceptions import ConfigurationError, DataValidationError
from repro.queries.plan import compile_cumulative
from repro.rng import SeedLike, as_generator
from repro.streams.registry import available_counters, make_bank

__all__ = ["ReplicatedCumulativeRelease", "replicate_cumulative"]


class ReplicatedCumulativeRelease:
    """Threshold tables and answers of ``R`` batched Algorithm-2 runs.

    Attributes
    ----------
    tables:
        Monotonized threshold counts ``S^_b^t`` for every replica, shape
        ``(R, T+1, T+1)`` (``tables[r, t, b]``; row 0 is the initial state
        ``(n, 0, ..., 0)``).
    accountant:
        The zCDP ledger charged by *each* replica — the ``R`` runs are
        independent executions of the same mechanism on the same data, so
        one ledger describes them all (``None`` in noiseless mode).
    """

    def __init__(
        self,
        tables: np.ndarray,
        n: int,
        horizon: int,
        accountant: ZCDPAccountant | None,
    ):
        self.tables = tables
        self.n = int(n)
        self.horizon = int(horizon)
        self.accountant = accountant

    @property
    def n_reps(self) -> int:
        """Number of replicas ``R``."""
        return self.tables.shape[0]

    def threshold_counts(self, b: int, t: int) -> np.ndarray:
        """``S^_b^t`` for every replica (length-``R`` int vector)."""
        if not 0 <= b <= self.horizon:
            raise ConfigurationError(f"b must lie in [0, {self.horizon}], got {b}")
        if not 1 <= t <= self.horizon:
            raise ConfigurationError(f"t must lie in [1, {self.horizon}], got {t}")
        return self.tables[:, t, b].copy()

    def answer(self, query, t: int) -> np.ndarray:
        """Every replica's answer to a cumulative query at round ``t``.

        One ``(query, t)`` slice of :meth:`answer_grid`.
        """
        query.check_time(t)
        return self.answer_grid([query], [t])[:, 0, 0]

    def answer_grid(self, queries, times) -> np.ndarray:
        """The full ``(R, n_queries, n_times)`` answer cube.

        Times before a query's ``min_time()`` are ``NaN``, matching the
        serial replication harness.  The workload compiles through
        :func:`repro.queries.plan.compile_cumulative` into one fancy-index
        gather over the table stack — integer arithmetic followed by one
        correctly-rounded division per cell, the arithmetic of a single
        :class:`~repro.core.cumulative.CumulativeRelease`.
        """
        queries = list(queries)
        times = [int(t) for t in times]
        lower, upper = compile_cumulative(queries, self.horizon)
        out = np.full(
            (self.n_reps, len(queries), len(times)), np.nan, dtype=np.float64
        )
        valid = [i for i, t in enumerate(times) if t >= 1]
        if not valid:
            return out
        # Queries whose thresholds all exceed the horizon compile entirely
        # to the virtual zero column and never validate t — mirror that.
        zero = self.horizon + 1
        if not ((lower != zero) | (upper != zero)).any():
            out[:, :, valid] = 0.0
            return out
        for i in valid:
            if not 1 <= times[i] <= self.horizon:
                raise ConfigurationError(
                    f"t must lie in [1, {self.horizon}], got {times[i]}"
                )
        t_arr = np.asarray([times[i] for i in valid], dtype=np.int64)
        augmented = np.concatenate(
            [self.tables, np.zeros(self.tables.shape[:2] + (1,), dtype=np.int64)],
            axis=2,
        )
        sub = augmented[:, t_arr, :]
        counts = sub[:, :, lower] - sub[:, :, upper]
        out[:, :, valid] = np.transpose(counts / self.n, (0, 2, 1))
        return out

    def check_invariants(self) -> bool:
        """Both monotonicity constraints hold in every replica's table."""
        return all(
            is_monotone_table(self.tables[r], population=self.n)
            for r in range(self.n_reps)
        )

    def __repr__(self) -> str:
        return (
            f"ReplicatedCumulativeRelease(n_reps={self.n_reps}, "
            f"T={self.horizon}, n={self.n})"
        )


def replicate_cumulative(
    dataset: LongitudinalDataset,
    n_reps: int,
    *,
    rho: float,
    counter: str = "binary_tree",
    budget="corollary_b1",
    seed: SeedLike = None,
) -> ReplicatedCumulativeRelease:
    """Run ``n_reps`` independent Algorithm-2 executions as one batch.

    Parameters mirror :class:`~repro.core.cumulative.CumulativeSynthesizer`
    (the horizon is taken from the dataset); ``budget`` additionally
    accepts an explicit per-threshold vector, which lets the replication
    harness reuse a probed synthesizer's allocation verbatim.  Requires a
    counter with a native vectorized bank (``binary_tree``, ``simple``,
    ``sqrt_factorization``); counters that only exist as scalar objects
    have no rep axis and replicate one repetition at a time.  The bank
    picks the noise by ``n_reps`` alone: a single run draws the noise a
    synthesizer draws (exact, but for ``sqrt_factorization``'s continuous
    Gaussian), and ``n_reps > 1`` draws the float rep-axis block, which is
    for accuracy studies only.
    """
    if n_reps <= 0:
        raise ConfigurationError(f"n_reps must be positive, got {n_reps}")
    if not rho > 0:
        raise ConfigurationError(f"rho must be positive (or math.inf), got {rho}")
    if counter not in available_counters():
        raise ConfigurationError(
            f"unknown counter {counter!r}; available: {sorted(available_counters())}"
        )
    horizon = dataset.horizon
    n = dataset.n_individuals
    if n <= 0:
        raise DataValidationError(f"need at least one individual, got n={n}")
    rho_per_threshold = allocate_budget(horizon, rho, budget)
    accountant = None if math.isinf(rho) else ZCDPAccountant(rho)
    generator = as_generator(seed)
    bank = make_bank(
        counter,
        horizon=horizon,
        rho_per_threshold=rho_per_threshold,
        seeds=generator,
        n_reps=n_reps,
    )

    tables = np.zeros((n_reps, horizon + 1, horizon + 1), dtype=np.int64)
    tables[:, :, 0] = n
    weights = np.zeros(n, dtype=np.int64)
    for t, column in enumerate(dataset.columns(), start=1):
        column = np.asarray(column, dtype=np.int64)
        # Stream increments z_b^t from the original data (shared by reps).
        z = stream_increments(weights, column, t)

        # Stage 1: one batched advance of every active counter, all reps.
        noisy = np.rint(np.atleast_2d(bank.feed(z))).astype(np.int64)
        if accountant is not None:
            # Threshold b = t activates this round; every replica charges
            # the same rho_b, so the shared ledger records it once.
            accountant.charge(
                float(rho_per_threshold[t - 1]), label=counter_charge_label(t)
            )

        # Stage 2: monotonize all reps against their previous rows.
        previous = tables[:, t - 1, : t + 1]
        tables[:, t, 1 : t + 1] = monotonize_rows(noisy, previous, population=n)
        tables[:, t, t + 1 :] = tables[:, t - 1, t + 1 :]

    return ReplicatedCumulativeRelease(tables, n, horizon, accountant)
