"""Vectorized counter banks: many stream counters as one batched state machine.

Algorithm 2 runs one DP stream counter per Hamming-weight threshold
``b = 1, ..., T``.  All of those counters are *homogeneous* — same
mechanism, staggered start times (counter ``b`` goes live at round ``b``),
heterogeneous noise scales (each threshold has its own ``rho_b`` from
:func:`repro.core.budget.allocate_budget`).  Executing them as ``T``
independent Python objects costs an O(T log T) interpreter hot path per
round; a :class:`CounterBank` advances the whole family in lockstep with
NumPy array operations and a *single* batched noise draw per round, via the
heterogeneous-scale :meth:`~repro.dp.discrete_gaussian.DiscreteGaussianSampler.sample_columns`
API.

Bank row ``r`` (0-indexed) is the counter for threshold ``b = r + 1``: it
has effective horizon ``T - r`` and activates at global round ``r + 1``
with local clock ``t_b = t - r``.  :meth:`CounterBank.feed` consumes the
length-``t`` increment vector ``z^t = (z_1^t, ..., z_t^t)`` at global round
``t`` and returns the noisy prefix-sum estimates for all active rows.

Native vectorized banks are provided for the binary-tree (Gaussian and
Laplace), simple, and square-root-factorization counters; every other
registered counter keeps working through :class:`FallbackBank`, which wraps
the scalar :class:`~repro.streams.base.StreamCounter` objects behind the
same interface.  In noiseless mode (``rho_b = inf``) every native bank is
bit-exact with its scalar counterpart — the equivalence tests in
``tests/streams/test_bank.py`` pin this down.

**Rep axis.**  Every native bank additionally accepts ``n_reps=R`` and then
runs ``R`` statistically independent replicas of the whole counter family
in lockstep: state arrays carry a leading rep axis, each round draws one
``(R, rows)`` noise block via the ``size``-aware
:meth:`~repro.dp.discrete_gaussian.DiscreteGaussianSampler.sample_columns`
API, and :meth:`CounterBank.feed` returns a ``(R, t)`` estimate matrix.
The increments are shared across replicas (all repetitions of a figure see
the same panel); only the noise differs.  This is the engine behind
``replicate_synthesizer(strategy="batched")``, which collapses the
1000-repetition Python loop of the paper's figures into one batched NumPy
state machine.  With ``n_reps=1`` (default) the public shapes and the
noise bit-stream are unchanged from the single-run bank.

**Row growth.**  :meth:`CounterBank.extend_rows` appends threshold rows
mid-stream — the bank half of dynamic-population horizon extension
(``CumulativeSynthesizer.extend_horizon``): existing rows' RNG streams
and calibrations are untouched, and the method returns the exact extra
zCDP each widened row realizes so the caller's accountant can charge it.
Native tree and simple banks support it; the square-root-factorization
bank and the scalar-wrapping fallback refuse (their noise state is
horizon-specific).
"""

from __future__ import annotations

import abc
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from repro.dp.discrete_gaussian import DiscreteGaussianSampler, calibrate_sigma_sq
from repro.dp.discrete_laplace import DiscreteLaplaceSampler, calibrate_laplace_scale
from repro.exceptions import ConfigurationError, SerializationError, StreamLengthError
from repro.rng import (
    SeedLike,
    as_generator,
    generator_state,
    restore_generator_state,
    spawn,
)
from repro.streams.layout import ArrayArena
from repro.streams.sqrt_factorization import sqrt_factorization_coefficients

__all__ = [
    "CounterBank",
    "BinaryTreeBank",
    "LaplaceTreeBank",
    "SimpleBank",
    "SqrtFactorizationBank",
    "FallbackBank",
]


class CounterBank(abc.ABC):
    """A batch of ``T`` staggered stream counters advanced in lockstep.

    Parameters
    ----------
    horizon:
        Global horizon ``T``; the bank holds one counter row per threshold
        ``b = 1..T``, row ``b - 1`` with effective horizon ``T - b + 1``.
    rho_per_threshold:
        Length-``T`` vector of per-row zCDP budgets (``math.inf`` entries
        yield noiseless rows).
    seeds:
        Either a single :data:`~repro.rng.SeedLike` (spawned into per-row
        children) or an explicit length-``T`` sequence of per-row seeds —
        the synthesizer passes its spawned counter seeds, so a fallback
        row ``b`` draws from the synthesizer's seed for threshold ``b``.
    noise_method:
        ``"exact"`` or ``"vectorized"`` noise backend, forwarded to the
        batched samplers (and to wrapped counters in the fallback).
    n_reps:
        Number of independent replicas advanced in lockstep (the rep
        axis).  With ``n_reps=1`` (default) :meth:`feed` returns the legacy
        ``(t,)`` vector; with ``n_reps=R > 1`` it returns ``(R, t)``.
    """

    def __init__(
        self,
        horizon: int,
        rho_per_threshold,
        seeds: SeedLike | Sequence = None,
        noise_method: str = "vectorized",
        n_reps: int = 1,
    ):
        if horizon <= 0:
            raise ConfigurationError(f"horizon must be positive, got {horizon}")
        if noise_method not in ("exact", "vectorized"):
            raise ConfigurationError(
                f"noise_method must be 'exact' or 'vectorized', got {noise_method!r}"
            )
        if n_reps < 1:
            raise ConfigurationError(f"n_reps must be >= 1, got {n_reps}")
        rho = np.asarray(rho_per_threshold, dtype=np.float64)
        if rho.shape != (horizon,):
            raise ConfigurationError(
                f"rho_per_threshold must have length T={horizon}, got shape {rho.shape}"
            )
        if not (rho > 0).all():
            raise ConfigurationError("every rho_b must be positive (or math.inf)")
        self.horizon = int(horizon)
        self.rho_per_threshold = rho
        self.noise_method = noise_method
        self.n_reps = int(n_reps)
        if isinstance(seeds, (list, tuple)):
            if len(seeds) != horizon:
                raise ConfigurationError(
                    f"seeds sequence must have length T={horizon}, got {len(seeds)}"
                )
            self._row_seeds = list(seeds)
        else:
            self._row_seeds = spawn(seeds, horizon)
        # Native banks draw all their noise from one generator; the
        # fallback hands each wrapped counter its own row seed instead.
        self._generator = as_generator(self._row_seeds[0])
        self._t = 0
        self._true_sums = np.zeros(horizon, dtype=np.int64)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    @property
    def t(self) -> int:
        """Global rounds consumed so far (== number of active rows)."""
        return self._t

    @property
    def active(self) -> int:
        """Number of live rows: row ``b - 1`` activates at round ``b``."""
        return self._t

    @property
    def true_sums(self) -> np.ndarray:
        """Exact per-row running sums (internal state, *not* private)."""
        return self._true_sums.copy()

    def row_horizons(self) -> np.ndarray:
        """Effective horizon ``T - b + 1`` per row, indexed by ``b - 1``."""
        return self.horizon - np.arange(self.horizon, dtype=np.int64)

    def feed(self, z) -> np.ndarray:
        """Advance one global round.

        ``z`` must be the length-``t`` increment vector for the new round
        ``t`` (``z[b-1]`` feeds threshold ``b``'s counter; the row for
        ``b = t`` activates this round and receives its first element).
        The increments are shared by every replica.  Returns the float64
        noisy prefix-sum estimates for rows ``b = 1..t`` — shape ``(t,)``
        for ``n_reps == 1``, ``(n_reps, t)`` otherwise.
        """
        if self._t >= self.horizon:
            raise StreamLengthError(
                f"bank with horizon {self.horizon} received round {self._t + 1}"
            )
        t = self._t + 1
        z = np.asarray(z)
        if z.shape != (t,):
            raise ConfigurationError(
                f"round {t} expects an increment vector of shape ({t},), got {z.shape}"
            )
        z = z.astype(np.int64)
        if (z < 0).any():
            raise ConfigurationError("stream increments must be non-negative")
        self._t = t
        self._true_sums[:t] += z
        estimates = np.asarray(self._feed(z), dtype=np.float64)
        if estimates.shape == (t,):
            estimates = estimates[None, :]
        if estimates.shape != (self.n_reps, t):
            raise ConfigurationError(
                f"bank produced shape {estimates.shape}, expected ({self.n_reps}, {t})"
            )
        return estimates[0] if self.n_reps == 1 else estimates

    def run(self, increments: np.ndarray) -> np.ndarray:
        """Feed a full ``(T, T)`` lower-triangular increment table.

        ``increments[t-1, :t]`` is the round-``t`` vector; returns the
        ``(T, T)`` table of estimates (row ``t-1`` holds rounds ``1..t``,
        zero above the diagonal), with a leading rep axis when
        ``n_reps > 1``.  Convenience driver for tests and benchmarks.
        """
        increments = np.asarray(increments, dtype=np.int64)
        if increments.shape != (self.horizon, self.horizon):
            raise ConfigurationError(
                f"increment table must be (T, T)={self.horizon, self.horizon}, "
                f"got {increments.shape}"
            )
        out = np.zeros((self.n_reps, self.horizon, self.horizon), dtype=np.float64)
        for t in range(1, self.horizon + 1):
            out[:, t - 1, :t] = self.feed(increments[t - 1, :t])
        return out[0] if self.n_reps == 1 else out

    def extend_rows(self, k: int, rho_new) -> np.ndarray:
        """Grow the bank by ``k`` rows, extending the horizon to ``T + k``.

        Appends counter state for thresholds ``T+1 .. T+k`` (each
        calibrated for its activation-to-end stream) and widens every
        existing row's capacity to the new horizon **without perturbing
        existing rows' RNG streams**: no randomness is consumed, no
        buffer is reseeded or repositioned, and the per-row noise
        calibration already in force is kept.  Because a longer stream
        touches more noisy state at that unchanged calibration, each
        existing row's zCDP guarantee weakens; the exact additional cost
        per row is returned so the caller's accountant can charge it —
        this is the churn-aware half of dynamic-population accounting
        (a panel that outlives its planned horizon as the population
        churns).

        Parameters
        ----------
        k:
            Number of appended rows (and extra rounds); positive.
        rho_new:
            Length-``k`` per-row zCDP budgets for the new thresholds
            (``math.inf`` entries yield noiseless rows).

        Returns
        -------
        numpy.ndarray
            Length-``T`` (old horizon) vector of *additional* zCDP each
            existing row's extended stream costs under its unchanged
            calibration; 0 for noiseless rows.

        Raises
        ------
        repro.exceptions.ConfigurationError
            If ``k`` is not positive, ``rho_new`` is malformed, or this
            bank class does not support row growth
            (:class:`SqrtFactorizationBank`'s noise factorization and
            :class:`FallbackBank`'s wrapped scalar counters are
            horizon-specific).
        """
        if not self._supports_extension:
            raise ConfigurationError(
                f"{type(self).__name__} does not support extend_rows: its noise "
                "state is calibrated for a fixed horizon"
            )
        if k <= 0:
            raise ConfigurationError(f"k must be positive, got {k}")
        rho_new = np.asarray(rho_new, dtype=np.float64)
        if rho_new.shape != (k,):
            raise ConfigurationError(
                f"rho_new must have length k={k}, got shape {rho_new.shape}"
            )
        if not (rho_new > 0).all():
            raise ConfigurationError("every new rho_b must be positive (or math.inf)")
        old_horizon = self.horizon
        old_lengths = self.row_horizons()
        self.horizon = old_horizon + int(k)
        self.rho_per_threshold = np.concatenate([self.rho_per_threshold, rho_new])
        self._true_sums = np.concatenate(
            [self._true_sums, np.zeros(k, dtype=np.int64)]
        )
        return self._extend_rows_extra(int(k), old_horizon, old_lengths)

    #: Subclasses with horizon-extensible noise state flip this on.
    _supports_extension = False

    def _extend_rows_extra(
        self, k: int, old_horizon: int, old_lengths: np.ndarray
    ) -> np.ndarray:
        """Subclass hook: grow state arrays; return per-old-row extra rho."""
        raise NotImplementedError  # pragma: no cover - guarded by extend_rows

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(horizon={self.horizon}, t={self._t}, "
            f"noise_method={self.noise_method!r})"
        )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def state_dict(self, *, copy: bool = True) -> dict:
        """Snapshot the bank's full mid-stream state.

        Parameters
        ----------
        copy:
            Copy the state arrays into the snapshot (default, safe to
            hold across further rounds).  ``copy=False`` returns live
            views of the bank's buffers instead — the streaming
            checkpoint writer uses this to spool arrays into the bundle
            without materializing a second copy of the bank state; such a
            snapshot must be fully consumed before the bank advances.

        Returns
        -------
        dict
            The bank class name, global clock, exact per-row running sums
            (``int64`` array), the noise generator's bit-generator state,
            and subclass-specific buffers (tree levels, correlated-noise
            history, wrapped-counter states).  Array values stay NumPy
            arrays — the :mod:`repro.serve` checkpoint layer routes them
            into the bundle's array members.  A restored bank continues
            the stream with byte-identical noise draws.
        """
        return {
            "type": type(self).__name__,
            "t": int(self._t),
            "true_sums": self._true_sums.copy() if copy else self._true_sums,
            "generator": generator_state(self._generator),
            "extra": self._state_extra(copy),
        }

    def load_state(self, state: dict) -> None:
        """Restore a snapshot taken by :meth:`state_dict` in place.

        Parameters
        ----------
        state:
            A snapshot from a bank of the same class, built with the same
            ``(horizon, rho_per_threshold, noise_method, n_reps)``.

        Raises
        ------
        repro.exceptions.SerializationError
            If the snapshot names a different bank class, its clock lies
            outside ``[0, horizon]``, or a state array has the wrong
            shape.
        """
        if not isinstance(state, dict):
            raise SerializationError(
                f"bank state must be a dict, got {type(state).__name__}"
            )
        declared = state.get("type")
        if declared != type(self).__name__:
            raise SerializationError(
                f"bank state for {declared!r} cannot be loaded into "
                f"a {type(self).__name__}"
            )
        try:
            t = int(state["t"])
            # Copy: a restored bank must never alias (and later mutate in
            # place) the arrays of the snapshot it was built from.
            true_sums = np.array(state["true_sums"], dtype=np.int64)
            generator = state["generator"]
            extra = state["extra"]
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(f"invalid bank state: {exc}") from exc
        if not 0 <= t <= self.horizon:
            raise SerializationError(
                f"bank clock {t} outside [0, horizon={self.horizon}]"
            )
        if true_sums.shape != self._true_sums.shape:
            raise SerializationError(
                f"true_sums has shape {true_sums.shape}, "
                f"expected {self._true_sums.shape}"
            )
        self._t = t
        self._true_sums = true_sums
        self._load_extra(extra)
        # Generator last: a snapshot rejected above never leaves the bank
        # with a repositioned noise stream (the silent-divergence case).
        restore_generator_state(self._generator, generator)

    def _state_extra(self, copy: bool = True) -> dict:
        """Subclass hook: state beyond the base fields (arrays allowed).

        ``copy=False`` may return live views of the bank's buffers (see
        :meth:`state_dict`).
        """
        return {}

    def _load_extra(self, extra: dict) -> None:
        """Subclass hook: restore what :meth:`_state_extra` captured."""

    def _require_array(self, extra: dict, key: str, like: np.ndarray) -> np.ndarray:
        """Fetch ``extra[key]`` as a fresh array shaped/typed like ``like``."""
        try:
            array = np.array(extra[key], dtype=like.dtype)  # copy: never alias
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(f"invalid bank state array {key!r}: {exc}") from exc
        if array.shape != like.shape:
            raise SerializationError(
                f"bank state array {key!r} has shape {array.shape}, "
                f"expected {like.shape}"
            )
        return array

    # ------------------------------------------------------------------
    # Subclass contract
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def _feed(self, z: np.ndarray) -> np.ndarray:
        """Consume the round-``t`` increments (clock already advanced)."""

    @abc.abstractmethod
    def error_stddev(self, b: int, t: int) -> float:
        """Stddev of threshold ``b``'s estimate at *local* stream time ``t``.

        Mirrors :meth:`repro.streams.base.StreamCounter.error_stddev` row
        by row; used by the confidence-interval machinery.
        """

    def _check_row(self, b: int) -> None:
        if not 1 <= b <= self.horizon:
            raise ConfigurationError(f"b must lie in [1, {self.horizon}], got {b}")

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------

    def _rep_noise(self, sampler, scales) -> np.ndarray:
        """One ``(n_reps, len(scales))`` heterogeneous draw.

        The ``n_reps == 1`` arm calls the legacy 1-D ``sample_columns``
        path so a single-run bank consumes exactly the PR-1 bit-stream;
        the replicated arm uses the ``size``-aware batched API.  All
        native banks draw through this helper so the two arms cannot
        drift per bank.
        """
        if self.n_reps == 1:
            return sampler.sample_columns(scales)[None, :]
        return sampler.sample_columns(scales, size=self.n_reps)

    def _gaussian_sigma_sq_rows(self, numerators, rho_rows=None) -> list[Fraction]:
        """Per-row ``numerator / (2 rho_b)`` variances as exact Fractions.

        The scalar counters' calibration (:func:`calibrate_sigma_sq`, never
        below the exact value), so exact-mode noise has the same
        distribution as the scalar counters'.  ``rho_rows`` defaults to the
        full per-threshold budget vector; :meth:`extend_rows` passes just
        the appended rows' budgets.
        """
        if rho_rows is None:
            rho_rows = self.rho_per_threshold
        return [
            Fraction(0) if math.isinf(rho_b) else calibrate_sigma_sq(int(numerator), rho_b)
            for numerator, rho_b in zip(numerators, rho_rows)
        ]


class _TreeBankCore(CounterBank):
    """Shared batched state machine for binary-tree-shaped banks.

    Row ``r`` mirrors Algorithm 3's streaming form at its local clock
    ``t_r = t - r``: level-``j`` buffers ``alpha[rep, r, j]`` accumulate
    partial sums, a completed level folds all lower levels, and the estimate
    sums the noisy buffers selected by the binary representation of ``t_r``.
    All rows — and all replicas along the leading rep axis — fold, draw
    noise, and read out together; the fold pattern depends only on the
    clock, so it is shared across replicas and only the noise block is
    per-rep.
    """

    def __init__(
        self, horizon, rho_per_threshold, seeds=None, noise_method="vectorized", n_reps=1
    ):
        super().__init__(
            horizon, rho_per_threshold, seeds=seeds, noise_method=noise_method,
            n_reps=n_reps,
        )
        lengths = self.row_horizons()
        self.levels = np.array([int(n).bit_length() for n in lengths], dtype=np.int64)
        n_levels = int(self.levels[0])  # row 0 has the longest stream
        # Both level-buffer families live in one contiguous arena block,
        # column-major, so a shard's whole tree state is a single buffer
        # (snapshot-able, shareable across processes).
        self._arena = self._tree_arena(n_levels)
        self._alpha = self._arena["alpha"]
        self._alpha_noisy = self._arena["alpha_noisy"]
        self._level_idx = np.arange(n_levels, dtype=np.int64)

    def _tree_arena(self, n_levels: int) -> ArrayArena:
        """One contiguous block for both level-buffer families."""
        shape = (self.n_reps, self.horizon, n_levels)
        return ArrayArena(
            [("alpha", shape, np.int64, "F"), ("alpha_noisy", shape, np.int64, "F")]
        )

    def _feed(self, z: np.ndarray) -> np.ndarray:
        t = self._t
        local = t - np.arange(t, dtype=np.int64)  # local clocks, rows 0..t-1
        lowest = local & -local
        fold_level = np.round(np.log2(lowest)).astype(np.int64)

        alpha = self._alpha[:, :t]  # (R, t, L) views into the state
        alpha_noisy = self._alpha_noisy[:, :t]
        rows = np.arange(t)
        # sum of levels below the fold target, via per-row prefix sums
        prefix = np.cumsum(alpha, axis=2)
        below = np.where(
            fold_level[None, :] > 0,
            prefix[:, rows, np.maximum(fold_level - 1, 0)],
            0,
        )
        folded = below + z[None, :]
        clear = self._level_idx[None, :] < fold_level[:, None]  # (t, L)
        alpha[:, clear] = 0
        alpha_noisy[:, clear] = 0
        alpha[:, rows, fold_level] = folded
        noise = self._round_noise(t)
        alpha_noisy[:, rows, fold_level] = folded + noise
        # Dyadic decomposition of [1, t_r] = the set bits of the local clock.
        bits = (local[:, None] >> self._level_idx[None, :]) & 1
        return (alpha_noisy * bits[None, :, :]).sum(axis=2).astype(np.float64)

    _supports_extension = True

    def _extend_rows_extra(
        self, k: int, old_horizon: int, old_lengths: np.ndarray
    ) -> np.ndarray:
        old_levels = self.levels
        lengths = self.row_horizons()
        self.levels = np.array([int(n).bit_length() for n in lengths], dtype=np.int64)
        n_levels = int(self.levels[0])
        # Appending rows and (zero) level buffers preserves every existing
        # buffer value in place; deeper local clocks of the widened rows
        # simply start folding into the fresh columns.  The arena cannot
        # grow, so the extension builds one for the new layout and copies.
        grown_arena = self._tree_arena(n_levels)
        grown = grown_arena["alpha"]
        grown[:, :old_horizon, : self._alpha.shape[2]] = self._alpha
        grown_noisy = grown_arena["alpha_noisy"]
        grown_noisy[:, :old_horizon, : self._alpha_noisy.shape[2]] = self._alpha_noisy
        self._arena = grown_arena
        self._alpha, self._alpha_noisy = grown, grown_noisy
        self._level_idx = np.arange(n_levels, dtype=np.int64)
        extra = self._extension_cost(old_levels, self.levels[:old_horizon])
        self._append_rows_noise(k)
        return extra

    @abc.abstractmethod
    def _extension_cost(
        self, old_levels: np.ndarray, new_levels: np.ndarray
    ) -> np.ndarray:
        """Extra zCDP per existing row when its tree gains levels."""

    @abc.abstractmethod
    def _append_rows_noise(self, k: int) -> None:
        """Append the noise calibration for the ``k`` new rows."""

    def _state_extra(self, copy: bool = True) -> dict:
        if not copy:
            return {"alpha": self._alpha, "alpha_noisy": self._alpha_noisy}
        return {
            "alpha": self._alpha.copy(),
            "alpha_noisy": self._alpha_noisy.copy(),
        }

    def _load_extra(self, extra: dict) -> None:
        # Copy *into* the arena views: restoring must not unhook the
        # state from its contiguous backing block.
        self._alpha[...] = self._require_array(extra, "alpha", self._alpha)
        self._alpha_noisy[...] = self._require_array(
            extra, "alpha_noisy", self._alpha_noisy
        )

    @abc.abstractmethod
    def _round_noise(self, t: int) -> np.ndarray:
        """One fresh noise block per round: int64 ``(n_reps, t)``."""

    @abc.abstractmethod
    def _node_variance(self, b: int) -> float:
        """Per-node noise variance of threshold ``b``'s tree."""

    def error_stddev(self, b: int, t: int) -> float:
        """``sqrt(popcount(t) * node_variance)`` — one node per set bit."""
        self._check_row(b)
        if t <= 0:
            return 0.0
        return math.sqrt(int(t).bit_count() * self._node_variance(b))


class BinaryTreeBank(_TreeBankCore):
    """Batched :class:`~repro.streams.binary_tree.BinaryTreeCounter` rows.

    Per-row noise variance ``L_b / (2 rho_b)`` with ``L_b`` the row's own
    dyadic level count — exactly the scalar counter's calibration.
    """

    def __init__(
        self, horizon, rho_per_threshold, seeds=None, noise_method="vectorized", n_reps=1
    ):
        super().__init__(
            horizon, rho_per_threshold, seeds=seeds, noise_method=noise_method,
            n_reps=n_reps,
        )
        self.sigma_sq_rows = self._gaussian_sigma_sq_rows(self.levels)
        self._sigma_sq_float = np.array(
            [float(s) for s in self.sigma_sq_rows], dtype=np.float64
        )
        self._sampler = DiscreteGaussianSampler(
            0, seed=self._generator, method=self.noise_method
        )

    def _round_noise(self, t: int) -> np.ndarray:
        scales = (
            self.sigma_sq_rows[:t]
            if self.noise_method == "exact"
            else self._sigma_sq_float[:t]
        )
        return self._rep_noise(self._sampler, scales)

    def _node_variance(self, b: int) -> float:
        return float(self._sigma_sq_float[b - 1])

    def _extension_cost(
        self, old_levels: np.ndarray, new_levels: np.ndarray
    ) -> np.ndarray:
        # sigma^2 = L / (2 rho) stays fixed, so a stream touching L' > L
        # levels realizes rho' = rho L'/L; the difference is the charge.
        extra = np.zeros(old_levels.shape[0], dtype=np.float64)
        finite = np.isfinite(self.rho_per_threshold[: old_levels.shape[0]])
        extra[finite] = (
            self.rho_per_threshold[: old_levels.shape[0]][finite]
            * (new_levels[finite] - old_levels[finite])
            / old_levels[finite]
        )
        return extra

    def _append_rows_noise(self, k: int) -> None:
        appended = self._gaussian_sigma_sq_rows(
            self.levels[-k:], self.rho_per_threshold[-k:]
        )
        self.sigma_sq_rows = list(self.sigma_sq_rows) + appended
        self._sigma_sq_float = np.concatenate(
            [self._sigma_sq_float, np.array([float(s) for s in appended])]
        )


class LaplaceTreeBank(_TreeBankCore):
    """Batched :class:`~repro.streams.laplace_tree.LaplaceTreeCounter` rows.

    Per-row discrete Laplace scale ``L_b / eps_b`` with
    ``eps_b = sqrt(2 rho_b)``, rounded up by
    :func:`~repro.dp.discrete_laplace.calibrate_laplace_scale` — the
    pure-DP tree variant.
    """

    def __init__(
        self, horizon, rho_per_threshold, seeds=None, noise_method="vectorized", n_reps=1
    ):
        super().__init__(
            horizon, rho_per_threshold, seeds=seeds, noise_method=noise_method,
            n_reps=n_reps,
        )
        self.scale_rows = self._calibrate(self.levels, self.rho_per_threshold)
        self._scale_float = np.array([float(s) for s in self.scale_rows], dtype=np.float64)
        self._sampler = DiscreteLaplaceSampler(
            1, seed=self._generator, method=self.noise_method
        )

    @staticmethod
    def _calibrate(levels, rho_rows) -> list[Fraction]:
        """Per-row scales; noiseless (``rho = inf``) rows get 0."""
        return [
            Fraction(0) if math.isinf(rho_b) else calibrate_laplace_scale(int(levels_b), rho_b)
            for levels_b, rho_b in zip(levels, rho_rows)
        ]

    def _round_noise(self, t: int) -> np.ndarray:
        scales = (
            self.scale_rows[:t] if self.noise_method == "exact" else self._scale_float[:t]
        )
        return self._rep_noise(self._sampler, scales)

    def _node_variance(self, b: int) -> float:
        scale = float(self._scale_float[b - 1])
        if scale == 0:
            return 0.0
        p = math.exp(-1.0 / scale)
        return 2.0 * p / (1.0 - p) ** 2

    def _extension_cost(
        self, old_levels: np.ndarray, new_levels: np.ndarray
    ) -> np.ndarray:
        # The per-node scale L/eps stays fixed, so a stream touching
        # L' > L nodes realizes eps' = eps L'/L (pure-DP composition) and
        # rho' = eps'^2/2 = rho (L'/L)^2; the difference is the charge.
        extra = np.zeros(old_levels.shape[0], dtype=np.float64)
        finite = np.isfinite(self.rho_per_threshold[: old_levels.shape[0]])
        ratio = new_levels[finite] / old_levels[finite]
        extra[finite] = self.rho_per_threshold[: old_levels.shape[0]][finite] * (
            ratio**2 - 1.0
        )
        return extra

    def _append_rows_noise(self, k: int) -> None:
        appended = self._calibrate(self.levels[-k:], self.rho_per_threshold[-k:])
        self.scale_rows = list(self.scale_rows) + appended
        self._scale_float = np.concatenate(
            [self._scale_float, np.array([float(s) for s in appended])]
        )


class SimpleBank(CounterBank):
    """Batched :class:`~repro.streams.simple.SimpleCounter` rows.

    Fresh per-row noise on every prefix sum at variance
    ``(T - b + 1) / (2 rho_b)`` — the naive ``sqrt(T)`` baseline, now one
    vector add plus one batched draw per round.
    """

    def __init__(
        self, horizon, rho_per_threshold, seeds=None, noise_method="vectorized", n_reps=1
    ):
        super().__init__(
            horizon, rho_per_threshold, seeds=seeds, noise_method=noise_method,
            n_reps=n_reps,
        )
        self.sigma_sq_rows = self._gaussian_sigma_sq_rows(self.row_horizons())
        self._sigma_sq_float = np.array(
            [float(s) for s in self.sigma_sq_rows], dtype=np.float64
        )
        self._sampler = DiscreteGaussianSampler(
            0, seed=self._generator, method=self.noise_method
        )

    def _feed(self, z: np.ndarray) -> np.ndarray:
        t = self._t
        scales = (
            self.sigma_sq_rows[:t]
            if self.noise_method == "exact"
            else self._sigma_sq_float[:t]
        )
        noise = self._rep_noise(self._sampler, scales)
        return (self._true_sums[:t][None, :] + noise).astype(np.float64)

    def error_stddev(self, b: int, t: int) -> float:
        self._check_row(b)
        return math.sqrt(float(self._sigma_sq_float[b - 1]))

    _supports_extension = True

    def _extend_rows_extra(
        self, k: int, old_horizon: int, old_lengths: np.ndarray
    ) -> np.ndarray:
        # Fresh noise per release at fixed sigma^2 = len/(2 rho): each of
        # the k extra releases costs rho/len more, per existing row.
        rho_old = self.rho_per_threshold[:old_horizon]
        extra = np.zeros(old_horizon, dtype=np.float64)
        finite = np.isfinite(rho_old)
        extra[finite] = k * rho_old[finite] / old_lengths[finite]
        appended = self._gaussian_sigma_sq_rows(
            self.row_horizons()[-k:], self.rho_per_threshold[-k:]
        )
        self.sigma_sq_rows = list(self.sigma_sq_rows) + appended
        self._sigma_sq_float = np.concatenate(
            [self._sigma_sq_float, np.array([float(s) for s in appended])]
        )
        return extra


class SqrtFactorizationBank(CounterBank):
    """Batched :class:`~repro.streams.sqrt_factorization.SqrtFactorizationCounter` rows.

    Row ``r``'s correlated noise at global round ``t`` is
    ``sum_s f_{t-s} xi[rep, r, s]`` over the rounds ``s`` since its
    activation; storing the i.i.d. draws ``xi`` aligned by *global* round
    (zero before activation) turns all rows' correlations into one
    matrix-vector product with the reversed coefficient prefix, batched
    over the rep axis.  Note the replicated state is ``(R, T, T)`` floats —
    size the rep count accordingly for very long horizons.
    """

    def __init__(
        self, horizon, rho_per_threshold, seeds=None, noise_method="vectorized", n_reps=1
    ):
        super().__init__(
            horizon, rho_per_threshold, seeds=seeds, noise_method=noise_method,
            n_reps=n_reps,
        )
        self.coefficients = sqrt_factorization_coefficients(self.horizon)
        norm_sq = np.cumsum(self.coefficients**2)
        col_norm_sq = norm_sq[self.row_horizons() - 1]
        with np.errstate(divide="ignore"):
            sigma_sq = np.where(
                np.isinf(self.rho_per_threshold),
                0.0,
                col_norm_sq / (2.0 * self.rho_per_threshold),
            )
        self.sigma_rows = np.sqrt(sigma_sq)
        self._noiseless = bool((self.sigma_rows == 0).all())
        self._arena = ArrayArena(
            [("xi", (self.n_reps, self.horizon, self.horizon), np.float64, "F")]
        )
        self._xi = self._arena["xi"]

    def _feed(self, z: np.ndarray) -> np.ndarray:
        t = self._t
        if self._noiseless:
            return np.tile(self._true_sums[:t].astype(np.float64), (self.n_reps, 1))
        if self.n_reps == 1:
            # Keep the exact single-run draw call (and bit-stream) of PR 1.
            self._xi[0, :t, t - 1] = self._generator.normal(0.0, self.sigma_rows[:t])
        else:
            self._xi[:, :t, t - 1] = self._generator.normal(
                0.0, self.sigma_rows[:t], size=(self.n_reps, t)
            )
        correlated = self._xi[:, :t, :t] @ self.coefficients[:t][::-1]
        return self._true_sums[:t][None, :] + correlated

    def _state_extra(self, copy: bool = True) -> dict:
        return {"xi": self._xi.copy() if copy else self._xi}

    def _load_extra(self, extra: dict) -> None:
        self._xi[...] = self._require_array(extra, "xi", self._xi)

    def error_stddev(self, b: int, t: int) -> float:
        self._check_row(b)
        sigma = float(self.sigma_rows[b - 1])
        if t <= 0 or sigma == 0:
            return 0.0
        prefix_norm_sq = float(np.sum(self.coefficients[:t] ** 2))
        return sigma * math.sqrt(prefix_norm_sq)


class FallbackBank(CounterBank):
    """Adapter running any registered scalar counter behind the bank API.

    Keeps every registered counter name (and any ``counter_kwargs``)
    usable in :class:`~repro.core.cumulative.CumulativeSynthesizer`: row
    ``b`` is a scalar :class:`~repro.streams.base.StreamCounter` created
    at round ``b`` and seeded with the bank's row seed ``b - 1``, so each
    row runs exactly the per-threshold counter Algorithm 2 describes.
    The per-round cost stays one Python call per active row, which is
    what the native banks above eliminate.
    """

    def __init__(
        self,
        horizon,
        rho_per_threshold,
        seeds=None,
        noise_method="vectorized",
        n_reps: int = 1,
        counter: str = "binary_tree",
        counter_kwargs: dict | None = None,
    ):
        if n_reps != 1:
            raise ConfigurationError(
                f"FallbackBank wraps scalar counters and has no rep axis; "
                f"n_reps must be 1, got {n_reps} (counter {counter!r} has no "
                "native vectorized bank)"
            )
        super().__init__(horizon, rho_per_threshold, seeds=seeds, noise_method=noise_method)
        self.counter_name = counter
        self._counter_kwargs = dict(counter_kwargs or {})
        self._counters: list = []

    @property
    def counters(self) -> tuple:
        """The wrapped scalar counters, indexed by ``b - 1`` (active rows)."""
        return tuple(self._counters)

    def _feed(self, z: np.ndarray) -> np.ndarray:
        from repro.streams.registry import make_counter

        t = self._t
        self._counters.append(
            make_counter(
                self.counter_name,
                horizon=self.horizon - t + 1,
                rho=float(self.rho_per_threshold[t - 1]),
                seed=self._row_seeds[t - 1],
                noise_method=self.noise_method,
                **self._counter_kwargs,
            )
        )
        return np.array(
            [counter.feed(int(z_b)) for counter, z_b in zip(self._counters, z)],
            dtype=np.float64,
        )

    def _state_extra(self, copy: bool = True) -> dict:
        # Wrapped scalar counters serialize through their own state_dict
        # (JSON-safe payloads, keyed by row index as a string).  Rows that
        # have not activated yet will draw from their row-seed generators
        # later, so those bit states must travel too — otherwise a restore
        # into a differently-seeded host bank diverges from round t+1 on.
        # (Non-Generator row seeds — ints, SeedSequences — are immutable
        # and rebuild deterministically, so only Generators are captured.)
        return {
            "counters": {
                str(index): counter.state_dict()
                for index, counter in enumerate(self._counters)
            },
            "row_seed_states": {
                str(index): generator_state(seed)
                for index, seed in enumerate(self._row_seeds)
                if isinstance(seed, np.random.Generator)
            },
        }

    def _load_extra(self, extra: dict) -> None:
        from repro.streams.registry import restore_counter

        try:
            payloads = dict(extra["counters"])
            row_keys = sorted(int(k) for k in payloads)
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(f"invalid fallback-bank state: {exc}") from exc
        if row_keys != list(range(len(payloads))):
            raise SerializationError(
                f"fallback-bank counter states must cover rows 0..{len(payloads) - 1}"
            )
        # One counter activates per round, so the restored clock (set by
        # load_state before this hook runs) pins the expected row count.
        if len(payloads) != self._t:
            raise SerializationError(
                f"fallback-bank state holds {len(payloads)} counters at "
                f"clock t={self._t}; expected exactly {self._t}"
            )
        for key, seed_state in dict(extra.get("row_seed_states", {})).items():
            try:
                index = int(key)
                seed = self._row_seeds[index]
            except (ValueError, IndexError) as exc:
                raise SerializationError(
                    f"invalid fallback-bank row-seed entry {key!r}: {exc}"
                ) from exc
            if isinstance(seed, np.random.Generator):
                restore_generator_state(seed, seed_state)
        self._counters = [
            restore_counter(
                self.counter_name,
                horizon=self.horizon - index,
                rho=float(self.rho_per_threshold[index]),
                seed=self._row_seeds[index],
                noise_method=self.noise_method,
                payload=payloads[str(index)],
                counter_kwargs=self._counter_kwargs,
            )
            for index in range(len(payloads))
        ]

    def error_stddev(self, b: int, t: int) -> float:
        self._check_row(b)
        if b <= len(self._counters):
            return self._counters[b - 1].error_stddev(t)
        # Row not yet active: the bound is analytic, so a throwaway
        # instance (no noise is drawn) answers for it.
        from repro.streams.registry import make_counter

        probe = make_counter(
            self.counter_name,
            horizon=self.horizon - b + 1,
            rho=float(self.rho_per_threshold[b - 1]),
            seed=0,
            noise_method=self.noise_method,
            **self._counter_kwargs,
        )
        return probe.error_stddev(t)
