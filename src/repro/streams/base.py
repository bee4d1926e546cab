"""Abstract base class and accuracy contract for DP stream counters."""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.exceptions import ConfigurationError, SerializationError, StreamLengthError
from repro.rng import SeedLike, as_generator, generator_state, restore_generator_state

__all__ = ["StreamCounter", "CounterAccuracy"]


@dataclass(frozen=True)
class CounterAccuracy:
    """An ``(alpha, beta)`` accuracy statement for a stream counter.

    With probability at least ``1 - beta`` the counter's error satisfies
    ``|S~_t - S_t| <= alpha`` at any fixed time ``t`` (Definition A.1).  The
    ``alpha`` here is in *counts*, not fractions.
    """

    alpha: float
    beta: float


class StreamCounter(abc.ABC):
    """A ``rho``-zCDP estimator of running sums of a natural-number stream.

    Subclasses implement :meth:`_feed` (consume one element, return the new
    noisy prefix-sum estimate).  The base class validates inputs, tracks the
    clock, and provides batch helpers.

    Parameters
    ----------
    horizon:
        Maximum number of elements the counter will accept (``T``).  Known in
        advance, as in the paper's model.
    rho:
        Total zCDP budget for the entire output sequence.  ``math.inf`` is
        accepted and yields a noiseless counter (useful as an oracle in tests
        and for the non-private baseline).
    seed:
        Seed or :class:`numpy.random.Generator` for the noise stream; every
        discrete draw is exact.
    """

    def __init__(self, horizon: int, rho: float, seed: SeedLike = None):
        if horizon <= 0:
            raise ConfigurationError(f"horizon must be positive, got {horizon}")
        if not (rho > 0):
            raise ConfigurationError(f"rho must be positive (or math.inf), got {rho}")
        self.horizon = int(horizon)
        self.rho = float(rho)
        self._generator = as_generator(seed)
        self._t = 0
        self._true_sum = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    @property
    def t(self) -> int:
        """Number of stream elements consumed so far."""
        return self._t

    @property
    def true_sum(self) -> int:
        """The exact running sum (internal state; *not* a private output)."""
        return self._true_sum

    @property
    def noiseless(self) -> bool:
        """True when ``rho == inf`` and the counter adds no noise."""
        return math.isinf(self.rho)

    def feed(self, z: int) -> float:
        """Consume one stream element and return the noisy running sum."""
        z = int(z)
        if z < 0:
            raise ConfigurationError(f"stream elements must be non-negative, got {z}")
        if self._t >= self.horizon:
            raise StreamLengthError(
                f"counter with horizon {self.horizon} received element {self._t + 1}"
            )
        self._t += 1
        self._true_sum += z
        return self._feed(z)

    def run(self, stream: Iterable[int]) -> np.ndarray:
        """Feed an entire stream; return the vector of noisy prefix sums."""
        return np.array([self.feed(z) for z in stream], dtype=np.float64)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot the counter's full mid-stream state.

        Returns
        -------
        dict
            JSON-safe dict with the counter class name, clock, exact
            running sum, the noise generator's bit-generator state, and a
            subclass-specific ``payload`` (tree buffers, correlated-noise
            history, ...).  Feeding a restored counter produces exactly
            the bit stream the original would have produced — the
            :mod:`repro.serve` checkpoint contract.
        """
        return {
            "type": type(self).__name__,
            "t": int(self._t),
            "true_sum": int(self._true_sum),
            "generator": generator_state(self._generator),
            "payload": self._state_payload(),
        }

    def load_state(self, state: dict) -> None:
        """Restore a snapshot taken by :meth:`state_dict` in place.

        Parameters
        ----------
        state:
            A snapshot from a counter of the *same class* constructed with
            the same ``(horizon, rho)`` configuration.

        Raises
        ------
        repro.exceptions.SerializationError
            If the snapshot names a different counter class or is
            structurally invalid.
        """
        if not isinstance(state, dict):
            raise SerializationError(
                f"counter state must be a dict, got {type(state).__name__}"
            )
        declared = state.get("type")
        if declared != type(self).__name__:
            raise SerializationError(
                f"counter state for {declared!r} cannot be loaded into "
                f"a {type(self).__name__}"
            )
        try:
            t = int(state["t"])
            true_sum = int(state["true_sum"])
            generator = state["generator"]
            payload = state["payload"]
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(f"invalid counter state: {exc}") from exc
        if not 0 <= t <= self.horizon:
            raise SerializationError(
                f"counter clock {t} outside [0, horizon={self.horizon}]"
            )
        # Load order: payload buffers, then the generator, then the clock.
        # A snapshot rejected at any step never leaves the counter with a
        # repositioned noise stream behind an unchanged clock — the
        # silent-divergence case; buffer edits before a *generator*
        # rejection are moot because that rejection is always loud.
        try:
            self._load_payload(payload)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise SerializationError(f"invalid counter payload: {exc}") from exc
        restore_generator_state(self._generator, generator)
        self._t = t
        self._true_sum = true_sum

    def _state_payload(self) -> dict:
        """Subclass hook: extra JSON-safe state beyond the base fields."""
        return {}

    def _load_payload(self, payload: dict) -> None:
        """Subclass hook: restore what :meth:`_state_payload` captured."""

    # ------------------------------------------------------------------
    # Subclass contract
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def _feed(self, z: int) -> float:
        """Consume element ``z`` (clock already advanced); return estimate."""

    @abc.abstractmethod
    def error_stddev(self, t: int) -> float:
        """Standard deviation of the estimate error at time ``t``.

        Used by :mod:`repro.analysis.theory` to draw bound lines and by the
        ablation benchmarks to compare counters analytically.
        """

    def accuracy(self, beta: float, t: int | None = None) -> CounterAccuracy:
        """Gaussian tail ``(alpha, beta)`` bound at time ``t`` (default T)."""
        if not 0 < beta < 1:
            raise ConfigurationError(f"beta must lie in (0, 1), got {beta}")
        t = self.horizon if t is None else t
        sd = self.error_stddev(t)
        alpha = sd * math.sqrt(2.0 * math.log(2.0 / beta))
        return CounterAccuracy(alpha=alpha, beta=beta)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(horizon={self.horizon}, rho={self.rho}, "
            f"t={self._t})"
        )
