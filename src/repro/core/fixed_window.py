"""Algorithm 1: continual DP synthetic data for fixed time window queries.

Per update step ``t = k, ..., T`` the synthesizer

1. counts the length-``k`` window patterns in the original data and releases
   a noisy padded histogram
   ``C^_s^t = C_s^t + n_pad + N_Z(0, (T-k+1)/(2 rho))`` per bin
   (stage 1 — :class:`~repro.dp.mechanisms.GaussianHistogramMechanism`);
2. projects the noisy histogram onto the overlap-consistency constraint set
   (stage 2 — :func:`~repro.core.consistency.apply_overlap_correction`) and
   extends every synthetic record by one bit so the synthetic window
   histogram equals the projected counts exactly
   (:class:`~repro.core.synthetic_store.WindowSyntheticStore`).

The whole run satisfies ``rho``-zCDP (Theorem 3.1); every bin count is
within the Theorem 3.2 bound of ``C_s^t + n_pad`` with probability
``1 - beta``, and the debiased answers are unbiased (§3.2).

Structurally, :class:`FixedWindowSynthesizer` is the ``q = 2``
specialization of the alphabet-generic
:class:`~repro.core.window_engine.WindowEngine`: it pins the paper's fair
``+-1/2`` pair rounding and the binary column validation, and its outputs
are bit-exact — noise draws and zCDP ledger included — with the
pre-engine standalone implementation.  The multi-category instantiation
is :class:`~repro.core.categorical_window.CategoricalWindowSynthesizer`.

Typical use::

    synth = FixedWindowSynthesizer(horizon=12, window=3, rho=0.005, seed=0)
    release = synth.run(panel)                      # batch
    release.answer(AtLeastMOnes(3, 1), t=6)         # debiased by default

or streaming, one report vector per round::

    for column in panel.columns():
        synth.observe(column)
    release = synth.release
"""

from __future__ import annotations

import numpy as np

from repro.core.debias import debias_count_answer, lift_window_weights
from repro.core.population import validate_binary_column
from repro.core.window_engine import WindowEngine, WindowRelease
from repro.data.dataset import LongitudinalDataset
from repro.exceptions import (
    ConfigurationError,
    DataValidationError,
    NotFittedError,
    SerializationError,
)
from repro.queries.base import WindowQuery
from repro.queries.plan import query_signature
from repro.rng import SeedLike

__all__ = ["FixedWindowSynthesizer", "FixedWindowRelease"]


class FixedWindowRelease(WindowRelease):
    """The public artifact of a fixed-window run.

    Wraps the synthetic panel, the per-round target histograms, and the
    public padding parameters; answers any window query of width at most
    ``k`` directly from the maintained histograms (debiased by default) and
    wider queries from the records themselves.  The metadata and
    churn-aware population surface is the shared
    :class:`~repro.core.window_engine.WindowRelease`.

    Parameters
    ----------
    synthesizer:
        The owning :class:`FixedWindowSynthesizer`; the release is a
        live view of its state (one cached instance per synthesizer),
        not a frozen copy.
    """

    def synthetic_data(self, t: int | None = None) -> LongitudinalDataset:
        """The synthetic panel through round ``t`` (default: latest)."""
        store = self._synth._store
        if store is None:
            raise NotFittedError("the first update step has not run yet")
        return store.as_dataset(t)

    # -- query answering -----------------------------------------------

    def answer(
        self,
        query: WindowQuery,
        t: int,
        debias: bool = True,
        padding_convention: str = "uniform",
    ) -> float:
        """Answer a window query at round ``t``.

        Queries of width ``k' <= k`` are answered from the maintained
        width-``k`` histogram (exactly equal to evaluating on the records).
        With ``debias`` (default) the publicly known padding contribution is
        subtracted and the answer renormalized by ``n`` — the §3.2
        estimator; otherwise the biased ``fraction-of-n*`` value is
        returned (the left panels of Figures 5-7).

        Queries of width ``k' > k`` are evaluated on the synthetic records
        directly.  The synthesizer gives *no accuracy guarantee* for them —
        this is precisely the Figure 3 bottom-panel caveat.

        ``padding_convention`` selects how the padding answer is computed
        when debiasing: ``"uniform"`` (paper's convention — ``n_pad`` fake
        people per bin, extrapolated for widths above ``k``) or ``"panel"``
        (evaluate the query on the materialized de Bruijn padding records;
        identical for widths <= ``k``).
        """
        query.check_time(t)
        if padding_convention not in ("uniform", "panel"):
            raise ConfigurationError(
                f"padding_convention must be 'uniform' or 'panel', got "
                f"{padding_convention!r}"
            )
        if query.k <= self.window:
            histogram = self.histogram(t)
            weights = lift_window_weights(query.weights, query.k, self.window)
            count_answer = float(weights @ histogram)
        else:
            panel = self.synthetic_data(t)
            # Entrants admitted after round t sit at the end of the record
            # matrix; exclude them so record-level answers describe the
            # round-t population (a no-op for static populations).
            m_t = self.synthetic_population(t)
            if m_t < panel.n_individuals:
                panel = LongitudinalDataset(panel.matrix[:m_t])
            count_answer = query.evaluate(panel, t) * panel.n_individuals
        if not debias:
            return count_answer / self.synthetic_population(t)
        if padding_convention == "uniform":
            padding_count = self.padding.count_contribution(query)
        else:
            padding_count = self.padding.panel_count_answer(query, t)
        return debias_count_answer(count_answer, padding_count, self.population(t))

    def _compile_batch_query(self, query, options: dict):
        """Compile a width-``k' <= k`` binary window query for the batch path.

        Returns ``None`` — scalar fallback — for record-level wide
        queries, types other than :class:`~repro.queries.base.WindowQuery`,
        and the time-dependent ``padding_convention="panel"``.
        """
        convention = options.get("padding_convention", "uniform")
        if convention != "uniform" or any(k != "padding_convention" for k in options):
            return None
        if not isinstance(query, WindowQuery) or query.k > self.window:
            return None
        signature = query_signature(query)
        plans = self._synth._plan_cache
        lifted = plans.get(signature)
        if lifted is None:
            lifted = lift_window_weights(query.weights, query.k, self.window)
            plans[signature] = lifted
        return lifted, self.padding.count_contribution(query)

    def __repr__(self) -> str:
        return (
            f"FixedWindowRelease(k={self.window}, t={self.t}, "
            f"n_pad={self.padding.n_pad})"
        )


class FixedWindowSynthesizer(WindowEngine):
    """Algorithm 1 — continual synthetic data for window histograms.

    The binary (``q = 2``) specialization of
    :class:`~repro.core.window_engine.WindowEngine`; see the engine for
    the streaming/churn/checkpoint machinery shared with the categorical
    synthesizer.

    Parameters
    ----------
    horizon:
        Known time horizon ``T``.
    window:
        Window width ``k`` (``1 <= k <= T``).
    rho:
        Total zCDP budget for the entire run; ``math.inf`` disables noise
        (oracle mode for tests/baselines).
    n_pad:
        Padding per bin.  ``None`` (default) chooses the Theorem 3.2 value
        for the given ``beta``.
    beta:
        Target failure probability used when auto-sizing ``n_pad``.
    on_negative:
        Fallback when a target count goes negative despite padding:
        ``"redistribute"`` (default; keeps consistency, counts the event)
        or ``"raise"``.
    sensitivity:
        Histogram L2 sensitivity used for noise calibration (1.0 matches
        the paper's accounting; see :mod:`repro.dp.mechanisms`).
    noise_method:
        ``"exact"`` or ``"vectorized"`` discrete Gaussian backend.
    """

    algorithm = "fixed_window"

    def __init__(
        self,
        horizon: int,
        window: int,
        rho: float,
        *,
        n_pad: int | None = None,
        beta: float = 0.05,
        on_negative: str = "redistribute",
        sensitivity: float = 1.0,
        seed: SeedLike = None,
        noise_method: str = "exact",
    ):
        super().__init__(
            horizon,
            window,
            rho,
            alphabet=2,
            n_pad=n_pad,
            beta=beta,
            on_negative=on_negative,
            sensitivity=sensitivity,
            seed=seed,
            noise_method=noise_method,
        )

    def _make_release(self) -> FixedWindowRelease:
        """Build the cached binary release view."""
        return FixedWindowRelease(self)

    def _validate_column_values(self, column: np.ndarray) -> None:
        """Binary panels accept literal 0/1 reports only."""
        validate_binary_column(column)

    @classmethod
    def from_config(cls, config: dict) -> "FixedWindowSynthesizer":
        """Rebuild a fresh synthesizer from :meth:`WindowEngine.config_dict` output.

        Parameters
        ----------
        config:
            A mapping produced by ``config_dict``.

        Returns
        -------
        FixedWindowSynthesizer
            An unfitted synthesizer with the same configuration, ready
            for :meth:`WindowEngine.load_state`.

        Raises
        ------
        repro.exceptions.SerializationError
            If required keys are missing or fail constructor validation.
        """
        try:
            return cls(
                int(config["horizon"]),
                int(config["window"]),
                float(config["rho"]),
                n_pad=int(config["n_pad"]),
                on_negative=str(config["on_negative"]),
                sensitivity=float(config["sensitivity"]),
                noise_method=str(config["noise_method"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(f"invalid fixed-window config: {exc}") from exc
