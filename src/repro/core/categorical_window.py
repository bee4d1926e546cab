"""Algorithm 1 generalized to categorical alphabets.

The paper (§1, "Our results"): "The solutions we develop for fixed time
window queries naturally extend to handle categorical data with more than 2
categories."  This module carries out that extension as a first-class
citizen of the production stack: :class:`CategoricalWindowSynthesizer` is
the generic-``q`` instantiation of the shared
:class:`~repro.core.window_engine.WindowEngine` — the same streaming loop,
dynamic-population protocol (``entrants=`` / ``exits=``), synthetic store,
zCDP ledger, and checkpoint machinery as the binary
:class:`~repro.core.fixed_window.FixedWindowSynthesizer`, which is the
``q = 2`` special case with a tighter paired rounding.

With alphabet ``Sigma`` of size ``q``, the per-round histogram has ``q**k``
bins.  When the window slides, a record whose window ended with the
``(k-1)``-gram ``z`` extends into one of the ``q`` patterns ``zc``; the
consistency constraint becomes

    sum_c p_{zc}^{t+1}  =  sum_c p_{cz}^t        for every z in Sigma^{k-1},

and the correction distributes the group discrepancy
``D_z = M_z - sum_c C^_{zc}`` evenly: every child receives
``floor(D_z / q)`` and the residue ``D_z mod q`` goes to that many children
chosen uniformly at random (the fair +-1/2 rounding of the binary case is
the ``q = 2`` special case) — see
:func:`~repro.core.consistency.apply_group_correction`.  Padding,
debiasing, privacy accounting, and the two-phase round structure are
unchanged.

Residues are placed with one batched key draw per round and records
extend by order statistics of one value sort;
``benchmarks/bench_categorical_extension.py`` pins the speedup over the
per-group/per-record reference loops, which release identical
histograms in noiseless mode.
"""

from __future__ import annotations

import numpy as np

from repro.core.consistency import apply_group_correction
from repro.core.debias import debias_count_answer
from repro.core.window_engine import WindowEngine, WindowRelease
from repro.data.categorical import CategoricalDataset
from repro.exceptions import (
    ConfigurationError,
    DataValidationError,
    NotFittedError,
    SerializationError,
)
from repro.queries.categorical import CategoricalWindowQuery
from repro.queries.plan import query_signature
from repro.rng import SeedLike

__all__ = [
    "CategoricalWindowSynthesizer",
    "CategoricalWindowRelease",
    "apply_categorical_correction",
    "lift_categorical_weights",
]

# Guard against accidentally materializing astronomically many bins.
_MAX_BINS = 1 << 16


def apply_categorical_correction(
    previous_counts: np.ndarray,
    noisy_counts: np.ndarray,
    alphabet: int,
    generator: np.random.Generator,
    on_negative: str = "redistribute",
) -> tuple[np.ndarray, int]:
    """Project noisy categorical counts onto the consistency constraint.

    A thin alias for :func:`repro.core.consistency.apply_group_correction`
    (where the projection now lives alongside its binary special case);
    kept here because the categorical extension has always exported it.

    Parameters
    ----------
    previous_counts, noisy_counts:
        Length-``q**k`` histograms at ``t`` and the noisy ``t+1``.
    alphabet:
        Number of categories ``q >= 2``.
    generator:
        Source of the residue-placement randomness.
    on_negative:
        ``"redistribute"`` (default) or ``"raise"``.

    Returns
    -------
    ``(new_counts, n_negative_events)``.
    """
    return apply_group_correction(
        previous_counts, noisy_counts, alphabet, generator, on_negative=on_negative
    )


def lift_categorical_weights(
    weights: np.ndarray, from_k: int, to_k: int, alphabet: int
) -> np.ndarray:
    """Lift a width-``k'`` categorical weight vector to width ``k >= k'``.

    Parameters
    ----------
    weights:
        Length-``alphabet**from_k`` coefficient vector.
    from_k, to_k:
        Source and target window widths (``to_k >= from_k``).
    alphabet:
        Number of categories ``q >= 2``.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (alphabet**from_k,):
        raise ConfigurationError(
            f"weights must have length {alphabet}**{from_k}, got {weights.shape}"
        )
    if to_k < from_k:
        raise ConfigurationError(f"cannot lift width {from_k} down to {to_k}")
    codes = np.arange(alphabet**to_k)
    return weights[codes % (alphabet**from_k)]


class CategoricalWindowRelease(WindowRelease):
    """Release view of a categorical fixed-window run.

    The categorical counterpart of
    :class:`~repro.core.fixed_window.FixedWindowRelease`, sharing the
    metadata and churn-aware population surface of
    :class:`~repro.core.window_engine.WindowRelease`.

    Parameters
    ----------
    synthesizer:
        The owning :class:`CategoricalWindowSynthesizer`; the release is
        a live view of its state (one cached instance per synthesizer),
        not a frozen copy.
    """

    @property
    def alphabet(self) -> int:
        """Alphabet size ``q``."""
        return self._synth.alphabet

    @property
    def n_pad(self) -> int:
        """Padding per bin (public)."""
        return self._synth.padding.n_pad

    def synthetic_data(self, t: int | None = None) -> CategoricalDataset:
        """The synthetic categorical panel through round ``t``."""
        store = self._synth._store
        if store is None:
            raise NotFittedError("the first update step has not run yet")
        panel = store.as_dataset(t)
        if not isinstance(panel, CategoricalDataset):
            # The shared store hands q = 2 panels back as binary
            # LongitudinalDatasets; this release's contract is categorical.
            panel = CategoricalDataset(panel.matrix, self.alphabet)
        return panel

    # -- query answering -----------------------------------------------

    def _check_query(self, query: CategoricalWindowQuery) -> None:
        """Reject queries over a different alphabet."""
        if query.alphabet != self.alphabet:
            raise ConfigurationError(
                f"query alphabet {query.alphabet} != release alphabet {self.alphabet}"
            )

    def answer(
        self, query: CategoricalWindowQuery, t: int, debias: bool = True
    ) -> float:
        """Answer a categorical window query at round ``t``.

        Queries of width ``k' <= k`` are answered from the maintained
        width-``k`` histogram; wider queries are evaluated on the
        synthetic records directly, with *no accuracy guarantee* — the
        same caveat as the binary release.  With ``debias`` (default)
        the publicly known padding contribution is subtracted and the
        answer renormalized by the real population.

        Parameters
        ----------
        query:
            A :class:`~repro.queries.categorical.CategoricalWindowQuery`
            over the release's alphabet.
        t:
            Round to answer at (``t >= query.k``).
        debias:
            Subtract the padding contribution and renormalize by ``n``
            (default); otherwise return the biased fraction of the
            synthetic population.
        """
        query.check_time(t)
        self._check_query(query)
        if query.k <= self.window:
            weights = lift_categorical_weights(
                query.weights, query.k, self.window, self.alphabet
            )
            count_answer = float(weights @ self.histogram(t))
        else:
            panel = self.synthetic_data(t)
            # Entrants admitted after round t sit at the end of the record
            # matrix; exclude them so record-level answers describe the
            # round-t population (a no-op for static populations).
            m_t = self.synthetic_population(t)
            if m_t < panel.n_individuals:
                panel = CategoricalDataset(panel.matrix[:m_t], self.alphabet)
            count_answer = query.evaluate(panel, t) * panel.n_individuals
        if not debias:
            return count_answer / self.synthetic_population(t)
        padding_count = self.padding.count_contribution(query)
        return debias_count_answer(count_answer, padding_count, self.population(t))

    def answer_series(
        self, query: CategoricalWindowQuery, times=None, debias: bool = True
    ) -> np.ndarray:
        """Batch-answer one query over many released rounds at once.

        One weight lift and one matrix product replace the per-round
        :meth:`answer` loop: the released histograms are stacked into a
        ``(len(times), q**k)`` table and multiplied by the lifted weight
        vector, with the padding/debias arithmetic applied vectorized.
        Agrees exactly with calling :meth:`answer` per round.

        Parameters
        ----------
        query:
            A width-``k' <= k`` query over the release's alphabet
            (record-level wide queries have no batched path).
        times:
            Rounds to answer at (default: every released round at which
            the query is defined).
        debias:
            As in :meth:`answer`.

        Returns
        -------
        numpy.ndarray
            One answer per requested round, in order.
        """
        self._check_query(query)
        if query.k > self.window:
            raise ConfigurationError(
                f"answer_series answers histogram queries (width <= "
                f"{self.window}); width-{query.k} queries need per-round "
                "record evaluation via answer()"
            )
        if times is None:
            times = [t for t in self.released_times() if t >= query.min_time()]
        times = [int(t) for t in times]
        for t in times:
            query.check_time(t)
        if not times:
            return np.zeros(0, dtype=np.float64)
        weights = lift_categorical_weights(
            query.weights, query.k, self.window, self.alphabet
        )
        # histogram() raises NotFittedError for unreleased rounds, exactly
        # like the per-round answer() path.
        table = np.stack([self.histogram(t) for t in times])
        counts = table @ weights
        if not debias:
            denominators = np.array(
                [self.synthetic_population(t) for t in times], dtype=np.float64
            )
            self._check_denominators(denominators, times, "synthetic population")
            return counts / denominators
        padding_count = self.padding.count_contribution(query)
        populations = np.array(
            [self.population(t) for t in times], dtype=np.float64
        )
        self._check_denominators(populations, times, "n_original")
        return (counts - padding_count) / populations

    def _compile_batch_query(self, query, options: dict):
        """Compile a width-``k' <= k`` categorical query for the batch path.

        Returns ``None`` — scalar fallback — for record-level wide
        queries and foreign query types; an alphabet mismatch raises
        exactly like the scalar :meth:`answer`.
        """
        if options:
            return None
        if (
            getattr(query, "alphabet", None) is None
            or getattr(query, "k", None) is None
            or getattr(query, "weights", None) is None
        ):
            return None
        self._check_query(query)
        if query.k > self.window:
            return None
        signature = query_signature(query)
        plans = self._synth._plan_cache
        lifted = None if signature is None else plans.get(signature)
        if lifted is None:
            lifted = lift_categorical_weights(
                query.weights, query.k, self.window, self.alphabet
            )
            if signature is not None:
                plans[signature] = lifted
        return lifted, self.padding.count_contribution(query)

    @staticmethod
    def _check_denominators(values: np.ndarray, times, label: str) -> None:
        """Raise like :func:`debias_count_answer` instead of emitting inf."""
        bad = np.flatnonzero(values <= 0)
        if bad.size:
            t = times[int(bad[0])]
            raise ConfigurationError(
                f"{label} must be positive, got {int(values[bad[0]])} at t={t}"
            )

    def __repr__(self) -> str:
        return (
            f"CategoricalWindowRelease(k={self.window}, q={self.alphabet}, "
            f"n_pad={self.n_pad})"
        )


class CategoricalWindowSynthesizer(WindowEngine):
    """Fixed-window continual synthesizer over a categorical alphabet.

    Parameters mirror
    :class:`~repro.core.fixed_window.FixedWindowSynthesizer` plus
    ``alphabet`` (the number of categories ``q >= 2``); the binary class
    is the ``q = 2`` special case with a tighter rounding analysis.  The
    full streaming surface — churn-aware
    :meth:`~repro.core.window_engine.WindowEngine.observe`,
    checkpointing via
    :meth:`~repro.core.window_engine.WindowEngine.state_dict` /
    :meth:`~repro.core.window_engine.WindowEngine.load_state`, and the
    serving stack (:mod:`repro.serve`) — is inherited from the shared
    engine.

    Parameters
    ----------
    horizon:
        Known time horizon ``T``.
    window:
        Window width ``k`` (``1 <= k <= T``; ``alphabet**window`` bins
        must stay under 65536).
    alphabet:
        Number of categories ``q >= 2``.
    rho:
        Total zCDP budget; ``math.inf`` disables noise.
    n_pad:
        Padding per bin (``None``: the Theorem 3.2 value over ``q**k``
        bins).
    beta:
        Target failure probability used when auto-sizing ``n_pad``.
    on_negative:
        ``"redistribute"`` (default) or ``"raise"``.
    sensitivity:
        Histogram L2 sensitivity for noise calibration.
    noise_method:
        ``"exact"`` or ``"vectorized"`` discrete Gaussian backend.
    """

    algorithm = "categorical_window"
    _max_bins = _MAX_BINS

    def __init__(
        self,
        horizon: int,
        window: int,
        alphabet: int,
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
            alphabet=alphabet,
            n_pad=n_pad,
            beta=beta,
            on_negative=on_negative,
            sensitivity=sensitivity,
            seed=seed,
            noise_method=noise_method,
        )

    def _make_release(self) -> CategoricalWindowRelease:
        """Build the cached categorical release view."""
        return CategoricalWindowRelease(self)

    def _check_dataset(self, dataset) -> None:
        """Batch runs consume a matching :class:`CategoricalDataset`."""
        if not isinstance(dataset, CategoricalDataset):
            raise DataValidationError("run() expects a CategoricalDataset")
        if dataset.alphabet != self.alphabet:
            raise DataValidationError(
                f"dataset alphabet {dataset.alphabet} != synthesizer alphabet "
                f"{self.alphabet}"
            )
        super()._check_dataset(dataset)

    def config_dict(self) -> dict:
        """The constructor arguments needed to rebuild this synthesizer.

        Returns
        -------
        dict
            The shared engine keys
            (:meth:`~repro.core.window_engine.WindowEngine.config_dict`)
            plus ``alphabet``.
        """
        config = super().config_dict()
        config["alphabet"] = self.alphabet
        return config

    @classmethod
    def from_config(cls, config: dict) -> "CategoricalWindowSynthesizer":
        """Rebuild a fresh synthesizer from :meth:`config_dict` output.

        Parameters
        ----------
        config:
            A mapping produced by :meth:`config_dict`.  Older configs
            also carry ``engine: "vectorized"``, which is accepted.

        Returns
        -------
        CategoricalWindowSynthesizer
            An unfitted synthesizer with the same configuration, ready
            for :meth:`~repro.core.window_engine.WindowEngine.load_state`.

        Raises
        ------
        repro.exceptions.SerializationError
            If required keys are missing or fail constructor validation,
            or the config was written by the removed scalar engine
            (``engine: "scalar"``), whose continuation cannot be
            reproduced.
        """
        engine = config.get("engine", "vectorized")
        if engine != "vectorized":
            raise SerializationError(
                f"categorical-window config has engine {engine!r}; only the "
                "vectorized engine's bundles can be continued"
            )
        try:
            return cls(
                int(config["horizon"]),
                int(config["window"]),
                int(config["alphabet"]),
                float(config["rho"]),
                n_pad=int(config["n_pad"]),
                on_negative=str(config["on_negative"]),
                sensitivity=float(config["sensitivity"]),
                noise_method=str(config["noise_method"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(f"invalid categorical-window config: {exc}") from exc
