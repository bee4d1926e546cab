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

Queries are answered by the engine's
:class:`~repro.core.window_engine.WindowRelease`, as for the binary
synthesizer; :class:`CategoricalWindowRelease` only accepts categorical
queries over its alphabet and hands its synthetic records back as a
:class:`~repro.data.categorical.CategoricalDataset`, also at ``q = 2``.
"""

from __future__ import annotations

from repro.core.window_engine import WindowEngine, WindowRelease
from repro.data.categorical import CategoricalDataset
from repro.exceptions import DataValidationError
from repro.queries.categorical import CategoricalWindowQuery
from repro.rng import SeedLike

__all__ = ["CategoricalWindowSynthesizer", "CategoricalWindowRelease"]

# Guard against accidentally materializing astronomically many bins.
_MAX_BINS = 1 << 16


class CategoricalWindowRelease(WindowRelease):
    """Release view of a categorical fixed-window run.

    The :class:`~repro.core.window_engine.WindowRelease` of a run over
    ``q >= 2`` categories: it answers
    :class:`~repro.queries.categorical.CategoricalWindowQuery` queries
    over its alphabet and hands its synthetic records back as a
    :class:`~repro.data.categorical.CategoricalDataset`, at ``q = 2``
    too.

    Parameters
    ----------
    synthesizer:
        The owning :class:`CategoricalWindowSynthesizer`; the release is
        a live view of its state, not a frozen copy.
    """

    _query_types = (CategoricalWindowQuery,)
    _release_name = "categorical window release"
    _panel_type = CategoricalDataset

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
    seed:
        Seed or generator for all randomness (exact noise and records).
    """

    algorithm = "categorical_window"
    _release_type = CategoricalWindowRelease
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
        )

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
