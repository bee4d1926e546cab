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
:class:`~repro.core.window_engine.WindowEngine`: the engine runs the
paper's fair ``+-1/2`` pair rounding at ``q = 2``, and the outputs are
bit-exact — noise draws and zCDP ledger included — with the pre-engine
standalone implementation.  Queries are answered by the engine's
:class:`~repro.core.window_engine.WindowRelease`; :class:`FixedWindowRelease`
only fixes what is binary about it: the query types it accepts and the
:class:`~repro.data.dataset.LongitudinalDataset` panels it hands back.
The multi-category instantiation is
:class:`~repro.core.categorical_window.CategoricalWindowSynthesizer`.

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

from repro.core.window_engine import WindowEngine, WindowRelease
from repro.data.dataset import LongitudinalDataset
from repro.queries.base import WindowQuery
from repro.queries.categorical import CategoricalWindowQuery
from repro.rng import SeedLike

__all__ = ["FixedWindowSynthesizer", "FixedWindowRelease"]


class FixedWindowRelease(WindowRelease):
    """The public artifact of a binary fixed-window run.

    The :class:`~repro.core.window_engine.WindowRelease` of a ``q = 2``
    run: it answers binary window queries and binary categorical ones
    alike (a categorical query over two symbols is the same functional of
    the same histogram), and hands its synthetic records back as a
    :class:`~repro.data.dataset.LongitudinalDataset`.

    Parameters
    ----------
    synthesizer:
        The owning :class:`FixedWindowSynthesizer`; the release is a
        live view of its state, not a frozen copy.
    """

    _query_types = (WindowQuery, CategoricalWindowQuery)
    _release_name = "fixed-window release"
    _panel_type = LongitudinalDataset

    def __repr__(self) -> str:
        return f"FixedWindowRelease(k={self.window}, t={self.t}, n_pad={self.n_pad})"


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
    seed:
        Seed or generator for all randomness (exact noise and records).
    """

    algorithm = "fixed_window"
    _release_type = FixedWindowRelease

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
        )
