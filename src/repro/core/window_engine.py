"""Algorithm 1 over an arbitrary alphabet: one engine, one release.

The paper's fixed-window solution "naturally extends to handle categorical
data with more than 2 categories" (§1); this module is that statement made
structural.  :class:`WindowEngine` owns the *entire* per-round machinery of
the fixed-window synthesizer for any alphabet size ``q >= 2``:

* streaming ingestion with base-``q`` window-code maintenance, the
  pre-window column buffer, and the dynamic-population protocol
  (``entrants=`` / ``exits=`` via :class:`~repro.core.population.PopulationLedger`,
  zero-fill convention);
* the two-phase update step — batched discrete-Gaussian noise for all
  ``q**k`` bins at once, consistency projection, and synthetic-record
  extension through the shared
  :class:`~repro.core.synthetic_store.WindowSyntheticStore`;
* zCDP accounting, padding (:class:`~repro.core.padding.PaddingSpec`), the
  config reader and the full checkpoint protocol (``config_dict`` /
  ``from_config`` / ``state_dict`` / ``load_state``) consumed by
  :mod:`repro.serve`.

:class:`WindowRelease` answers queries for every alphabet: one query
(``answer``), one query over many rounds (``answer_series``) or a whole
workload (``answer_batch``), from the histograms for widths up to ``k``
and from the synthetic records above it.  The workload grid is the one
place an answer is computed; a single answer is one of its cells and a
series one of its rows.

:class:`~repro.core.fixed_window.FixedWindowSynthesizer` is the ``q = 2``
specialization: the projection below runs the paper's fair ``+-1/2`` pair
rounding (:func:`~repro.core.consistency.apply_overlap_correction`) at
``q = 2``, bit-exact — noise draws, record randomness, and zCDP ledger
included — with the pre-engine implementation, and its release hands back
binary panels.  :class:`~repro.core.categorical_window.CategoricalWindowSynthesizer`
is the generic-``q`` instantiation: batched residue placement
(:func:`~repro.core.consistency.apply_group_correction`) above ``q = 2``
and order-statistic record extension
(``benchmarks/bench_categorical_extension.py`` pins the speedup over the
per-group/per-record reference loops); its release hands back categorical
panels at every ``q``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from repro.core.consistency import (
    apply_group_correction,
    apply_overlap_correction,
    check_group_consistency,
    check_window_consistency,
)
from repro.core.debias import lift_window_weights
from repro.core.legacy import check_legacy_config
from repro.core.padding import PaddingSpec
from repro.core.population import (
    PopulationLedger,
    validate_column,
    validate_entrants,
)
from repro.core.synthetic_store import (
    WindowSyntheticStore,
    _code_dtype,
    _code_histogram,
    _code_suffix,
)
from repro.data.dataset import DynamicPanel, LongitudinalDataset
from repro.dp.accountant import ZCDPAccountant
from repro.dp.discrete_gaussian import calibrate_sigma_sq
from repro.dp.mechanisms import GaussianHistogramMechanism
from repro.exceptions import (
    ConfigurationError,
    DataValidationError,
    NegativeCountError,
    NotFittedError,
    SerializationError,
)
from repro.queries.plan import AnswerCache, query_signature, workload_key
from repro.rng import (
    SeedLike,
    as_generator,
    generator_state,
    restore_generator_state,
)
from repro.types import AttributeFrame

__all__ = ["WindowEngine", "WindowRelease"]


class WindowRelease:
    """The release of a fixed-window run, for any alphabet.

    Answers window queries of width at most ``k`` from the maintained
    histograms and wider ones from the synthetic records, and exposes
    the public metadata and the churn-aware population accounting.
    Answers are computed in one place, the workload grid of
    :meth:`answer_batch`: :meth:`answer` is one cell of it and
    :meth:`answer_series` one row, so all three return the same floats
    and reject the same queries.  The binary
    :class:`~repro.core.fixed_window.FixedWindowRelease` and the
    categorical
    :class:`~repro.core.categorical_window.CategoricalWindowRelease`
    only name the query types they accept and the panel type their
    records come back as.

    Parameters
    ----------
    synthesizer:
        The owning :class:`WindowEngine` subclass; the release is a live
        view of its state, not a frozen copy.
    """

    #: Release-protocol capability flag: ``answer`` accepts ``debias=``.
    #: The replication harness dispatches on this instead of isinstance.
    debias_aware = True

    #: Query types this release answers, its name in the rejection
    #: message for any other, and the panel type of its synthetic
    #: records; subclasses set all three.
    _query_types: tuple = ()
    _release_name = "window release"
    _panel_type: type = LongitudinalDataset

    def __init__(self, synthesizer: "WindowEngine"):
        self._synth = synthesizer

    def _check_query(self, query) -> None:
        """Reject a query that is not an accepted type over the alphabet."""
        if not isinstance(query, self._query_types):
            names = "/".join(cls.__name__ for cls in self._query_types)
            raise ConfigurationError(
                f"{self._release_name} answers {names}, got {query!r}"
            )
        if query.alphabet != self.alphabet:
            raise ConfigurationError(
                f"query alphabet {query.alphabet} != release alphabet {self.alphabet}"
            )

    # -- metadata ------------------------------------------------------

    @property
    def window(self) -> int:
        """Window width ``k``."""
        return self._synth.window

    @property
    def alphabet(self) -> int:
        """Alphabet size ``q`` (2 for the binary release)."""
        return self._synth.alphabet

    @property
    def padding(self) -> PaddingSpec:
        """Public padding parameters (``n_pad`` per ``q**k`` bin)."""
        return self._synth.padding

    @property
    def n_pad(self) -> int:
        """Padding per bin (public)."""
        return self._synth.padding.n_pad

    @property
    def n_original(self) -> int:
        """Real individuals ever admitted (equals ``n`` when static)."""
        if self._synth._n is None:
            raise NotFittedError("no data observed yet")
        return self._synth._ledger.n_ever

    def population(self, t: int) -> int:
        """Real individuals admitted by round ``t`` (the debias denominator).

        Parameters
        ----------
        t:
            1-indexed round.  Static populations return ``n`` for every
            round; under churn this is the ever-admitted count as of
            ``t`` — departed individuals keep counting under the
            zero-fill convention.
        """
        if self._synth._n is None:
            raise NotFittedError("no data observed yet")
        return self._synth._ledger.n_ever_at(t)

    def synthetic_population(self, t: int) -> int:
        """Synthetic records materialized by round ``t``.

        The denominator of biased (``debias=False``) answers; equals
        ``n_synthetic`` for static populations, and excludes records
        admitted for entrants after round ``t`` under churn.

        Parameters
        ----------
        t:
            1-indexed round.
        """
        ledger = self._synth._ledger
        return self.n_synthetic - (ledger.n_ever - ledger.n_ever_at(t))

    @property
    def n_synthetic(self) -> int:
        """Number of synthetic individuals ``n* = sum_s p_s^k``."""
        store = self._synth._store
        if store is None:
            raise NotFittedError("the first update step has not run yet")
        return store.m

    @property
    def t(self) -> int:
        """Rounds released so far."""
        return self._synth.t

    @property
    def negative_count_events(self) -> int:
        """How many groups needed the negative-count fallback."""
        return self._synth._negative_events

    # -- released data -------------------------------------------------

    def histogram(self, t: int) -> np.ndarray:
        """Target synthetic histogram ``p^t`` (length ``q**k``)."""
        try:
            return self._synth._histograms[t].copy()
        except KeyError:
            raise NotFittedError(f"no histogram released for t={t}") from None

    def released_times(self) -> list[int]:
        """Rounds with a released histogram, ascending."""
        return sorted(self._synth._histograms)

    def synthetic_data(self, t: int | None = None):
        """The synthetic panel through round ``t`` (default: latest).

        A :class:`~repro.data.dataset.LongitudinalDataset` from the
        binary release and a
        :class:`~repro.data.categorical.CategoricalDataset` from the
        categorical one, at every alphabet size.
        """
        store = self._synth._store
        if store is None:
            raise NotFittedError("the first update step has not run yet")
        panel = store.as_dataset(t)
        # The store hands q = 2 records back as a binary panel.
        return panel if isinstance(panel, self._panel_type) else self._panel(panel.matrix)

    def _panel(self, matrix: np.ndarray):
        """``matrix`` as the release's panel type."""
        if self._panel_type is LongitudinalDataset:
            return LongitudinalDataset(matrix)
        return self._panel_type(matrix, self.alphabet)

    # -- query answering -----------------------------------------------

    def answer(
        self, query, t: int, debias: bool = True, padding_convention: str = "uniform"
    ) -> float:
        """Answer a window query at round ``t``: one cell of :meth:`answer_batch`.

        Queries of width ``k' <= k`` are answered from the maintained
        width-``k`` histogram (exactly equal to evaluating on the
        records).  Queries of width ``k' > k`` are evaluated on the
        synthetic records directly; the synthesizer gives *no accuracy
        guarantee* for them — the Figure 3 bottom-panel caveat.

        Parameters
        ----------
        query:
            A window query of a type the release accepts, over its
            alphabet.
        t:
            Round to answer at (``t >= query.k``).
        debias:
            Subtract the publicly known padding contribution and
            renormalize by the real population ``n`` — the §3.2
            estimator (default); otherwise return the biased fraction of
            the synthetic population (the left panels of Figures 5-7).
        padding_convention:
            How the padding contribution is computed when debiasing:
            ``"uniform"`` (the paper's convention — ``n_pad`` fake
            people per bin, extrapolated for widths above ``k``) or
            ``"panel"`` (evaluate the query on the materialized de
            Bruijn padding records; identical for widths ``<= k``).

        Raises
        ------
        repro.exceptions.ConfigurationError
            For a query the release does not accept (a Hamming query,
            say, or one over another alphabet), a round before the
            query's first, or an unknown padding convention.
        """
        self._check_query(query)
        query.check_time(t)
        grid = self.answer_batch(
            [query], [t], debias=debias, padding_convention=padding_convention
        )
        return float(grid[0, 0])

    def answer_series(self, query, times=None, debias: bool = True) -> np.ndarray:
        """Answer one query over many rounds: one row of :meth:`answer_batch`.

        Parameters
        ----------
        query:
            A window query the release accepts, of any width.
        times:
            Rounds to answer at (default: every released round at which
            the query is defined).
        debias:
            As in :meth:`answer`.

        Returns
        -------
        numpy.ndarray
            One answer per requested round, in order, each the float
            :meth:`answer` returns.

        Raises
        ------
        repro.exceptions.NotFittedError
            For a requested round with no released histogram.
        """
        self._check_query(query)
        if times is None:
            times = [t for t in self.released_times() if t >= query.min_time()]
        times = [int(t) for t in times]
        for t in times:
            query.check_time(t)
        return self.answer_batch([query], times, debias=debias)[0]

    def _lifted(self, query) -> np.ndarray:
        """``query``'s weights lifted to width ``k``, memoized per signature."""
        plans = self._synth._plan_cache
        signature = query_signature(query)
        lifted = plans.get(signature)
        if lifted is None:
            lifted = lift_window_weights(query.weights, query.k, self.window, self.alphabet)
            plans[signature] = lifted
        return lifted

    @property
    def version(self) -> int:
        """Monotone state version: bumped by every mutation of the owner.

        ``observe()`` and ``load_state()`` each increment it, so equal
        versions guarantee equal answers — the key invariant behind the
        batched answer cache.
        """
        return self._synth._version

    def answer_batch(
        self, queries, times, debias: bool = True, padding_convention: str = "uniform"
    ) -> np.ndarray:
        """Answer a whole window-query workload as one grid.

        The one place the release computes an answer: :meth:`answer` is
        one cell of this grid and :meth:`answer_series` one row.  A query
        of width ``k' <= k`` is lifted to width ``k`` once (compiled
        plans are memoized per query signature) and read off each
        round's histogram; a wider one is evaluated on the round's
        synthetic records, which are built once per round and shared by
        every wide row.  Cells with ``t < query.min_time()`` are
        ``NaN``.  Results are memoized per release version.

        Parameters
        ----------
        queries, times:
            Window queries the release accepts and the rounds to answer
            them at.
        debias, padding_convention:
            As in :meth:`answer`.

        Raises
        ------
        repro.exceptions.ConfigurationError
            For a query the release does not accept or an unknown
            padding convention.
        repro.exceptions.NotFittedError
            For an answerable cell at a round with no released histogram.
        """
        queries = list(queries)
        for query in queries:
            self._check_query(query)
        if padding_convention not in ("uniform", "panel"):
            raise ConfigurationError(
                f"padding_convention must be 'uniform' or 'panel', got "
                f"{padding_convention!r}"
            )
        times = [int(t) for t in times]
        key = workload_key(
            queries, times, debias=bool(debias), padding_convention=padding_convention
        )
        cache = self._synth._answer_cache
        version = self.version
        if key is not None:
            hit = cache.get(version, key)
            if hit is not None:
                return hit
        panels: dict = {}
        denominators: dict[int, int] = {}
        denominator = self.population if debias else self.synthetic_population

        def histogram_count(lifted: np.ndarray, t: int) -> float:
            row = self._synth._histograms.get(t)
            if row is None:
                raise NotFittedError(f"no histogram released for t={t}")
            # One dot product per cell: BLAS gemv is *not* bitwise equal
            # to a per-row ddot.
            return float(lifted @ row)

        def record_count(query, t: int) -> float:
            if t not in panels:
                panel = self.synthetic_data(t)
                # Entrants admitted after round t sit at the end of the
                # record matrix; exclude them so record-level answers
                # describe the round-t population (a no-op when static).
                m_t = self.synthetic_population(t)
                if m_t < panel.n_individuals:
                    panel = self._panel(panel.matrix[:m_t])
                panels[t] = panel
            return query.evaluate(panels[t], t) * panels[t].n_individuals

        out = np.full((len(queries), len(times)), np.nan, dtype=np.float64)
        for qi, query in enumerate(queries):
            cells = [i for i, t in enumerate(times) if t >= query.min_time()]
            if not cells:
                continue
            cell_times = [times[i] for i in cells]
            if query.k <= self.window:
                lifted = self._lifted(query)
                counts = [histogram_count(lifted, t) for t in cell_times]
            else:
                counts = [record_count(query, t) for t in cell_times]
            for t in cell_times:
                if t not in denominators:
                    denominators[t] = denominator(t)
            totals = np.array([denominators[t] for t in cell_times], dtype=np.float64)
            if totals.min() <= 0:
                label = "n_original" if debias else "synthetic population"
                raise ConfigurationError(
                    f"{label} must be positive, got {int(totals.min())}"
                )
            counts = np.asarray(counts, dtype=np.float64)
            if debias and padding_convention == "uniform":
                counts = counts - self.padding.count_contribution(query)
            elif debias:
                counts = counts - np.array(
                    [self.padding.panel_count_answer(query, t) for t in cell_times]
                )
            out[qi, cells] = counts / totals
        if key is not None:
            cache.put(version, key, out)
        return out


class WindowEngine:
    """Alphabet-generic core of the fixed-window synthesizer.

    Subclasses fix the user-facing surface — the binary
    :class:`~repro.core.fixed_window.FixedWindowSynthesizer` and the
    generic-``q``
    :class:`~repro.core.categorical_window.CategoricalWindowSynthesizer` —
    by setting :attr:`algorithm`, their constructor signature, their
    release view class, and the panels they consume; everything else
    (streaming, churn, noise, projection, store, accounting,
    checkpointing, the config reader) lives here once.

    Parameters
    ----------
    horizon:
        Known time horizon ``T``.
    window:
        Window width ``k`` (``1 <= k <= T``).
    rho:
        Total zCDP budget for the entire run; ``math.inf`` disables noise
        (oracle mode for tests/baselines).
    alphabet:
        Number of categories ``q >= 2`` (2 is the paper's binary panel).
    n_pad:
        Padding per bin.  ``None`` (default) chooses the Theorem 3.2
        value for the given ``beta`` (union bound over ``q**k`` bins).
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
        Seed or generator for all randomness (noise and records); the
        per-bin noise is exact discrete Gaussian.
    """

    #: Tag stored in checkpoint configs; subclasses override.
    algorithm = "window"

    #: Release view class built once per synthesizer; subclasses override.
    _release_type: type = WindowRelease

    #: Bin-count guard (``None`` disables); the categorical subclass caps
    #: ``q**k`` so a typo'd alphabet cannot materialize 2**40 bins.
    _max_bins: int | None = None

    def __init__(
        self,
        horizon: int,
        window: int,
        rho: float,
        *,
        alphabet: int = 2,
        n_pad: int | None = None,
        beta: float = 0.05,
        on_negative: str = "redistribute",
        sensitivity: float = 1.0,
        seed: SeedLike = None,
    ):
        if horizon <= 0:
            raise ConfigurationError(f"horizon must be positive, got {horizon}")
        if not 1 <= window <= horizon:
            raise ConfigurationError(
                f"window must lie in [1, horizon={horizon}], got {window}"
            )
        if alphabet < 2:
            raise ConfigurationError(f"alphabet must be at least 2, got {alphabet}")
        if self._max_bins is not None and alphabet**window > self._max_bins:
            raise ConfigurationError(
                f"alphabet**window = {alphabet**window} bins exceeds the "
                f"{self._max_bins} limit; reduce the window or the alphabet"
            )
        if not rho > 0:
            raise ConfigurationError(f"rho must be positive (or math.inf), got {rho}")
        if on_negative not in ("redistribute", "raise"):
            raise ConfigurationError(
                f"on_negative must be 'redistribute' or 'raise', got {on_negative!r}"
            )
        self.horizon = int(horizon)
        self.window = int(window)
        self.alphabet = int(alphabet)
        self.rho = float(rho)
        self.on_negative = on_negative
        self.sensitivity = float(sensitivity)
        self._generator = as_generator(seed)

        self.update_steps = self.horizon - self.window + 1
        if math.isinf(self.rho):
            sigma_sq = Fraction(0)
            self.accountant = None
        else:
            sigma_sq = calibrate_sigma_sq(self.update_steps, self.rho)
            self.accountant = ZCDPAccountant(self.rho)
        self.sigma_sq = sigma_sq
        self._mechanism = GaussianHistogramMechanism(
            n_bins=self.alphabet**self.window,
            sigma_sq=sigma_sq,
            sensitivity=sensitivity,
            seed=self._generator,
        )

        if n_pad is None:
            if math.isinf(self.rho):
                n_pad = 0
            else:
                n_pad = PaddingSpec.auto(
                    self.horizon, self.window, self.rho, beta, alphabet=self.alphabet
                ).n_pad
        self.padding = PaddingSpec(
            window=self.window,
            n_pad=int(n_pad),
            horizon=self.horizon,
            alphabet=self.alphabet,
        )

        self._t = 0
        self._n: int | None = None  # initial (round-1) population
        self._ledger: PopulationLedger | None = None
        # Window codes and buffered reports stay in the narrow code dtype
        # (uint8 up to 256 bins); the snapshot widens them to int64.
        self._code_dtype = _code_dtype(self.alphabet, self.window)
        self._window_codes: np.ndarray | None = None  # original-data codes
        self._recent_columns: list[np.ndarray] = []  # first k-1 columns buffer
        self._store: WindowSyntheticStore | None = None
        # All released histograms live in one preallocated column-major
        # block (one column per update step, written in release order);
        # the dict maps each released round to its column view.
        self._hist_block = np.zeros(
            (self.alphabet**self.window, self.update_steps), dtype=np.int64, order="F"
        )
        self._histograms: dict[int, np.ndarray] = {}
        self._negative_events = 0
        self._version = 0
        self._answer_cache = AnswerCache()
        self._plan_cache: dict = {}

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------

    def _check_dataset(self, dataset) -> None:
        """Reject panels this synthesizer cannot consume (subclass hook)."""
        if dataset.horizon != self.horizon:
            raise DataValidationError(
                f"dataset horizon {dataset.horizon} != synthesizer horizon {self.horizon}"
            )

    # ------------------------------------------------------------------
    # Streaming API
    # ------------------------------------------------------------------

    @property
    def t(self) -> int:
        """Rounds observed so far."""
        return self._t

    @property
    def release(self):
        """View of everything released so far (a new view per access)."""
        return self._release_type(self)

    def padding_panel(self):
        """The materialized de Bruijn padding population (public).

        Returns the :attr:`padding` spec's record panel: a
        :class:`~repro.data.dataset.LongitudinalDataset` at ``q = 2``
        and a :class:`~repro.data.categorical.CategoricalDataset` above.
        """
        return self.padding.panel

    def observe(self, data, *, entrants: int = 0, exits=None):
        """Consume the round-``t`` report vector ``D_t`` and update.

        Before round ``k`` the reports are only buffered (the first release
        happens once a full window exists).  Returns the release view for
        convenience.

        Parameters
        ----------
        data:
            The round's reports over ``{0, ..., q-1}``, one entry per
            *currently active* individual in ascending id (admission)
            order; this round's entrants report in the final
            ``entrants`` entries.  A 1-D vector, or a width-1
            :class:`~repro.types.AttributeFrame` (this engine synthesizes
            a single attribute; see
            :class:`~repro.core.multi_attribute.MultiAttributeSynthesizer`
            for ``d >= 2``).
        entrants:
            Number of individuals entering this round.  Under the
            zero-fill convention an entrant's pre-entry history is the
            all-zero report, so their window code starts from the
            all-zero pattern.
        exits:
            Ids of previously active individuals absent from this round
            on (permanent; their window codes decay through structural
            zeros).  Retiring a departed or unknown id raises.

        Raises
        ------
        repro.exceptions.DataValidationError
            On out-of-alphabet input, a column length that disagrees
            with the declared churn, rounds past the horizon, or invalid
            churn declarations.
        """
        if isinstance(data, AttributeFrame):
            data = data.sole()
        column = np.asarray(data)
        if column.ndim != 1:
            raise DataValidationError(f"column must be 1-D, got shape {column.shape}")
        validate_column(column, self.alphabet)
        entrants = validate_entrants(entrants)
        # The ledger's retire() type-checks the ids (no truncating cast).
        exit_ids = np.asarray([] if exits is None else exits)
        if self._n is None:
            if exit_ids.size:
                raise DataValidationError(
                    "round 1 admits the initial population; nobody can exit yet"
                )
            if entrants > column.shape[0]:
                raise DataValidationError(
                    f"round 1 declares {entrants} entrants but the column has "
                    f"only {column.shape[0]} reports"
                )
            self._n = int(column.shape[0])
            self._ledger = PopulationLedger()
            self._ledger.admit(self._n, 1)
            exit_count = 0
        else:
            expected = self._ledger.n_active - exit_ids.size + entrants
            if column.shape[0] != expected:
                raise DataValidationError(
                    f"column has {column.shape[0]} entries, expected {expected} "
                    f"(n_active={self._ledger.n_active}, {exit_ids.size} exits, "
                    f"{entrants} entrants)"
                )
            if self._t >= self.horizon:
                raise DataValidationError(f"horizon {self.horizon} already exhausted")
            self._ledger.retire(exit_ids, self._t + 1)
            self._ledger.admit(entrants, self._t + 1)
            exit_count = int(exit_ids.size)
            if entrants:
                # Zero-fill the entrants' pre-entry history: all-zero
                # window codes and all-zero buffered reports.
                if self._window_codes is not None:
                    self._window_codes = np.concatenate(
                        [self._window_codes, np.zeros(entrants, dtype=self._code_dtype)]
                    )
                if self._recent_columns:
                    self._recent_columns = [
                        np.pad(past, (0, entrants)) for past in self._recent_columns
                    ]
        # Rounds past the horizon were rejected above (round 1 cannot
        # exceed it: the constructor requires horizon >= window >= 1).
        self._t += 1
        self._version += 1
        # Validated to lie in [0, q), so the narrow cast is exact.
        column = column.astype(self._code_dtype)
        full_column = self._ledger.scatter_column(column)

        if self._t < self.window:
            self._recent_columns.append(full_column)
            return self.release

        # Maintain each individual's current base-q window code over the
        # ever-admitted population (departed ids decay through zeros),
        # in place and in the narrow code dtype throughout.
        radix = self._code_dtype.type(self.alphabet)
        if self._t == self.window:
            codes = np.zeros(self._ledger.n_ever, dtype=self._code_dtype)
            for past in [*self._recent_columns, full_column]:
                np.multiply(codes, radix, out=codes)
                np.add(codes, past, out=codes)
            self._recent_columns = []
        else:
            codes = self._window_codes
            _code_suffix(codes, self.alphabet ** (self.window - 1), out=codes)
            np.multiply(codes, radix, out=codes)
            np.add(codes, full_column, out=codes)
        self._window_codes = codes

        true_counts = _code_histogram(codes, self.alphabet**self.window)
        self._update_step(true_counts, entrants=entrants, exit_count=exit_count)
        return self.release

    def run(self, dataset):
        """Batch driver: feed every column of ``dataset`` and return the release.

        Parameters
        ----------
        dataset:
            A panel matching the synthesizer's alphabet and horizon — a
            static binary/categorical panel, or a
            :class:`~repro.data.dataset.DynamicPanel` whose per-round
            entry/exit events are replayed through
            :meth:`observe`'s churn parameters.
        """
        self._check_dataset(dataset)
        if self._t:
            raise ConfigurationError("run() requires a fresh synthesizer")
        if isinstance(dataset, DynamicPanel):
            for column, entrants, round_exits in dataset.rounds():
                self.observe(column, entrants=entrants, exits=round_exits)
        else:
            for column in dataset.columns():
                self.observe(column)
        return self.release

    def lifespans(self) -> np.ndarray:
        """Per-individual ``(entry_round, exit_round)`` pairs observed so far.

        Returns
        -------
        numpy.ndarray
            Shape ``(n_ever, 2)``; ``exit_round`` 0 marks a still-active
            individual.

        Raises
        ------
        repro.exceptions.NotFittedError
            Before any data has been observed.
        """
        if self._ledger is None:
            raise NotFittedError("no data observed yet")
        return self._ledger.lifespans()

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def config_dict(self) -> dict:
        """The constructor arguments needed to rebuild this synthesizer.

        Returns
        -------
        dict
            JSON-safe mapping with the ``algorithm`` tag plus the
            horizon, window width, budget, resolved padding,
            negative-count policy, sensitivity, and the constant
            exact-noise tag (kept because fingerprints hash the config).
            Consumed by :meth:`from_config`; the seed is deliberately
            absent.  The categorical synthesizer adds ``alphabet``; a
            binary config has no such key, so its fingerprint stays what
            it was.
        """
        return {
            "algorithm": self.algorithm,
            "horizon": self.horizon,
            "window": self.window,
            "rho": self.rho,
            "n_pad": self.padding.n_pad,
            "on_negative": self.on_negative,
            "sensitivity": self.sensitivity,
            "noise_method": "exact",
        }

    @classmethod
    def from_config(cls, config: dict):
        """Rebuild a fresh synthesizer from :meth:`config_dict` output.

        Parameters
        ----------
        config:
            A mapping produced by :meth:`config_dict`; ``alphabet`` is
            passed on when present.  Older configs also carry
            ``engine: "vectorized"``, which is accepted (see
            :func:`~repro.core.legacy.check_legacy_config`).

        Returns
        -------
        WindowEngine
            An unfitted synthesizer of the calling class with the same
            configuration, ready for :meth:`load_state`.

        Raises
        ------
        repro.exceptions.SerializationError
            If required keys are missing or fail constructor validation,
            or the config was written by the removed scalar engine or with
            float noise, whose continuation cannot be reproduced.
        """
        name = cls.algorithm.replace("_", "-")
        check_legacy_config(config, name)
        try:
            alphabet = {"alphabet": int(config["alphabet"])} if "alphabet" in config else {}
            return cls(
                int(config["horizon"]),
                int(config["window"]),
                rho=float(config["rho"]),
                n_pad=int(config["n_pad"]),
                on_negative=str(config["on_negative"]),
                sensitivity=float(config["sensitivity"]),
                **alphabet,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(f"invalid {name} config: {exc}") from exc

    def state_dict(self, *, copy: bool = True) -> dict:
        """Snapshot the full mid-stream state.

        Parameters
        ----------
        copy:
            Copy the state arrays into the snapshot (default).
            ``copy=False`` returns live views of the engine's buffers —
            the streaming checkpoint writer uses this to spool state into
            the bundle without a second in-RAM copy; such a snapshot must
            be consumed before the engine advances.  The window codes and
            buffered columns are held narrow, so their ``int64`` leaves
            are fresh arrays either way.

        Returns
        -------
        dict
            The clock, population size, per-individual window codes, the
            pre-window column buffer, every released histogram, the
            negative-count event counter, the synthetic store, the zCDP
            ledger, and the shared generator's bit state (the histogram
            mechanism and the store draw from the same generator, so one
            snapshot covers all noise and record randomness).  Array
            leaves stay NumPy arrays for the :mod:`repro.serve` bundle
            layer.
        """
        released = sorted(self._histograms)
        state = {
            "t": self._t,
            "n": self._n,
            "negative_events": self._negative_events,
            "generator": generator_state(self._generator),
            "accountant": None if self.accountant is None else self.accountant.to_dict(),
            "released_times": released,
            "recent_count": len(self._recent_columns),
        }
        if self._ledger is not None:
            state["ledger"] = self._ledger.state_dict(copy=copy)
        # Codes and buffered reports are held narrow and snapshot as int64,
        # so these leaves are fresh arrays whatever ``copy`` says.
        if self._window_codes is not None:
            state["window_codes"] = self._window_codes.astype(np.int64)
        for index, column in enumerate(self._recent_columns):
            state[f"recent_{index}"] = column.astype(np.int64)
        if released:
            # Releases fill block columns 0..len-1 in round order, so the
            # transposed prefix *is* the stacked released-histogram table.
            block = self._hist_block[:, : len(released)].T
            state["histograms"] = np.ascontiguousarray(block) if copy else block
        if self._store is not None:
            state["store"] = self._store.state_dict(copy=copy)
        return state

    def leaf_digests(self) -> dict:
        """Fingerprint digests of the append-only state leaves, cached.

        Returns
        -------
        dict
            ``"store/matrix"`` and ``"ledger/entry_round"`` (those that
            exist yet), keyed like :meth:`state_dict`'s array leaves,
            mapped to the leaf digests
            :func:`repro.serve.checkpoint.state_fingerprint` would
            compute for them from scratch.  The store and the ledger
            catch their digests up here, so :meth:`observe` never
            hashes and a fingerprint costs what changed since the last
            one.
        """
        digests = {}
        if self._ledger is not None:
            digests["ledger/entry_round"] = self._ledger.entry_round_digest()
        if self._store is not None:
            digests["store/matrix"] = self._store.matrix_digest()
        return digests

    def load_state(self, state: dict) -> None:
        """Restore a snapshot taken by :meth:`state_dict` in place.

        Must be called on a *fresh* synthesizer built with the same
        configuration (use ``from_config``).  After loading, every
        subsequent :meth:`observe` is byte-identical to the
        uninterrupted run, noise included.

        Parameters
        ----------
        state:
            A snapshot produced by :meth:`state_dict`.

        Raises
        ------
        repro.exceptions.SerializationError
            If the snapshot is structurally invalid or disagrees with
            this synthesizer's configuration.
        """
        if self._t:
            raise SerializationError("load_state() requires a fresh synthesizer")
        try:
            t = int(state["t"])
            n = state["n"]
            released = [int(x) for x in state["released_times"]]
            recent_count = int(state["recent_count"])
            self._negative_events = int(state["negative_events"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(
                f"invalid {self.algorithm} state: {exc}"
            ) from exc
        if not 0 <= t <= self.horizon:
            raise SerializationError(f"clock {t} outside [0, horizon={self.horizon}]")
        if (n is None) != (t == 0):
            raise SerializationError(f"population {n!r} inconsistent with clock {t}")
        # Structural invariants of the streaming loop: before round k the
        # columns are buffered (and only then); from round k on the
        # per-individual window codes and the store must exist.
        expected_recent = t if t < self.window else 0
        if recent_count != expected_recent:
            raise SerializationError(
                f"snapshot buffers {recent_count} pre-window columns at clock "
                f"{t} (window {self.window}); expected {expected_recent}"
            )
        if t >= self.window and "window_codes" not in state:
            raise SerializationError(
                f"snapshot at clock {t} is missing window codes "
                f"(required from round {self.window} on)"
            )
        if t >= self.window and "store" not in state:
            raise SerializationError(
                f"snapshot at clock {t} is missing the synthetic store "
                f"(required from round {self.window} on)"
            )
        restore_generator_state(self._generator, state["generator"])
        if state.get("accountant") is None:
            if self.accountant is not None:
                raise SerializationError("snapshot has no ledger but rho is finite")
        else:
            if self.accountant is None:
                raise SerializationError("snapshot has a ledger but rho is infinite")
            self.accountant = ZCDPAccountant.from_dict(state["accountant"])
        self._t = t
        self._n = None if n is None else int(n)
        if self._n is not None:
            self._ledger = PopulationLedger.from_state(state.get("ledger", {}))
            if self._ledger.n_ever < self._n:
                raise SerializationError(
                    f"lifespan table covers {self._ledger.n_ever} individuals "
                    f"but the initial population was {self._n}"
                )
        n_ever = None if self._n is None else self._ledger.n_ever
        self._recent_columns = [
            self._narrow_leaf(state, f"recent_{index}", n_ever, self.alphabet)
            for index in range(recent_count)
        ]
        if "window_codes" in state:
            self._window_codes = self._narrow_leaf(
                state, "window_codes", n_ever, self.alphabet**self.window
            )
        self._histograms = {}
        if released:
            # One release per round from round k on — anything else cannot
            # have come from this engine and would scramble the block.
            if len(released) > self.update_steps or released != list(
                range(self.window, self.window + len(released))
            ):
                raise SerializationError(
                    f"released times {released} are not the contiguous run "
                    f"{self.window}..{self.window + len(released) - 1}"
                )
            try:
                stacked = np.array(state["histograms"], dtype=np.int64)
            except (KeyError, TypeError, ValueError) as exc:
                raise SerializationError(
                f"invalid {self.algorithm} state: {exc}"
            ) from exc
            n_bins = self.alphabet**self.window
            if stacked.shape != (len(released), n_bins):
                raise SerializationError(
                    f"histogram block has shape {stacked.shape}, expected "
                    f"{(len(released), n_bins)}"
                )
            self._hist_block[:, : len(released)] = stacked.T
            self._histograms = {
                round_t: self._hist_block[:, index]
                for index, round_t in enumerate(released)
            }
        if "store" in state:
            self._store = WindowSyntheticStore.from_state(
                state["store"], self._generator
            )
            if self._store.window != self.window or self._store.horizon != self.horizon:
                raise SerializationError(
                    "store dimensions disagree with the synthesizer configuration"
                )
            if self._store.alphabet != self.alphabet:
                raise SerializationError(
                    f"store alphabet {self._store.alphabet} disagrees with the "
                    f"synthesizer alphabet {self.alphabet}"
                )
        self._version += 1

    def _narrow_leaf(self, state: dict, key: str, n_ever, bound: int) -> np.ndarray:
        """Snapshot leaf ``key`` in the narrow code dtype, checked first.

        The per-individual leaves (``window_codes`` and the buffered
        ``recent_*`` columns) must be 1-D integer arrays of length
        ``n_ever`` with values in ``[0, bound)`` — anything else is a
        state Algorithm 1 cannot produce, which a narrowing cast would
        wrap or truncate into a plausible one.  Always returns a fresh
        array, so advancing the engine never writes into the snapshot.

        Raises
        ------
        repro.exceptions.SerializationError
            On a missing leaf or the first violated rule.
        """
        try:
            values = np.asarray(state[key])
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(f"invalid {self.algorithm} state: {exc!r}") from exc
        if n_ever is None or values.shape != (n_ever,):
            raise SerializationError(
                f"{key} has shape {values.shape}, expected ({n_ever},)"
            )
        if values.dtype.kind not in "iu":
            raise SerializationError(
                f"{key} must hold integers, got dtype {values.dtype}"
            )
        if values.size:
            low, high = int(values.min()), int(values.max())
            if low < 0 or high >= bound:
                raise SerializationError(
                    f"{key} holds {low if low < 0 else high}, outside [0, {bound})"
                )
        return values.astype(self._code_dtype)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _project(
        self, previous: np.ndarray, noisy: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """Consistency projection, dispatched on the alphabet.

        ``q = 2`` runs the paper's fair ``+-1/2`` pair correction —
        unchanged from the pre-engine binary implementation, generator
        stream included; ``q > 2`` runs the grouped base-``q`` correction.
        """
        if self.alphabet == 2:
            new_counts, events = apply_overlap_correction(
                previous, noisy, self._generator, on_negative=self.on_negative
            )
            assert check_window_consistency(previous, new_counts)
            return new_counts, events
        new_counts, events = apply_group_correction(
            previous,
            noisy,
            self.alphabet,
            self._generator,
            on_negative=self.on_negative,
        )
        assert check_group_consistency(previous, new_counts, self.alphabet)
        return new_counts, events

    def _update_step(
        self, true_counts: np.ndarray, entrants: int = 0, exit_count: int = 0
    ) -> None:
        """One Algorithm-1 update: noise, project, extend."""
        if self.accountant is not None:
            self.accountant.charge(
                self._mechanism.rho_per_release, label=f"window histogram t={self._t}"
            )
        noisy = self._mechanism.release(true_counts + self.padding.n_pad)

        if self._store is None:
            # t = k: materialize any dataset matching the noisy histogram.
            initial = noisy
            negative = initial < 0
            if negative.any():
                if self.on_negative == "raise":
                    bad = int(np.flatnonzero(negative)[0])
                    raise NegativeCountError(
                        f"initial noisy count for bin {bad} is {initial[bad]}; "
                        "increase n_pad or use on_negative='redistribute'"
                    )
                self._negative_events += int(negative.sum())
                initial = np.clip(initial, 0, None)
            self._store = WindowSyntheticStore(
                initial,
                self.window,
                self.horizon,
                self._generator,
                alphabet=self.alphabet,
            )
            departed = self._ledger.n_ever - self._ledger.n_active
            if departed:
                # Pre-window departures: mirror them in the synthetic
                # population's active bookkeeping (capped by the noisy
                # synthetic population size).
                self._store.retire(min(departed, self._store.n_active))
            self._record_histogram(initial.astype(np.int64))
            return

        previous = self._histograms[self._t - 1]
        if entrants:
            # Zero-fill: this round's entrants were retroactively present
            # at t-1 with the all-zero window code, so the previous
            # histogram is credited at bin 0 before the consistency
            # projection, and the store admits matching all-zero records.
            previous = previous.copy()
            previous[0] += entrants
            self._store.admit(entrants)
        if exit_count:
            self._store.retire(min(exit_count, self._store.n_active))
        new_counts, events = self._project(previous, noisy)
        self._negative_events += events
        self._store.extend(new_counts)
        self._record_histogram(new_counts)

    def _record_histogram(self, counts: np.ndarray) -> None:
        """File round ``t``'s histogram into its block column."""
        column = self._hist_block[:, self._t - self.window]
        column[:] = counts
        self._histograms[self._t] = column
