"""Algorithm 2: continual DP synthetic data for cumulative time queries.

One DP stream counter per Hamming-weight threshold ``b = 1, ..., T`` tracks
``S_b^t = #{i : weight_i(t) >= b}`` via its increments
``z_b^t = #{i : weight_i(t-1) = b-1 and x_i^t = 1}`` (each individual
contributes at most once to each threshold's stream, so neighboring
datasets induce neighboring streams).  Per round the synthesizer:

1. feeds every active counter its increment and reads the noisy totals
   ``S~_b^t`` (stage 1);
2. monotonizes across counters,
   ``S^_b^t = min(max(S~_b^t, S^_b^{t-1}), S^_{b-1}^{t-1})`` — Lemma 4.2
   shows this clamping never increases the worst-case error — and extends
   ``z^_b^t = S^_b^t - S^_b^{t-1}`` synthetic records of weight ``b - 1``
   by a 1 (stage 2).

The synthetic population has size ``m = n`` and its weight census equals
``S^^t`` *exactly* at every round, so cumulative queries read off the
synthetic data with exactly the monotonized counters' error
(Theorem 4.4 / Corollary B.1).

The counter is pluggable (paper §1.1: "it could be implemented using an
arbitrary differentially private algorithm for tracking the sum of a stream
of bits"): pass any name registered in :mod:`repro.streams.registry`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.budget import allocate_budget
from repro.core.monotonize import is_monotone_table, monotonize_row
from repro.core.population import PopulationLedger, validate_binary_column
from repro.core.synthetic_store import CumulativeSyntheticStore
from repro.data.dataset import DynamicPanel, LongitudinalDataset
from repro.dp.accountant import ZCDPAccountant
from repro.exceptions import (
    ConfigurationError,
    DataValidationError,
    NotFittedError,
    SerializationError,
)
from repro.queries.cumulative import HammingAtLeast, HammingExactly
from repro.queries.plan import AnswerCache, compile_cumulative, workload_key
from repro.rng import (
    SeedLike,
    as_generator,
    generator_state,
    restore_generator_state,
    spawn,
)
from repro.streams.registry import available_counters, make_bank
from repro.types import AttributeFrame

__all__ = [
    "CumulativeSynthesizer",
    "CumulativeRelease",
    "stream_increments",
    "counter_charge_label",
]


def stream_increments(weights: np.ndarray, column: np.ndarray, t: int) -> np.ndarray:
    """Round-``t`` stream increments, advancing ``weights`` in place.

    ``z[b-1]`` counts the individuals whose Hamming weight was exactly
    ``b - 1`` entering round ``t`` and who report 1 this round — the
    increment fed to threshold ``b``'s counter.  Shared by the serial
    synthesizer and the batched replication engine
    (:mod:`repro.core.replicated`) so their stage-1 inputs cannot drift.
    """
    z = np.bincount(weights[column == 1], minlength=t)[:t]
    weights += column
    return z


def counter_charge_label(b: int) -> str:
    """Ledger label for threshold ``b``'s stream counter.

    Shared with the batched replication engine, whose "identical zCDP
    ledger" contract compares these labels entry for entry.
    """
    return f"stream counter b={b}"


class CumulativeRelease:
    """The public artifact of a cumulative run.

    Exposes the synthetic panel, the monotonized threshold table
    ``S^_b^t``, and direct answers for :class:`HammingAtLeast` /
    :class:`HammingExactly` queries.

    Parameters
    ----------
    synthesizer:
        The owning :class:`CumulativeSynthesizer`; the release is a live
        view of its state (one cached instance per synthesizer), not a
        frozen copy.
    """

    def __init__(self, synthesizer: "CumulativeSynthesizer"):
        self._synth = synthesizer

    @property
    def t(self) -> int:
        """Rounds released so far."""
        return self._synth.t

    @property
    def m(self) -> int:
        """Number of synthetic individuals (the ever-admitted count)."""
        if self._synth._store is None:
            raise NotFittedError("no data observed yet")
        return self._synth._store.m

    def synthetic_data(self, t: int | None = None) -> LongitudinalDataset:
        """The synthetic panel through round ``t`` (default: latest).

        The records are drawn on first request (see
        :class:`CumulativeSynthesizer`); replication runs that only read
        query answers never pay for them.
        """
        if self._synth._store is None or self._synth.t == 0:
            raise NotFittedError("no data observed yet")
        return self._synth._materialized_store().as_dataset(t)

    def threshold_table(self) -> np.ndarray:
        """Monotonized counts ``S^_b^t``: shape ``(t+1, T+1)``, row 0 initial."""
        if self._synth._table is None:
            raise NotFittedError("no data observed yet")
        return self._synth._table[: self._synth.t + 1].copy()

    def threshold_count(self, b: int, t: int) -> int:
        """``S^_b^t`` — synthetic individuals with weight >= ``b`` at ``t``."""
        if self._synth._table is None:
            raise NotFittedError("no data observed yet")
        if not 0 <= b <= self._synth.horizon:
            raise ConfigurationError(f"b must lie in [0, {self._synth.horizon}], got {b}")
        if not 1 <= t <= self._synth.t:
            raise ConfigurationError(f"t must lie in [1, {self._synth.t}], got {t}")
        return int(self._synth._table[t, b])

    def answer(self, query, t: int) -> float:
        """Answer a cumulative query at round ``t``.

        Answers are fractions of the population *as of round* ``t`` — the
        ever-admitted count ``S^_0^t``, which equals ``m`` (and ``n``)
        whenever the population is static.  Under churn, departed
        individuals keep counting with their frozen weights (the
        zero-fill convention).
        """
        population = self.threshold_count(0, t)
        if isinstance(query, HammingAtLeast):
            return (
                self.threshold_count(query.b, t) / population
                if query.b <= self._synth.horizon
                else 0.0
            )
        if isinstance(query, HammingExactly):
            # Thresholds above the horizon are structurally empty (nobody
            # can have more ones than rounds) — same convention as the
            # at-least query and the batched replicated release.
            at_least_b = (
                self.threshold_count(query.b, t)
                if query.b <= self._synth.horizon
                else 0
            )
            above = (
                self.threshold_count(query.b + 1, t)
                if query.b + 1 <= self._synth.horizon
                else 0
            )
            return (at_least_b - above) / population
        raise ConfigurationError(
            f"cumulative release answers HammingAtLeast/HammingExactly, got {query!r}"
        )

    @property
    def version(self) -> int:
        """Monotone state version: bumped by every mutation of the owner.

        ``observe()``, ``load_state()``, and ``extend_horizon()`` each
        increment it, so equal versions guarantee equal answers — the
        key invariant behind the batched answer cache.
        """
        return self._synth._version

    def answer_batch(self, queries, times) -> np.ndarray:
        """Answer a Hamming-threshold workload as one table gather.

        Compiles the workload through
        :func:`repro.queries.plan.compile_cumulative` and evaluates the
        whole ``(len(queries), len(times))`` grid with a single NumPy
        gather over the threshold table plus one elementwise division —
        **bit-identical** with looping :meth:`answer` over every cell
        (integer counts divide exactly the same either way).  Cells with
        ``t < 1`` are ``NaN``; any other out-of-range ``t`` raises like
        the scalar call.  Results are memoized per release version, so
        repeating a workload after a round costs one dictionary lookup.
        """
        queries = list(queries)
        times = [int(t) for t in times]
        key = workload_key(queries, times)
        cache = self._synth._answer_cache
        version = self.version
        if key is not None:
            hit = cache.get(version, key)
            if hit is not None:
                return hit
        if self._synth._table is None:
            raise NotFittedError("no data observed yet")
        for query in queries:
            if not isinstance(query, (HammingAtLeast, HammingExactly)):
                raise ConfigurationError(
                    "cumulative release answers HammingAtLeast/HammingExactly, "
                    f"got {query!r}"
                )
        for t in times:
            if t >= 1 and t > self._synth.t:
                raise ConfigurationError(
                    f"t must lie in [1, {self._synth.t}], got {t}"
                )
        horizon = self._synth.horizon
        lower, upper = compile_cumulative(queries, horizon)
        out = np.full((len(queries), len(times)), np.nan, dtype=np.float64)
        valid = [i for i, t in enumerate(times) if t >= 1]
        if valid:
            t_arr = np.asarray([times[i] for i in valid], dtype=np.int64)
            table = self._synth._table
            augmented = np.concatenate(
                [table, np.zeros((table.shape[0], 1), dtype=np.int64)], axis=1
            )
            sub = augmented[t_arr]
            counts = sub[:, lower] - sub[:, upper]
            out[:, valid] = (counts / sub[:, :1]).T
        if key is not None:
            cache.put(version, key, out)
        return out

    def __repr__(self) -> str:
        return f"CumulativeRelease(t={self.t}, m={self.m if self._synth._store else '?'})"


class CumulativeSynthesizer:
    """Algorithm 2 — continual synthetic data for cumulative queries.

    Parameters
    ----------
    horizon:
        Known time horizon ``T``.
    rho:
        Total zCDP budget; split across the ``T`` per-threshold counters by
        ``budget``.  ``math.inf`` disables noise.
    counter:
        Registered stream-counter name (default ``"binary_tree"``,
        the paper's choice).
    budget:
        ``"corollary_b1"`` (default), ``"uniform"``, or an explicit
        length-``T`` sequence of per-threshold budgets summing to ``rho``.
    noise_method:
        ``"exact"`` or ``"vectorized"`` noise backend for the counters.
    counter_kwargs:
        Extra keyword arguments forwarded to every counter constructor.

    Notes
    -----
    All ``T`` per-threshold counters advance as one
    :class:`~repro.streams.bank.CounterBank` (counters without a native
    bank, or with ``counter_kwargs``, run inside a
    :class:`~repro.streams.bank.FallbackBank`).

    Synthetic records are drawn lazily: each round's prescribed
    increments are queued and replayed in release order the first time
    :meth:`CumulativeRelease.synthetic_data` is requested.  The record
    draws are the only consumers of the synthesizer's generator after
    initialization, so the panel is the one drawing every round would
    give, and pure query-answering runs (the replication harness answers
    everything from the threshold table) never pay for it.  A churned
    round replays the queue at once and keeps the store current from
    then on.
    """

    def __init__(
        self,
        horizon: int,
        rho: float,
        *,
        counter: str = "binary_tree",
        budget="corollary_b1",
        seed: SeedLike = None,
        noise_method: str = "exact",
        counter_kwargs: dict | None = None,
    ):
        if horizon <= 0:
            raise ConfigurationError(f"horizon must be positive, got {horizon}")
        if not rho > 0:
            raise ConfigurationError(f"rho must be positive (or math.inf), got {rho}")
        if counter not in available_counters():
            raise ConfigurationError(
                f"unknown counter {counter!r}; available: {sorted(available_counters())}"
            )
        self.horizon = int(horizon)
        self.rho = float(rho)
        self.counter_name = counter
        self.noise_method = noise_method
        self._counter_kwargs = dict(counter_kwargs or {})
        self._generator = as_generator(seed)
        self.rho_per_threshold = allocate_budget(self.horizon, self.rho, budget)
        self.accountant = None if math.isinf(self.rho) else ZCDPAccountant(self.rho)

        # Counter b (1-indexed) sees the stream z_b^t for t = b..T, of
        # length T - b + 1.  One seed stream per threshold: a fallback bank
        # hands seed b - 1 to counter b, a native bank draws from seed 0.
        self._counter_seeds = spawn(self._generator, self.horizon)
        self._bank = make_bank(
            counter,
            horizon=self.horizon,
            rho_per_threshold=self.rho_per_threshold,
            seeds=self._counter_seeds,
            noise_method=noise_method,
            counter_kwargs=self._counter_kwargs,
        )
        self._release_view = CumulativeRelease(self)
        self._version = 0
        self._answer_cache = AnswerCache()

        self._t = 0
        self._horizon_extended = False
        self._n: int | None = None  # initial (round-1) population
        self._ledger: PopulationLedger | None = None
        self._orig_weights: np.ndarray | None = None
        self._store: CumulativeSyntheticStore | None = None
        self._pending_increments: list[np.ndarray] = []
        self._table: np.ndarray | None = None  # S^ table, (T+1) x (T+1)

    # ------------------------------------------------------------------
    # Streaming API
    # ------------------------------------------------------------------

    @property
    def t(self) -> int:
        """Rounds observed so far."""
        return self._t

    @property
    def release(self) -> CumulativeRelease:
        """View of everything released so far (one cached instance)."""
        return self._release_view

    @property
    def bank(self):
        """The counter bank advancing every per-threshold counter."""
        return self._bank

    def observe(self, data, *, entrants: int = 0, exits=None) -> CumulativeRelease:
        """Consume the round-``t`` report vector ``D_t`` and update.

        Parameters
        ----------
        data:
            The round's 0/1 reports, one entry per *currently active*
            individual in ascending id (admission) order; this round's
            entrants report in the final ``entrants`` entries.  A 1-D
            vector, or a width-1 :class:`~repro.types.AttributeFrame`.
        entrants:
            Number of individuals entering this round (appended at the
            end of the column with fresh ids).  In round 1 the whole
            column is the initial admission, so ``entrants`` may flag at
            most the full column.
        exits:
            Ids of previously active individuals absent from this round
            on.  Exits are permanent; under the zero-fill convention
            their Hamming weights freeze.  Retiring an already-departed
            or unknown id raises — re-entry is not part of the model.

        Raises
        ------
        repro.exceptions.DataValidationError
            On non-binary input, a column length that disagrees with the
            declared churn, rounds past the horizon, or invalid churn
            declarations (negative entrants, re-used or unknown exit
            ids).
        """
        if isinstance(data, AttributeFrame):
            data = data.sole()
        column = np.asarray(data)
        if column.ndim != 1:
            raise DataValidationError(f"column must be 1-D, got shape {column.shape}")
        validate_binary_column(column)
        if self._t >= self.horizon:
            raise DataValidationError(f"horizon {self.horizon} already exhausted")
        entrants = int(entrants)
        if entrants < 0:
            raise DataValidationError(f"entrants must be non-negative, got {entrants}")
        exit_ids = np.asarray([] if exits is None else exits, dtype=np.int64)
        t = self._t + 1
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
            self._initialize(int(column.shape[0]))
        else:
            expected = self._ledger.n_active - exit_ids.size + entrants
            if column.shape[0] != expected:
                raise DataValidationError(
                    f"column has {column.shape[0]} entries, expected {expected} "
                    f"(n_active={self._ledger.n_active}, {exit_ids.size} exits, "
                    f"{entrants} entrants)"
                )
            # Validation (and the permanent-exit check) happens before the
            # clock advances, so a rejected round leaves the stream intact.
            self._ledger.retire(exit_ids, t)
            self._ledger.admit(entrants, t)
            if entrants:
                self._orig_weights = np.concatenate(
                    [self._orig_weights, np.zeros(entrants, dtype=np.int64)]
                )
        self._t = t
        column = column.astype(np.int64)

        # Stream increments z_b^t from the *original* data, zero-filled to
        # the ever-admitted population (departed individuals structurally
        # report 0, so their weights freeze).
        full_column = self._ledger.scatter_column(column)
        z = stream_increments(self._orig_weights, full_column, t)

        # Stage 1: one batched advance of every active counter; threshold
        # b = t activates this round, so its budget is charged now.
        noisy = np.rint(self._bank.feed(z)).astype(np.int64)
        if self.accountant is not None:
            self.accountant.charge(
                float(self.rho_per_threshold[t - 1]), label=counter_charge_label(t)
            )

        # Stage 2: monotonize against the previous round and extend records.
        n_ever = self._ledger.n_ever
        previous = self._table[t - 1, : t + 1]
        if int(previous[0]) != n_ever:
            # Zero-fill: this round's entrants are retroactively weight-0
            # members of the previous round, so the clamp ceiling S^_0 is
            # the grown ever-population.
            previous = previous.copy()
            previous[0] = n_ever
        clamped = monotonize_row(noisy, previous, population=n_ever)
        increments = clamped - previous[1 : t + 1]  # z^_b^t for b = 1..t

        if self._ledger.churned:
            # Churn keeps the store current: entrants must be admitted
            # before the round they first report in, so deferred rounds are
            # replayed now (bit-exact with extending every round) and every
            # later round extends at once.
            store = self._materialized_store()
            store.retire(int(exit_ids.size))
            store.admit(entrants)
            store.extend(increments)
        else:
            self._pending_increments.append(increments)  # by previous weight b-1

        self._table[t, 1 : t + 1] = clamped
        self._table[t, 0] = n_ever
        # Thresholds above t keep their previous (zero) values.
        self._table[t, t + 1 :] = self._table[t - 1, t + 1 :]
        self._version += 1
        return self.release

    def run(self, dataset) -> CumulativeRelease:
        """Batch driver: feed every column of ``dataset`` and return the release.

        Parameters
        ----------
        dataset:
            A static :class:`~repro.data.dataset.LongitudinalDataset`
            (every individual present for the whole horizon) or a
            :class:`~repro.data.dataset.DynamicPanel`, whose per-round
            entry/exit events are replayed through
            :meth:`observe`'s churn parameters.
        """
        if dataset.horizon != self.horizon:
            raise DataValidationError(
                f"dataset horizon {dataset.horizon} != synthesizer horizon {self.horizon}"
            )
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
            individual.  Empty before the first round.

        Raises
        ------
        repro.exceptions.NotFittedError
            Before any data has been observed.
        """
        if self._ledger is None:
            raise NotFittedError("no data observed yet")
        return self._ledger.lifespans()

    def extend_horizon(self, k: int, rho_new) -> None:
        """Grow the release schedule by ``k`` rounds: ``T -> T + k``.

        A dynamic population can outlive its planned horizon (a churning
        panel that keeps adding waves); this appends ``k`` future rounds
        — and the ``k`` new Hamming-weight thresholds they enable — to a
        fresh *or mid-stream* synthesizer.  The counter bank appends rows via
        :meth:`~repro.streams.bank.CounterBank.extend_rows` without
        perturbing existing rows' RNG streams; the threshold table and
        the synthetic store widen in place.

        **Churn-aware accounting.**  Existing rows keep their original
        noise calibration, so their longer streams realize strictly more
        zCDP; that extra cost plus the new thresholds' budgets is added
        to the accountant's total via
        :meth:`~repro.dp.accountant.ZCDPAccountant.extend_budget` — the
        privacy guarantee is *explicitly weakened* to the new total, and
        each existing row's surcharge appears as a labeled ledger entry.

        Parameters
        ----------
        k:
            Number of appended rounds (positive).
        rho_new:
            Per-threshold zCDP budgets for the new thresholds
            ``T+1 .. T+k``: a scalar (replicated ``k`` times) or a
            length-``k`` sequence.  Must be ``math.inf`` exactly when
            the synthesizer runs noiseless.

        Raises
        ------
        repro.exceptions.ConfigurationError
            On banks without native row growth (``sqrt_factorization``
            and fallback-wrapped counters), or on malformed ``rho_new``.

        Notes
        -----
        Checkpointing is not supported across an extension:
        :meth:`state_dict` fails closed afterwards, because a restored
        synthesizer rebuilt from the extended configuration would
        recalibrate the appended levels differently than the live bank.
        """
        if k <= 0:
            raise ConfigurationError(f"k must be positive, got {k}")
        rho_vec = np.asarray(rho_new, dtype=np.float64)
        if rho_vec.ndim == 0:
            rho_vec = np.full(k, float(rho_vec))
        if self.accountant is None and not np.isinf(rho_vec).all():
            raise ConfigurationError(
                "a noiseless synthesizer (rho=inf) extends with rho_new=math.inf"
            )
        if self.accountant is not None and not np.isfinite(rho_vec).all():
            raise ConfigurationError(
                "a noisy synthesizer extends with finite rho_new budgets"
            )
        extra = self._bank.extend_rows(k, rho_vec)  # validates k and rho_new
        old_horizon = self.horizon
        self.horizon += int(k)
        self.rho_per_threshold = np.concatenate([self.rho_per_threshold, rho_vec])
        # _counter_seeds stays at its original length: the extensible banks
        # draw from their own generator, and serialization is unreachable
        # after an extension — spawning seeds here would only perturb the
        # shared record-draw generator.
        if self.accountant is not None:
            self.accountant.extend_budget(
                float(rho_vec.sum() + extra.sum()),
                reason=f"horizon extension +{k} rounds",
            )
            self.rho = self.accountant.total_rho
            for b in range(1, old_horizon + 1):
                if extra[b - 1] > 0:
                    self.accountant.charge(
                        float(extra[b - 1]),
                        label=f"horizon extension surcharge, {counter_charge_label(b)}",
                    )
        if self._table is not None:
            table = np.zeros((self.horizon + 1, self.horizon + 1), dtype=np.int64)
            table[: old_horizon + 1, : old_horizon + 1] = self._table
            self._table = table
            self._store.extend_horizon(int(k))
        self._horizon_extended = True
        self._version += 1

    def counter_error_stddev(self, b: int, position: int) -> float | None:
        """Error stddev of threshold ``b``'s counter at local stream ``position``.

        Accessor used by the confidence-interval machinery: returns
        ``None`` while threshold ``b`` has not activated yet (its estimate
        is the exact constant 0), otherwise the bank row's analytic
        stddev.
        """
        if not 1 <= b <= self.horizon:
            raise ConfigurationError(f"b must lie in [1, {self.horizon}], got {b}")
        if b > self._bank.active:
            return None
        return self._bank.error_stddev(b, position)

    def check_invariants(self) -> bool:
        """Verify the release invariants (used by tests and examples).

        The monotonicity constraints hold on the whole table and the
        synthetic weight census equals the table row exactly.
        """
        if self._table is None or self._t == 0:
            return True
        table = self._table[: self._t + 1]
        population = table[:, 0] if self._ledger.churned else self._n
        if not is_monotone_table(table, population=population):
            return False
        census = self._materialized_store().threshold_census()
        return bool((census == self._table[self._t]).all())

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def config_dict(self) -> dict:
        """The constructor arguments needed to rebuild this synthesizer.

        Returns
        -------
        dict
            JSON-safe mapping with ``algorithm: "cumulative"`` plus the
            horizon, budget (as the resolved explicit per-threshold
            vector), counter name, noise method, and counter kwargs.
            :meth:`from_config` consumes it;
            the seed is deliberately absent — a restored synthesizer gets
            its randomness from the serialized generator states, not from
            re-seeding.
        """
        return {
            "algorithm": "cumulative",
            "horizon": self.horizon,
            "rho": self.rho,
            "counter": self.counter_name,
            "budget": [float(r) for r in self.rho_per_threshold],
            "noise_method": self.noise_method,
            "counter_kwargs": dict(self._counter_kwargs),
        }

    @classmethod
    def from_config(cls, config: dict) -> "CumulativeSynthesizer":
        """Rebuild a fresh synthesizer from :meth:`config_dict` output.

        Parameters
        ----------
        config:
            A mapping produced by :meth:`config_dict`.  Older configs
            also carry ``engine: "vectorized"`` and ``materialize:
            "lazy"`` or ``"eager"``; both mean today's behaviour and are
            accepted.

        Returns
        -------
        CumulativeSynthesizer
            An unfitted synthesizer with the same configuration, ready
            for :meth:`load_state`.

        Raises
        ------
        repro.exceptions.SerializationError
            If required keys are missing or fail constructor validation,
            or the config was written by the removed scalar engine
            (``engine: "scalar"``), whose continuation cannot be
            reproduced.
        """
        engine = config.get("engine", "vectorized")
        materialize = config.get("materialize", "lazy")
        if engine != "vectorized" or materialize not in ("lazy", "eager"):
            raise SerializationError(
                f"cumulative config has engine {engine!r} and materialization "
                f"{materialize!r}; only the vectorized engine's bundles can be "
                "continued"
            )
        try:
            return cls(
                int(config["horizon"]),
                float(config["rho"]),
                counter=str(config["counter"]),
                budget=config["budget"],
                noise_method=str(config["noise_method"]),
                counter_kwargs=dict(config["counter_kwargs"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(f"invalid cumulative config: {exc}") from exc

    def state_dict(self, *, copy: bool = True) -> dict:
        """Snapshot the full mid-stream state.

        Parameters
        ----------
        copy:
            Copy the state arrays into the snapshot (default).
            ``copy=False`` returns live views of the synthesizer's
            buffers — the streaming checkpoint writer uses this to spool
            state into the bundle without a second in-RAM copy; such a
            snapshot must be consumed before the next round.

        Returns
        -------
        dict
            The clock, population size, original-data weights, the
            monotonized threshold table, any deferred (lazy) record
            increments, the synthetic store, the zCDP ledger, the main
            generator's bit state, the per-threshold counter seed states,
            and the counter bank's state.  Array leaves stay NumPy arrays for the
            :mod:`repro.serve` bundle layer; everything else is
            JSON-safe.
        """
        if self._horizon_extended:
            raise SerializationError(
                "checkpointing across extend_horizon() is not supported: a "
                "restored bank would recalibrate the appended rows differently"
            )
        state = {
            "t": self._t,
            "n": self._n,
            "generator": generator_state(self._generator),
            "counter_seeds": [generator_state(g) for g in self._counter_seeds],
            "accountant": None if self.accountant is None else self.accountant.to_dict(),
        }
        if self._n is not None:
            state["ledger"] = self._ledger.state_dict(copy=copy)
            state["orig_weights"] = (
                self._orig_weights.copy() if copy else self._orig_weights
            )
            state["table"] = self._table.copy() if copy else self._table
            state["pending"] = {
                str(index): increments.copy() if copy else increments
                for index, increments in enumerate(self._pending_increments)
            }
            state["pending_count"] = len(self._pending_increments)
            state["store"] = self._store.state_dict(copy=copy)
        state["engine_state"] = {
            "kind": "bank",
            "bank": self._bank.state_dict(copy=copy),
        }
        return state

    def load_state(self, state: dict) -> None:
        """Restore a snapshot taken by :meth:`state_dict` in place.

        Must be called on a *fresh* synthesizer built with the same
        configuration (use :meth:`from_config`).  After loading, every
        subsequent :meth:`observe` — and any deferred synthetic
        record materialization — is byte-identical to the uninterrupted
        run, noise included.

        Parameters
        ----------
        state:
            A snapshot produced by :meth:`state_dict`.

        Raises
        ------
        repro.exceptions.SerializationError
            If the snapshot is structurally invalid, disagrees with this
            synthesizer's configuration (horizon, counter), or its
            ledger exceeds the budget.
        """
        if self._t:
            raise SerializationError("load_state() requires a fresh synthesizer")
        try:
            t = int(state["t"])
            n = state["n"]
            seed_states = list(state["counter_seeds"])
            engine_state = dict(state["engine_state"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(f"invalid cumulative state: {exc}") from exc
        if not 0 <= t <= self.horizon:
            raise SerializationError(f"clock {t} outside [0, horizon={self.horizon}]")
        if len(seed_states) != self.horizon:
            raise SerializationError(
                f"snapshot has {len(seed_states)} counter seeds, "
                f"expected horizon={self.horizon}"
            )
        if (n is None) != (t == 0):
            raise SerializationError(f"population {n!r} inconsistent with clock {t}")
        restore_generator_state(self._generator, state["generator"])
        for generator, seed_state in zip(self._counter_seeds, seed_states):
            restore_generator_state(generator, seed_state)
        if state.get("accountant") is None:
            if self.accountant is not None:
                raise SerializationError("snapshot has no ledger but rho is finite")
        else:
            if self.accountant is None:
                raise SerializationError("snapshot has a ledger but rho is infinite")
            self.accountant = ZCDPAccountant.from_dict(state["accountant"])
        self._t = t
        if n is not None:
            self._n = int(n)
            self._ledger = PopulationLedger.from_state(state.get("ledger", {}))
            try:
                self._orig_weights = np.array(state["orig_weights"], dtype=np.int64)
                table = np.array(state["table"], dtype=np.int64)
                pending = dict(state["pending"])
                pending_keys = sorted(int(key) for key in pending)
                if pending_keys != list(range(len(pending))):
                    raise SerializationError(
                        f"pending increments must cover 0..{len(pending) - 1}, "
                        f"got {pending_keys}"
                    )
                if int(state["pending_count"]) != len(pending):
                    raise SerializationError(
                        f"pending_count={state['pending_count']} disagrees with "
                        f"{len(pending)} pending entries"
                    )
                self._pending_increments = [
                    np.array(pending[str(i)], dtype=np.int64)
                    for i in range(len(pending))
                ]
                self._store = CumulativeSyntheticStore.from_state(
                    state["store"], self._generator
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise SerializationError(f"invalid cumulative state: {exc}") from exc
            if self._ledger.n_ever < self._n:
                raise SerializationError(
                    f"lifespan table covers {self._ledger.n_ever} individuals "
                    f"but the initial population was {self._n}"
                )
            if self._orig_weights.shape != (self._ledger.n_ever,):
                raise SerializationError(
                    f"orig_weights has shape {self._orig_weights.shape}, "
                    f"expected ({self._ledger.n_ever},)"
                )
            expected = (self.horizon + 1, self.horizon + 1)
            if table.shape != expected:
                raise SerializationError(
                    f"threshold table has shape {table.shape}, expected {expected}"
                )
            self._table = table
        kind = engine_state.get("kind")
        if kind != "bank":
            raise SerializationError(
                f"snapshot engine state is {kind!r}, expected 'bank'"
            )
        try:
            bank_state = engine_state["bank"]
        except KeyError as exc:
            raise SerializationError(
                "bank engine state is missing its 'bank' entry"
            ) from exc
        self._bank.load_state(bank_state)
        self._version += 1

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _initialize(self, n: int) -> None:
        if n <= 0:
            raise DataValidationError(f"need at least one individual, got n={n}")
        self._n = n
        self._ledger = PopulationLedger()
        self._ledger.admit(n, 1)
        self._orig_weights = np.zeros(n, dtype=np.int64)
        self._store = CumulativeSyntheticStore(n, self.horizon, self._generator)
        self._pending_increments: list[np.ndarray] = []
        self._table = np.zeros((self.horizon + 1, self.horizon + 1), dtype=np.int64)
        self._table[0, 0] = n
        self._table[:, 0] = n

    def _materialized_store(self) -> CumulativeSyntheticStore:
        """Replay any deferred record draws and return the store.

        Deferred rounds are extended in release order, so the generator
        consumption — and hence the synthetic panel — is identical to
        extending the store every round.
        """
        for increments in self._pending_increments:
            self._store.extend(increments)
        self._pending_increments.clear()
        return self._store
