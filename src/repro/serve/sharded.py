"""Multi-tenant scaling: one logical stream over K independent shards.

A :class:`ShardedService` partitions the population across ``K``
independent :class:`~repro.serve.streaming.StreamingSynthesizer` shards.
Each shard runs the full algorithm on its own disjoint sub-population
with its *own* zCDP accountant — because the shards hold disjoint
individuals, parallel composition applies and the service-wide guarantee
is the **maximum** per-shard spend, not the sum.  Query answers are
merged as population-weighted averages of the per-shard answers, which
for counting queries equals answering from the union of the shards'
synthetic populations.

Shards are independent state machines, and *how* they advance is a
pluggable :class:`~repro.serve.executor.ShardExecutor` strategy:
``executor="serial"`` (default; shards advance one after another) or
``"process"`` (one persistent forked worker per shard, columns staged
through shared memory).  Both produce byte-identical releases, ledgers,
and checkpoint bundles.  Each round extends the release before it, so
:meth:`ShardedService.observe` ingests the round on every shard before
it returns; there is never more than one round in flight.  The whole
service checkpoints into a single bundle that nests one streaming
bundle per shard.

Example
-------
::

    from repro.serve import ShardedService
    from repro.queries import HammingAtLeast

    service = ShardedService(4, algorithm="cumulative",
                             horizon=12, rho=0.005, seed=0,
                             executor="process")
    for column in arriving_columns:     # one (n,) bit vector per round
        service.observe(column)
    service.answer(HammingAtLeast(3), t=6)
    service.checkpoint("service.ckpt")
    service.close()

Multi-attribute streams (``algorithm="multi_attribute"``) feed one
``(n, d)`` :class:`~repro.types.AttributeFrame` (or ``name -> column``
mapping) per round; rows are split across shards exactly like single
columns.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.core.population import (
    validate_column,
    validate_entrants,
    validate_exit_ids,
)
from repro.exceptions import (
    ConfigurationError,
    ConsistencyError,
    DataValidationError,
    DegradedServiceWarning,
    NoiseSamplerWarning,
    NotFittedError,
    RecoveryError,
    SerializationError,
)
from repro.queries.plan import AnswerCache, workload_key
from repro.rng import SeedLike, spawn
from repro.serve.checkpoint import _BufferReader, read_bundle, write_bundle
from repro.serve.executor import make_executor
from repro.serve.streaming import _ALGORITHMS, StreamingSynthesizer
from repro.types import AttributeFrame, as_frame

__all__ = ["ShardedService"]


def _route_entrants(loads: np.ndarray, entrants: int) -> tuple[np.ndarray, np.ndarray]:
    """Least-loaded routing of ``entrants`` arrivals, in closed form.

    Sending each arrival in turn to the shard with the smallest load
    (ties to the lowest index) fills the shards like water: shard ``s``
    offers one slot at every level ``v >= loads[s]``, and arrival ``i``
    takes the ``i``-th slot in ``(level, shard)`` order.  So the final
    water level ``h`` is the largest with at most ``entrants`` slots
    below it, every shard is filled to ``h``, the remaining arrivals
    take level-``h`` slots by shard index, and sorting the taken slots
    by ``(level, shard)`` gives the arrival sequence.

    Parameters
    ----------
    loads:
        Current per-shard loads (non-negative integers).
    entrants:
        Number of arrivals to route.

    Returns
    -------
    tuple
        ``(shard per arrival in arrival order, loads after routing)``,
        both int64 — the same as the one-at-a-time ``argmin`` loop.
    """
    loads = np.asarray(loads, dtype=np.int64)
    if entrants == 0:
        return np.zeros(0, dtype=np.int64), loads.copy()
    ascending = np.sort(loads)
    below = np.cumsum(ascending)  # below[i] = the i + 1 lowest loads, summed
    # Arrivals needed to lift the i lowest shards to the (i+1)-th load.
    lifts = np.arange(1, loads.shape[0]) * ascending[1:] - below[:-1]
    flooded = 1 + int(np.count_nonzero(lifts <= entrants))
    level = (entrants + int(below[flooded - 1])) // flooded
    taken = np.maximum(level - loads, 0)
    remainder = entrants - int(taken.sum())
    taken[np.flatnonzero(loads <= level)[:remainder]] += 1
    shards = np.repeat(np.arange(loads.shape[0], dtype=np.int64), taken)
    starts = np.repeat(np.cumsum(taken) - taken, taken)
    levels = np.repeat(loads, taken) + np.arange(entrants) - starts
    return shards[np.lexsort((shards, levels))], loads + taken


class ShardedService:
    """K independent streaming shards behind one observe/answer façade.

    Parameters
    ----------
    n_shards:
        Number of shards ``K >= 1``.  Individuals are assigned
        contiguously (``np.array_split`` order) on the first observed
        round and the assignment is fixed for the stream's lifetime.
    algorithm:
        ``"cumulative"`` (Algorithm 2, default), ``"fixed_window"``
        (Algorithm 1), ``"categorical_window"`` (Algorithm 1 over a
        multi-category alphabet; pass ``alphabet=`` in the synthesizer
        kwargs), or ``"multi_attribute"`` (per-attribute window engines
        over a shared population; pass ``attributes=`` in the
        synthesizer kwargs and feed ``(n, d)`` frames per round).
    seed:
        Master seed; each shard receives an independent spawned child
        stream, so results are reproducible for any ``K``.
    executor:
        Shard-stepping strategy: ``"serial"`` (default, also ``None``)
        or ``"process"`` — see :mod:`repro.serve.executor`.  Both
        strategies produce byte-identical outputs; ``"process"`` moves
        each shard into a persistent forked worker (so the
        :attr:`shards` property becomes unavailable) and stages round
        columns through shared memory.
    policy:
        Optional :class:`~repro.serve.policy.RetryPolicy`; the executor
        applies its ``rpc_timeout`` to every worker RPC under the
        ``"process"`` strategy (``None`` keeps the block-forever
        default).  The retry/backoff and checkpoint-cadence knobs are
        consumed by the :class:`~repro.serve.supervisor.SupervisedService`
        wrapper, not here.
    **synthesizer_kwargs:
        Forwarded to every shard's synthesizer constructor — for
        ``"cumulative"`` at least ``horizon`` and ``rho``; for
        ``"fixed_window"`` also ``window``.  Note ``rho`` is the
        *per-shard* budget: by parallel composition over disjoint
        sub-populations the whole service satisfies ``rho``-zCDP, not
        ``K * rho``.

    Raises
    ------
    repro.exceptions.ConfigurationError
        If ``n_shards < 1``, the algorithm name is unknown, or the
        executor strategy is unknown/unsupported on this platform.
    """

    def __init__(
        self,
        n_shards: int,
        *,
        algorithm: str = "cumulative",
        seed: SeedLike = None,
        executor: str | None = None,
        policy=None,
        **synthesizer_kwargs,
    ):
        if n_shards < 1:
            raise ConfigurationError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = int(n_shards)
        self.algorithm = str(algorithm)
        self._boundaries: np.ndarray | None = None  # K+1 initial split points
        self._shard_of: np.ndarray | None = None  # ever-id -> shard
        self._active: np.ndarray | None = None  # ever-id -> present now
        self._loads: np.ndarray | None = None  # active count per shard
        self._members: list[np.ndarray] | None = None  # ever-ids per shard
        self._poisoned: str | None = None  # set when shard clocks desync
        self._disabled: dict[int, str] = {}  # shard -> degradation reason
        # One source of truth for supported algorithms: the streaming
        # wrapper's registry, whose constructor classmethods share the
        # algorithm tags (StreamingSynthesizer.cumulative etc.).
        if self.algorithm not in _ALGORITHMS:
            raise ConfigurationError(
                f"algorithm must be one of {sorted(_ALGORITHMS)}, got {algorithm!r}"
            )
        factory = getattr(StreamingSynthesizer, self.algorithm)
        seeds = spawn(seed, self.n_shards)
        shards = [
            factory(seed=shard_seed, **synthesizer_kwargs) for shard_seed in seeds
        ]
        self._adopt_shards(shards, executor, policy)

    def _adopt_shards(
        self,
        shards: list[StreamingSynthesizer],
        executor: str | None,
        policy=None,
    ) -> None:
        """Cache shard-derived config, then hand the shards to an executor.

        Must run *before* the executor is built: the process strategy
        forks immediately, making the parent-side shard objects stale.
        """
        self._horizon = shards[0].horizon
        self._t = shards[0].t
        synthesizer = shards[0].synthesizer
        if self.algorithm == "multi_attribute":
            # Multi-attribute shards validate per attribute, not against
            # one scalar alphabet; cache the declared names/alphabets so
            # round validation never reaches into (possibly forked-away)
            # shard objects.
            self._alphabet = None
            self._attribute_names = synthesizer.attribute_names
            self._alphabets = synthesizer.alphabets
        else:
            self._alphabet = getattr(synthesizer, "alphabet", 2)
            self._attribute_names = None
            self._alphabets = None
        self._executor = make_executor(executor, shards, self.algorithm, policy)
        # Release version for the batched answer cache: bumped by every
        # committed round and by shard disablement (restore builds a fresh
        # service, so its cache starts empty).
        self._version = 0
        self._answer_cache = AnswerCache()

    @classmethod
    def _from_shards(
        cls,
        shards: list[StreamingSynthesizer],
        algorithm: str,
        boundaries: np.ndarray | None,
        shard_of: np.ndarray | None,
        active: np.ndarray | None,
        executor: str | None = "serial",
        policy=None,
    ) -> "ShardedService":
        """Internal: assemble a service around already-built shards."""
        service = object.__new__(cls)
        service.n_shards = len(shards)
        service.algorithm = algorithm
        service._boundaries = boundaries
        service._shard_of = shard_of
        service._active = active
        service._loads = None
        service._members = None
        if shard_of is not None:
            service._rebuild_assignment_caches()
        service._poisoned = None
        service._disabled = {}
        service._adopt_shards(shards, executor, policy)
        return service

    def _rebuild_assignment_caches(self) -> None:
        """Recompute the incremental load/membership caches from scratch.

        Used at restore time (and after round 1 fixes the assignment);
        every later churn round maintains these incrementally instead of
        re-deriving them with a full ``bincount``/``flatnonzero`` sweep
        over the ever-population.
        """
        self._loads = np.bincount(
            self._shard_of[self._active], minlength=self.n_shards
        )[: self.n_shards].astype(np.int64)
        self._members = [
            np.flatnonzero(self._shard_of == s) for s in range(self.n_shards)
        ]

    # ------------------------------------------------------------------
    # Serving API
    # ------------------------------------------------------------------

    @property
    def shards(self) -> tuple[StreamingSynthesizer, ...]:
        """The per-shard streaming synthesizers, in assignment order.

        Raises
        ------
        repro.exceptions.ConfigurationError
            Under the ``"process"`` executor, whose shard objects live
            in worker processes.
        """
        return tuple(self._executor.shards)

    @property
    def executor(self) -> str:
        """The active shard-stepping strategy name."""
        return self._executor.strategy

    @property
    def t(self) -> int:
        """Rounds ingested so far."""
        return self._t

    @property
    def horizon(self) -> int:
        """Total rounds the stream will carry."""
        return self._horizon

    @property
    def n(self) -> int:
        """Currently active population across all shards."""
        if self._active is None:
            raise NotFittedError("no data observed yet")
        return int(self._active.sum())

    @property
    def n_ever(self) -> int:
        """Individuals ever admitted across all shards."""
        if self._shard_of is None:
            raise NotFittedError("no data observed yet")
        return int(self._shard_of.shape[0])

    def shard_slices(self) -> list[slice]:
        """The contiguous index range each shard initially owned.

        Returns
        -------
        list of slice
            ``slice(start, stop)`` per shard, in shard order, covering
            the *round-1* population; later entrants are routed
            individually (see :meth:`shard_members`).

        Raises
        ------
        repro.exceptions.NotFittedError
            Before the first round fixes the assignment.
        """
        if self._boundaries is None:
            raise NotFittedError("no data observed yet")
        bounds = self._boundaries
        return [slice(int(bounds[i]), int(bounds[i + 1])) for i in range(self.n_shards)]

    def shard_members(self) -> list[np.ndarray]:
        """Global ids each shard owns, in shard-admission order.

        Returns
        -------
        list of numpy.ndarray
            Per shard, the ascending global ids ever assigned to it
            (admission order and ascending id order coincide).

        Raises
        ------
        repro.exceptions.NotFittedError
            Before the first round fixes the assignment.
        """
        if self._shard_of is None:
            raise NotFittedError("no data observed yet")
        return [members.copy() for members in self._members]

    def shard_loads(self) -> np.ndarray:
        """Active individuals per shard — the entrant-routing load metric.

        Maintained incrementally as churn is ingested (exits decrement,
        routed entrants increment), so reading it — and the entrant
        routing that consumes it — never re-scans the ever-population.
        """
        if self._active is None:
            raise NotFittedError("no data observed yet")
        return self._loads.copy()

    def observe(self, data, *, entrants: int = 0, exits=None) -> "ShardedService":
        """Ingest the next round: split the reports and advance every shard.

        Parameters
        ----------
        data:
            The round's report vector over the *currently active*
            population, in ascending global id order (this round's
            entrants last) — or, for ``algorithm="multi_attribute"``, an
            ``(n, d)`` :class:`~repro.types.AttributeFrame` (or
            ``name -> column`` mapping) whose rows follow the same
            order.  The first round fixes the initial contiguous shard
            assignment.
        entrants:
            Individuals entering this round.  Each entrant is routed to
            the **least-loaded shard** (fewest active individuals, ties
            to the lowest shard index), which keeps shard populations
            balanced as the panel churns.
        exits:
            Global ids departing as of this round; each is translated to
            its owning shard's local id and retired there.  Exits are
            permanent.

        Returns
        -------
        ShardedService
            ``self``, for chaining with :meth:`answer`.

        Raises
        ------
        repro.exceptions.DataValidationError
            On non-1-D or out-of-alphabet input (non-integral and NaN
            reports included), a column length disagreeing with the
            declared churn, an exhausted horizon, a non-integer or
            negative ``entrants``, invalid or non-integer exit ids, or
            when the initial population is smaller than the shard count.
            This validation happens *before* any shard advances, so a
            rejected column leaves every shard's clock unchanged and the
            corrected column can simply be resubmitted.
        repro.exceptions.ConsistencyError
            If a shard fails *mid-round* (only possible through
            noise-dependent per-shard failures such as
            ``on_negative="raise"``): other shards have already ingested
            the round, so the service marks itself desynchronized and
            refuses all further operations except :meth:`shard_ledgers`
            — restore from the last checkpoint (or use
            ``on_negative="redistribute"``, the default, which cannot
            fail mid-round).  A failure before any shard received the
            round (a full ``/dev/shm``, say) stays retryable unless the
            round's churn was already committed.
        """
        self._check_not_poisoned()
        # All-or-nothing rounds need the value check *before* any shard
        # advances; the legal range is the shards' alphabet (2 for the
        # binary algorithms) or, for multi-attribute streams, each
        # attribute's declared alphabet.
        if self._attribute_names is not None:
            data = as_frame(data, names=self._attribute_names)
            for name, alphabet in zip(self._attribute_names, self._alphabets):
                validate_column(data.column(name), alphabet, label=f"column {name!r}")
            n_reports = data.n
        else:
            data = np.asarray(data)
            if data.ndim != 1:
                raise DataValidationError(
                    f"column must be 1-D, got shape {data.shape}"
                )
            validate_column(data, self._alphabet)
            n_reports = int(data.shape[0])
        if self._t >= self._horizon:
            raise DataValidationError(f"horizon {self._horizon} already exhausted")
        entrants = validate_entrants(entrants)
        # _route_churn type-checks the ids (no truncating cast).
        exit_ids = np.asarray([] if exits is None else exits)
        round_number = self._t + 1
        if self._boundaries is None:
            if exit_ids.size:
                raise DataValidationError(
                    "round 1 admits the initial population; nobody can exit yet"
                )
            if entrants > n_reports:
                raise DataValidationError(
                    f"round 1 declares {entrants} entrants but the column has "
                    f"only {n_reports} reports"
                )
            n = n_reports
            if n < self.n_shards:
                raise DataValidationError(
                    f"population {n} is smaller than n_shards={self.n_shards}"
                )
            sizes = np.array(
                [len(part) for part in np.array_split(np.arange(n), self.n_shards)]
            )
            self._boundaries = np.concatenate([[0], np.cumsum(sizes)])
            self._shard_of = np.repeat(np.arange(self.n_shards), sizes)
            self._active = np.ones(n, dtype=bool)
            self._rebuild_assignment_caches()
        elif n_reports != self.n - exit_ids.size + entrants:
            raise DataValidationError(
                f"column has {n_reports} entries, expected "
                f"{self.n - exit_ids.size + entrants} (n_active={self.n}, "
                f"{exit_ids.size} exits, {entrants} entrants)"
            )
        churn_round = not (
            round_number == 1 or (not exit_ids.size and not entrants)
        )
        if not churn_round:
            never_churned = (
                self._shard_of.shape[0] == int(self._boundaries[-1])
                and self._active.all()
            )
            if never_churned:
                # Fixed-population fast path: bit-exact legacy slicing.
                shard_columns = [
                    self._take(data, part) for part in self.shard_slices()
                ]
            else:
                shard_columns = self._split_active_column(data)
            shard_churn = [(0, None)] * self.n_shards
        else:
            shard_columns, shard_churn = self._route_churn(data, entrants, exit_ids)
        jobs = [
            (shard_column, shard_entrants, shard_exits)
            for shard_column, (shard_entrants, shard_exits) in zip(
                shard_columns, shard_churn
            )
        ]
        try:
            self._executor.dispatch_round(jobs)
        except Exception as exc:
            # Retryable only if no shard received the round AND no
            # service-side churn state was committed (_route_churn mutates
            # the assignment before dispatching).  Pre-validation covers
            # every data-level failure, so anything else means a shard
            # failed during its update: the round is partially ingested and
            # the clocks can no longer be trusted — fail closed instead of
            # serving silently wrong merges.
            if churn_round or getattr(exc, "dispatched", 0):
                self._poisoned = (
                    f"round {round_number} failed after "
                    f"{getattr(exc, 'completed', 0)} of {self.n_shards} shards "
                    "ingested it"
                    + (" (churn already committed)" if churn_round else "")
                )
            raise
        self._t = round_number
        self._version += 1
        return self

    @staticmethod
    def _take(data, rows):
        """Row-select from a report column or an :class:`AttributeFrame`.

        The one indexing primitive the splitting/routing paths use, so
        multi-attribute frames flow through them with the single-column
        code path untouched (slices stay views either way).
        """
        if isinstance(data, AttributeFrame):
            return data.take(rows)
        return data[rows]

    def _split_active_column(self, data) -> list:
        """Split a churn-free round's reports along the current membership.

        Each shard's active members occupy ascending row positions;
        when those positions are contiguous (always true until an exit
        interleaves shards, and common afterwards for shards that kept
        their block) the shard's slice is returned as a **view**, so a
        churn-free round on a 10M-row panel splits without copying.
        """
        position = np.cumsum(self._active) - 1  # active id -> row position
        out: list = []
        for s in range(self.n_shards):
            members = self._members[s]
            indices = position[members[self._active[members]]]
            if not indices.size:
                out.append(self._take(data, slice(0, 0)))
            elif int(indices[-1]) - int(indices[0]) + 1 == indices.size:
                out.append(
                    self._take(data, slice(int(indices[0]), int(indices[-1]) + 1))
                )
            else:
                out.append(self._take(data, indices))
        return out

    def _route_churn(
        self, data, entrants: int, exit_ids: np.ndarray
    ) -> tuple[list, list[tuple[int, np.ndarray]]]:
        """Translate a churn round into per-shard reports and churn events.

        Validates the exits against the service-wide active set, routes
        the entrants, and builds each shard's reports in its admission
        order (survivors first, entrants last) — exactly what the shard
        synthesizers expect.

        Routing is least-loaded, one entrant at a time: each goes to the
        shard with the fewest active members (this round's exits already
        gone), ties to the lowest shard index.  That sequence has a
        closed form, :func:`_route_entrants` (water-filling).
        """
        n_ever = self._shard_of.shape[0]
        # Same rules as PopulationLedger.retire, applied service-wide
        # *before* any shard advances (all-or-nothing rounds).
        exit_ids = validate_exit_ids(exit_ids, self._active)
        # The load vector is the incrementally maintained cache — no
        # bincount over the ever-population per churn round.
        loads = self._loads.copy()
        if exit_ids.size:
            loads -= np.bincount(
                self._shard_of[exit_ids], minlength=self.n_shards
            )[: self.n_shards]
        # Degraded mode note: a disabled shard still participates in
        # routing (and "accepts" its entrants, whose dispatch is then
        # dropped with the rest of its slice).  Diverting them would
        # change which entrants the *surviving* shards receive and break
        # the byte-identity the journal replay is verified against —
        # survivors must evolve exactly as in the healthy run.
        entrant_shards, loads = _route_entrants(loads, entrants)

        # Survivors (ascending id) occupy the column's head, entrants the
        # tail; map every reporting id to its column position.
        present = self._active.copy()
        present[exit_ids] = False
        survivors = np.flatnonzero(present)
        position = np.empty(n_ever + entrants, dtype=np.int64)
        position[survivors] = np.arange(survivors.shape[0])
        new_ids = n_ever + np.arange(entrants)
        position[new_ids] = survivors.shape[0] + np.arange(entrants)

        shard_columns: list = []
        shard_churn: list[tuple[int, np.ndarray]] = []
        new_members: list[np.ndarray] = []
        for s in range(self.n_shards):
            members = self._members[s]  # ascending ids (cached)
            if exit_ids.size:
                shard_exit_global = exit_ids[self._shard_of[exit_ids] == s]
            else:
                shard_exit_global = exit_ids
            # Shard-local id = rank in the shard's admission order.
            local_exits = np.searchsorted(members, shard_exit_global)
            surviving_members = members[present[members]]
            shard_new = new_ids[entrant_shards == np.int64(s)]
            reporting = np.concatenate([surviving_members, shard_new])
            shard_columns.append(self._take(data, position[reporting]))
            shard_churn.append((int(shard_new.shape[0]), local_exits))
            new_members.append(
                np.concatenate([members, shard_new]) if shard_new.size else members
            )

        # Commit the service-side assignment only after the per-shard
        # views are built (shard-level failures then poison the service).
        self._shard_of = np.concatenate([self._shard_of, entrant_shards])
        self._active = np.concatenate([present, np.ones(entrants, dtype=bool)])
        self._loads = loads
        self._members = new_members
        return shard_columns, shard_churn

    def answer(self, query, t: int, **kwargs) -> float:
        """Merged query answer at round ``t``: one cell of :meth:`answer_batch`.

        Parameters
        ----------
        query:
            Any query the per-shard releases answer
            (:class:`~repro.queries.cumulative.HammingAtLeast` /
            ``HammingExactly`` for the cumulative algorithm, window
            queries for the fixed-window one, categorical window
            queries for the categorical one).
        t:
            Round to answer at, no earlier than the query's first.
        **kwargs:
            Forwarded to every shard release (e.g. ``debias=`` for
            window queries).

        Returns
        -------
        float
            The population-weighted average of per-shard answers.  Since
            each shard's answer is a fraction of its own (synthetic)
            population, the weighted average equals the fraction over
            the union — exactly what a single unsharded release reports.
            On a :attr:`degraded` service the average runs over the
            *surviving* shards only and every call emits a
            :class:`~repro.exceptions.DegradedServiceWarning`.

        Raises
        ------
        repro.exceptions.ConfigurationError
            For a round before the query's first (where the grid holds
            ``NaN``), or a query the shard releases do not accept.
        """
        query.check_time(t)
        return float(self.answer_batch([query], [t], **kwargs)[0, 0])

    def answer_batch(self, queries, times, **kwargs) -> np.ndarray:
        """Merged answers for a whole workload, as one grid.

        The one place the service merges answers (:meth:`answer` is one
        cell of this grid).  Ships the workload to every shard in a
        single executor round-trip (one RPC per worker under the
        ``"process"`` strategy) and accumulates the per-shard grids in
        shard order, each weighted by its shard's population at that
        round.

        Parameters
        ----------
        queries, times:
            The workload grid; every ``t`` must be an answerable round.
            Cells with ``t < query.min_time()`` come back ``NaN``.
        **kwargs:
            Forwarded to every shard release (e.g. ``debias=``).

        Returns
        -------
        numpy.ndarray
            The ``(len(queries), len(times))`` float64 merged grid.
            Results are cached per service release-version, so repeating
            a workload between rounds costs one dictionary lookup; any
            committed round or shard disablement invalidates the cache.
        """
        self._check_not_poisoned()
        self._warn_if_degraded("answer_batch")
        queries = list(queries)
        times = [int(t) for t in times]
        key = workload_key(queries, times, **kwargs)
        if key is not None:
            hit = self._answer_cache.get(self._version, key)
            if hit is not None:
                return hit
        weighted = np.zeros((len(queries), len(times)), dtype=np.float64)
        total = np.zeros(len(times), dtype=np.float64)
        for pair in self._executor.answer_batch(queries, times, dict(kwargs)):
            if pair is None:  # disabled shard (degraded mode)
                continue
            weights, grid = pair
            weighted += weights[None, :] * grid
            total += weights
        out = weighted / total[None, :]
        if key is not None:
            self._answer_cache.put(self._version, key, out)
        return out

    def _check_not_poisoned(self) -> None:
        """Refuse to operate on a desynchronized service."""
        if self._poisoned is not None:
            raise ConsistencyError(
                f"shard clocks are desynchronized ({self._poisoned}); "
                "restore the service from its last checkpoint"
            )

    def _warn_if_degraded(self, operation: str) -> None:
        if self._disabled:
            names = ", ".join(
                f"shard {index} ({reason})"
                for index, reason in sorted(self._disabled.items())
            )
            warnings.warn(
                f"{operation} served degraded: {names} excluded; answers "
                "merge the surviving shards only",
                DegradedServiceWarning,
                stacklevel=3,
            )

    @property
    def degraded(self) -> bool:
        """True when any shard has been disabled (degraded serving)."""
        return bool(self._disabled)

    def disable_shard(self, index: int, reason: str = "unrecoverable") -> None:
        """Exclude an unrecoverable shard and serve from the survivors.

        This is the opt-in graceful-degradation escape hatch: the
        disabled shard's slice of every future column is dropped at
        dispatch and :meth:`answer_batch` merges the surviving shards (with
        a :class:`~repro.exceptions.DegradedServiceWarning` per call).
        Entrant routing is *unchanged* — the disabled shard still
        virtually accepts its share (those entrants go unserved with
        it), so the surviving shards receive exactly the individuals
        they would have in a healthy run and their state stays
        byte-identical, which is what lets supervised recovery replay a
        journal across a degradation without re-noising.
        The full column contract is *unchanged* — the disabled shard's
        members still report; their reports are simply not processed.
        :meth:`checkpoint` refuses on a degraded service (the disabled
        shard's state is gone), so degradation is a bridge to a rebuild,
        not a steady state.

        Parameters
        ----------
        index:
            Shard to disable.
        reason:
            Human-readable cause, surfaced by :meth:`health_report`.

        Raises
        ------
        repro.exceptions.ConfigurationError
            On an out-of-range index or when disabling would leave no
            live shard.
        """
        if not 0 <= index < self.n_shards:
            raise ConfigurationError(
                f"shard index must lie in [0, {self.n_shards}), got {index}"
            )
        if len(self._disabled) >= self.n_shards - 1 and index not in self._disabled:
            raise ConfigurationError(
                "cannot disable the last live shard; restore the service "
                "from a checkpoint instead"
            )
        self._disabled[int(index)] = str(reason)
        self._executor.disable(int(index))
        self._version += 1  # degraded merges must not reuse cached grids

    def health_report(self) -> list[dict]:
        """Per-shard status for operators and the supervision layer.

        Returns
        -------
        list of dict
            One entry per shard, in shard order:
            ``{"shard": index, "status": "ok" | "disabled" | "dead",
            "reason": str | None, "active": int}`` where ``active`` is
            the shard's active-population load (0 before round 1).
            ``"dead"`` marks a worker process that stopped responding
            but has not been formally disabled.
        """
        health = self._executor.worker_health()
        loads = (
            self._loads
            if self._loads is not None
            else np.zeros(self.n_shards, dtype=np.int64)
        )
        report = []
        for index in range(self.n_shards):
            if index in self._disabled:
                status, reason = "disabled", self._disabled[index]
            elif not health[index]:
                status, reason = "dead", "worker process is not alive"
            else:
                status, reason = "ok", None
            report.append(
                {
                    "shard": index,
                    "status": status,
                    "reason": reason,
                    "active": int(loads[index]),
                }
            )
        return report

    def state_fingerprints(self) -> list:
        """Per-shard state digests (see ``StreamingSynthesizer.fingerprint``).

        Returns
        -------
        list
            One hex SHA-256 per shard, in shard order (``None`` for
            disabled shards).  Equal fingerprints guarantee byte-
            identical checkpoint bundles and future releases; the
            release journal records these per round so crash recovery
            can verify a replay reproduced the published state exactly.
        """
        self._check_not_poisoned()
        return self._executor.fingerprints()

    def zcdp_spent(self) -> float:
        """Service-wide zCDP spend: the *maximum* over shards.

        The shards hold disjoint individuals, so parallel composition
        gives the union mechanism a guarantee of ``max_k rho_k``, not the
        sum.  Returns 0.0 when every shard runs noiseless
        (``rho = inf``).  On a degraded service the maximum runs over
        the surviving shards (a disabled shard stopped spending when it
        stopped stepping, so the live maximum still bounds it from the
        round it died onward; the supervisor additionally floors this
        with the journaled pre-failure spend).
        """
        return max(
            (entry[0] for entry in self.shard_ledgers() if entry is not None),
            default=0.0,
        )

    def shard_ledgers(self) -> list:
        """Per-shard ``(spent, remaining)`` zCDP, in shard order.

        Shards running noiseless (``rho = inf``) report ``(0.0, inf)``.
        Disabled shards report ``None`` (their accountant is gone with
        their worker).  Readable even on a poisoned service (it is the
        one surface the desync guard does not cover — auditing spend
        stays possible).
        """
        return self._executor.ledgers()

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------

    def checkpoint(self, path) -> None:
        """Serialize the whole service (all shards) into one bundle.

        Parameters
        ----------
        path:
            Target file path or writable binary file object.  The bundle
            nests one complete streaming bundle per shard (the stored
            member ``arrays/shards/<i>/bundle.npy``), so shard state
            inherits the same integrity checks.

        Raises
        ------
        repro.exceptions.SerializationError
            If any shard state cannot be serialized.
        repro.exceptions.RecoveryError
            On a degraded service: the disabled shards' state is gone,
            so a bundle written now could never restore the full
            population — rebuild the service before checkpointing.
        """
        self._check_not_poisoned()
        if self._disabled:
            names = ", ".join(str(index) for index in sorted(self._disabled))
            raise RecoveryError(
                f"cannot checkpoint a degraded service: shard(s) {names} are "
                "disabled and their state is unrecoverable; rebuild the "
                "service (restore from the last complete bundle) first"
            )
        shard_blobs: dict = {}
        for index, blob in enumerate(self._executor.checkpoint_blobs()):
            shard_blobs[str(index)] = {
                "bundle": np.frombuffer(blob, dtype=np.uint8)
            }
        state = {"shards": shard_blobs}
        if self._boundaries is not None:
            state["boundaries"] = np.asarray(self._boundaries, dtype=np.int64)
            state["shard_of"] = np.asarray(self._shard_of, dtype=np.int64)
            state["active"] = np.asarray(self._active, dtype=bool)
        write_bundle(
            path,
            kind="sharded",
            config={"algorithm": self.algorithm, "n_shards": self.n_shards},
            state=state,
        )

    @classmethod
    def restore(
        cls, path, *, executor: str | None = None, policy=None
    ) -> "ShardedService":
        """Resume a service from a :meth:`checkpoint` bundle.

        Parameters
        ----------
        path:
            Bundle file path or readable binary file object.
        executor:
            Shard-stepping strategy for the restored service; ``None``
            means serial.  Checkpoints are strategy-agnostic, so a bundle
            written under one executor restores under the other.
        policy:
            Optional :class:`~repro.serve.policy.RetryPolicy` carrying
            the worker RPC timeout for the restored service.

        Returns
        -------
        ShardedService
            A service whose future rounds and answers are byte-identical
            to the uninterrupted one's.

        Raises
        ------
        repro.exceptions.SerializationError
            If the bundle (or any nested shard bundle) is corrupt,
            tampered with, or version-mismatched.
        """
        config, state = read_bundle(path, kind="sharded")
        try:
            algorithm = str(config["algorithm"])
            n_shards = int(config["n_shards"])
            shard_blobs = dict(state["shards"])
            shard_keys = sorted(int(k) for k in shard_blobs)
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(f"invalid sharded bundle: {exc}") from exc
        if n_shards < 1:
            raise SerializationError(
                f"sharded bundle declares n_shards={n_shards}; must be >= 1"
            )
        if shard_keys != list(range(n_shards)):
            raise SerializationError(
                f"sharded bundle must hold shards 0..{n_shards - 1}, "
                f"got {sorted(shard_blobs)}"
            )
        shards = []
        for index in range(n_shards):
            try:
                blob = np.ascontiguousarray(shard_blobs[str(index)]["bundle"], dtype=np.uint8)
            except (KeyError, TypeError, ValueError) as exc:
                raise SerializationError(
                    f"invalid shard entry {index}: {exc}"
                ) from exc
            # The service bundle already reported its noise sampler; the
            # nested shard bundles were written alongside it.
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NoiseSamplerWarning)
                shards.append(StreamingSynthesizer.restore(_BufferReader(blob)))
        # Cross-shard consistency: the nested bundles are individually
        # checksummed, but nothing stops a (buggy or foreign) writer from
        # combining shards that never belonged together — fail closed
        # here rather than crash or serve desynced merges later.
        for index, shard in enumerate(shards):
            if shard.algorithm != algorithm:
                raise SerializationError(
                    f"shard {index} runs algorithm {shard.algorithm!r} but the "
                    f"service bundle declares {algorithm!r}"
                )
        clocks = {shard.t for shard in shards}
        if len(clocks) > 1:
            raise SerializationError(
                f"shard clocks are desynchronized: {[s.t for s in shards]}"
            )
        horizons = {shard.horizon for shard in shards}
        if len(horizons) > 1:
            raise SerializationError(
                f"shard horizons disagree: {[s.horizon for s in shards]}"
            )
        boundaries = None
        shard_of = None
        active = None
        if next(iter(clocks)) > 0 and "boundaries" not in state:
            raise SerializationError(
                "sharded bundle has fitted shards (t > 0) but no shard "
                "assignment boundaries"
            )
        if "boundaries" in state:
            boundaries = np.asarray(state["boundaries"], dtype=np.int64)
            if boundaries.shape != (n_shards + 1,):
                raise SerializationError(
                    f"boundaries have shape {boundaries.shape}, "
                    f"expected ({n_shards + 1},)"
                )
            if boundaries[0] != 0 or (np.diff(boundaries) < 0).any():
                raise SerializationError(
                    f"assignment boundaries {boundaries.tolist()} must start "
                    "at 0 and be non-decreasing"
                )
            sizes = np.diff(boundaries)
            populations = [shard.synthesizer._n for shard in shards]
            if any(
                n is not None and n != int(size)
                for n, size in zip(populations, sizes)
            ):
                raise SerializationError(
                    f"shard populations {populations} disagree with the "
                    f"assignment boundaries {boundaries.tolist()}"
                )
            try:
                shard_of = np.asarray(state["shard_of"], dtype=np.int64)
                active = np.asarray(state["active"], dtype=bool)
            except KeyError as exc:
                raise SerializationError(
                    f"sharded bundle is missing the churn assignment: {exc}"
                ) from exc
            if shard_of.shape != active.shape or shard_of.ndim != 1:
                raise SerializationError(
                    "shard_of and active must be equal-length 1-D arrays, got "
                    f"{shard_of.shape} and {active.shape}"
                )
            if shard_of.size and (
                shard_of.min() < 0 or shard_of.max() >= n_shards
            ):
                raise SerializationError(
                    f"shard_of entries must lie in [0, {n_shards - 1}]"
                )
            member_counts = np.bincount(shard_of, minlength=n_shards)[:n_shards]
            ever_counts = [
                shard.synthesizer._ledger.n_ever if shard.synthesizer._ledger else 0
                for shard in shards
            ]
            if member_counts.tolist() != ever_counts:
                raise SerializationError(
                    f"service-side membership {member_counts.tolist()} disagrees "
                    f"with the shards' lifespan tables {ever_counts}"
                )
        return cls._from_shards(
            shards,
            algorithm,
            boundaries,
            shard_of,
            active,
            executor=executor,
            policy=policy,
        )

    def close(self) -> None:
        """Release executor resources.

        Required for the ``"process"`` strategy (worker processes and
        the shared-memory staging segment); a no-op for serial.
        Idempotent, and also invoked by a finalizer as a safety net — but
        call it explicitly (or use the service as a context manager) to
        bound resource lifetime deterministically.
        """
        self._executor.close()

    def __enter__(self) -> "ShardedService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        fitted = self._boundaries is not None
        return (
            f"ShardedService(algorithm={self.algorithm!r}, K={self.n_shards}, "
            f"executor={self.executor!r}, t={self.t}, "
            f"n={self.n if fitted else '?'})"
        )
