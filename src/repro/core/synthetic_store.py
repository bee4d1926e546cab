"""Synthetic record stores.

Both synthesizers maintain an explicit population of synthetic individuals
whose histories grow by one bit per round and are never rewritten — the
consistency requirement at the heart of the paper's model.  The stores keep
the record matrix plus the bookkeeping needed to extend records in O(n)
per round:

* :class:`WindowSyntheticStore` (Algorithm 1, any alphabet ``q >= 2``)
  tracks each record's current length-``k`` base-``q`` window code and
  extends records grouped by their ``(k-1)``-digit suffix; the binary
  panels of the paper's figures are the ``alphabet=2`` default.
* :class:`CumulativeSyntheticStore` (Algorithm 2) tracks each record's
  Hamming weight and extends records grouped by exact weight.

Both stores also speak the dynamic-population protocol of
:mod:`repro.core.population`: :meth:`admit` appends fresh records for
entrants (all-zero history, the zero-fill convention) and :meth:`retire`
marks records departed.  Because real departures' private states (weights
/ window codes) must not influence the synthetic panel, the records to
mark are chosen uniformly at random among the active ones — a public
labeling that tracks the departed *count*, not the departed individuals.
Marked records keep extending mechanically: the released tables and
histograms still cover the zero-filled departed population, and the
synthetic panel models that population *collectively* (its census over
**all** records is what must equal the release).  Freezing the marked
records instead would force extra clamping whenever the random labels
landed on the wrong weight groups — strictly worse accuracy for no
privacy gain.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import LongitudinalDataset
from repro.exceptions import ConfigurationError, ConsistencyError, SerializationError

__all__ = ["WindowSyntheticStore", "CumulativeSyntheticStore"]


def _digit_dtype(alphabet: int) -> np.dtype:
    """Smallest unsigned dtype holding one base-``alphabet`` digit.

    ``uint8`` for every alphabet up to 256 — in particular the binary
    case keeps its historical ``uint8`` record matrix bit-for-bit.
    """
    return np.min_scalar_type(alphabet - 1)


def _count_ranks_below(
    group_of: np.ndarray,
    sizes: np.ndarray,
    cuts: np.ndarray,
    generator: np.random.Generator,
) -> np.ndarray:
    """Per record, how many of its group's ``cuts`` its random rank falls below.

    Every record draws one uniform key (a single ``generator.random(n)``
    call); its *rank* is its position among its own group's records
    ordered by that key, equal keys ordered by record index.  Ranking
    every group uniformly at random is what makes the blocks cut out of
    the ranks uniform without-replacement samples.

    No rank is materialized.  One value sort of the composite
    ``group + key`` lays each group's keys out as a contiguous block (the
    integer part orders the groups, the fraction orders the members), so
    the key of group ``g``'s rank-``c`` member is ``sorted[start_g + c]``
    and ``rank < c`` is just ``key < sorted[start_g + c]``.  A zero cut
    compares against ``-inf`` and a full cut against ``+inf``; only
    interior cuts read the sorted array.  When equal keys straddle a cut
    (``sorted[start_g + c - 1] == sorted[start_g + c]``, about 1e-10 per
    cut at a million records) the tied records below it are taken in
    index order, so every cut stays exact.

    Parameters
    ----------
    group_of:
        Non-negative group label per record.
    sizes:
        Records per group; ``sizes[g]`` counts ``group_of == g`` for
        every label present.
    cuts:
        ``(len(sizes), J)`` rank cuts with ``0 <= cuts[g, j] <= sizes[g]``.
    generator:
        Source of the keys.

    Returns
    -------
    numpy.ndarray
        The counts, in the smallest unsigned dtype holding ``J``.
    """
    keys = generator.random(group_of.shape[0])
    keys += group_of  # the composite group + key, in place
    ordered = np.sort(keys)
    positions = (np.cumsum(sizes) - sizes)[:, None] + cuts
    interior = (cuts > 0) & (cuts < sizes[:, None])
    values = np.where(cuts == 0, -np.inf, np.inf)
    values[interior] = ordered[positions[interior]]
    counts = np.zeros(keys.shape[0], dtype=np.min_scalar_type(cuts.shape[1]))
    for j in range(cuts.shape[1]):
        counts += keys < values[:, j].take(group_of)
    straddled = np.zeros_like(interior)
    straddled[interior] = ordered[positions[interior] - 1] == values[interior]
    for g, j in zip(*np.nonzero(straddled), strict=True):
        in_group = group_of == g
        tied = np.flatnonzero(in_group & (keys == values[g, j]))
        below = np.count_nonzero(in_group & (keys < values[g, j]))
        counts[tied[: cuts[g, j] - below]] += 1
    return counts


def _choose_within_groups(
    group_of: np.ndarray,
    n_groups: int,
    picks_per_group: np.ndarray,
    generator: np.random.Generator,
) -> np.ndarray:
    """Pick ``picks_per_group[g]`` random members of each group.

    Returns the selected indices (into ``group_of``), ascending.  Raises
    :class:`ConsistencyError` when a group is asked for more members than
    it has — which would mean the caller's histogram bookkeeping diverged
    from the record population.

    The members of group ``g`` ranked below ``picks_per_group[g]`` by
    :func:`_count_ranks_below` are chosen: each group is ranked uniformly
    at random by one key per record, so its lowest ranks are a uniform
    without-replacement sample.  Records labelled ``n_groups`` or above
    have quota 0 and are never chosen.  The whole selection is one value
    sort per round instead of a Python loop with one ``generator.choice``
    call per group — ``benchmarks/bench_replication.py`` pins the speedup.
    When nothing is requested no randomness is consumed.
    """
    picks_per_group = np.asarray(picks_per_group, dtype=np.int64)
    sizes = np.bincount(group_of, minlength=n_groups)
    bad = (picks_per_group < 0) | (picks_per_group > sizes[:n_groups])
    if bad.any():
        g = int(np.flatnonzero(bad)[0])
        raise ConsistencyError(
            f"group {g} has {int(sizes[g])} records but "
            f"{int(picks_per_group[g])} were requested"
        )
    if not picks_per_group.any():
        return np.zeros(0, dtype=np.int64)
    cuts = np.zeros((sizes.shape[0], 1), dtype=np.int64)
    cuts[:n_groups, 0] = picks_per_group
    chosen = _count_ranks_below(group_of, sizes, cuts, generator)
    return np.flatnonzero(chosen.astype(bool))  # nonzero scans bool arrays fastest


def _assign_within_groups(
    group_of: np.ndarray,
    n_groups: int,
    quotas: np.ndarray,
    generator: np.random.Generator,
    sizes: np.ndarray | None = None,
) -> np.ndarray:
    """Assign each record a label so group ``g`` gets ``quotas[g, l]`` of label ``l``.

    The base-``q`` generalization of :func:`_choose_within_groups`.  Each
    group is ranked uniformly at random (:func:`_count_ranks_below`) and
    label blocks are carved out of the ranks in *descending* label order:
    label ``L-1`` takes the lowest ``quotas[g, L-1]`` ranks, label ``L-2``
    the next ``quotas[g, L-2]``, and so on.  A record's label is therefore
    the number of tail sums ``quotas[g, l:].sum()`` (``l = 1..L-1``) its
    rank falls below.  At two labels this selects exactly the records
    :func:`_choose_within_groups` (with ``picks_per_group = quotas[:, 1]``)
    would pick for label 1, from the identical generator stream — which
    is what keeps the binary window synthesizer bit-exact through the
    shared engine.  When only label 0 is requested the assignment is
    forced and no randomness is consumed (the same fast path as the
    binary helper).

    Parameters
    ----------
    group_of:
        Group label per record, each below ``n_groups``.
    n_groups:
        Number of groups (rows of ``quotas``).
    quotas:
        ``(n_groups, L)`` non-negative label counts per group.
    generator:
        Source of the ranking keys.
    sizes:
        Records per group, when the caller has already counted them;
        counted from ``group_of`` otherwise.

    Returns
    -------
    numpy.ndarray
        One label per record, in the smallest unsigned dtype holding
        ``L - 1`` (``uint8`` up to 256 labels).

    Raises
    ------
    repro.exceptions.ConsistencyError
        When a group's quotas are negative or do not sum to its
        population.
    """
    quotas = np.asarray(quotas, dtype=np.int64)
    if sizes is None:
        sizes = np.bincount(group_of, minlength=n_groups)[:n_groups]
    bad = (quotas < 0).any(axis=1) | (quotas.sum(axis=1) != sizes)
    if bad.any():
        g = int(np.flatnonzero(bad)[0])
        raise ConsistencyError(
            f"group {g} has {int(sizes[g])} records but label quotas "
            f"{quotas[g].tolist()} were requested"
        )
    if not quotas[:, 1:].any():
        return np.zeros(group_of.shape[0], dtype=_digit_dtype(quotas.shape[1]))
    tails = quotas[:, :0:-1].cumsum(axis=1)[:, ::-1]  # tails[:, l-1] = quotas[:, l:].sum()
    return _count_ranks_below(group_of, sizes, tails, generator)


class WindowSyntheticStore:
    """Synthetic records for Algorithm 1 over any alphabet.

    Parameters
    ----------
    initial_counts:
        Length ``alphabet**k`` non-negative integer histogram; the store
        materializes ``initial_counts[s]`` records whose first ``k``
        symbols equal pattern ``s`` (any such dataset is a valid output
        at ``t = k``).
    window:
        Window width ``k``.
    horizon:
        Total rounds ``T`` — the record matrix is preallocated.
    generator:
        Randomness for record ordering and extension choices.
    alphabet:
        Number of categories ``q >= 2``; the default 2 is the paper's
        binary panel (and stays bit-exact with the pre-categorical
        store, generator stream included).
    """

    def __init__(
        self,
        initial_counts: np.ndarray,
        window: int,
        horizon: int,
        generator: np.random.Generator,
        alphabet: int = 2,
    ):
        if alphabet < 2:
            raise ConfigurationError(f"alphabet must be at least 2, got {alphabet}")
        counts = np.asarray(initial_counts, dtype=np.int64)
        if counts.shape != (alphabet**window,):
            raise ConfigurationError(
                f"initial_counts must have length {alphabet}**{window}, "
                f"got {counts.shape}"
            )
        if (counts < 0).any():
            raise ConfigurationError("initial_counts must be non-negative")
        if horizon < window:
            raise ConfigurationError(f"horizon {horizon} shorter than window {window}")
        self.window = int(window)
        self.horizon = int(horizon)
        self.alphabet = int(alphabet)
        self._generator = generator
        self.m = int(counts.sum())
        self._t = window

        # Materialize initial records: codes are assigned in shuffled order
        # so record index carries no information about the pattern.
        codes = np.repeat(np.arange(alphabet**window, dtype=np.int64), counts)
        generator.shuffle(codes)
        self._codes = codes  # current base-q window code per record
        self._matrix = np.zeros((self.m, horizon), dtype=_digit_dtype(alphabet))
        self._active = np.ones(self.m, dtype=bool)
        for j in range(window):
            self._matrix[:, j] = (codes // alphabet ** (window - 1 - j)) % alphabet

    @property
    def n_active(self) -> int:
        """Records not yet retired (present synthetic individuals)."""
        return int(self._active.sum())

    @property
    def n_retired(self) -> int:
        """Records marked departed via :meth:`retire`."""
        return self.m - self.n_active

    def admit(self, count: int) -> None:
        """Append ``count`` entrant records with all-zero history.

        The zero-fill convention gives entrants the all-zero window code
        (they are treated as having reported 0 since round 1), so the
        admitted records land in histogram bin 0 and the caller must
        credit the previous target histogram accordingly before the next
        :meth:`extend`.  No randomness is consumed.
        """
        if count < 0:
            raise ConfigurationError(f"count must be non-negative, got {count}")
        if count == 0:
            return
        self._codes = np.concatenate([self._codes, np.zeros(count, dtype=np.int64)])
        self._matrix = np.vstack(
            [self._matrix, np.zeros((count, self.horizon), dtype=self._matrix.dtype)]
        )
        self._active = np.concatenate([self._active, np.ones(count, dtype=bool)])
        self.m += count

    def retire(self, count: int) -> None:
        """Mark ``count`` uniformly-random active records as departed.

        Real departures' window codes are private, so the synthetic
        records to retire are chosen uniformly at random — retirement is
        bookkeeping (``n_active`` and the active mask) and does not stop
        the records from extending: under zero-fill the histograms still
        cover the departed individuals' decaying windows.
        """
        if count < 0:
            raise ConfigurationError(f"count must be non-negative, got {count}")
        if count == 0:
            return
        active_idx = np.flatnonzero(self._active)
        if count > active_idx.shape[0]:
            raise ConsistencyError(
                f"cannot retire {count} records; only {active_idx.shape[0]} active"
            )
        chosen = self._generator.choice(active_idx, size=count, replace=False)
        self._active[chosen] = False

    def active_mask(self) -> np.ndarray:
        """Per-record active flags (copy), aligned with the record matrix."""
        return self._active.copy()

    @property
    def t(self) -> int:
        """Rounds materialized so far."""
        return self._t

    def counts(self) -> np.ndarray:
        """Current synthetic window histogram ``p^t`` (length ``q**k``)."""
        return np.bincount(
            self._codes, minlength=self.alphabet**self.window
        ).astype(np.int64)

    def extend(self, target_counts: np.ndarray) -> None:
        """Advance one round so the window histogram becomes ``target_counts``.

        ``target_counts`` must satisfy the overlap-consistency constraint
        w.r.t. the current histogram (checked); records keeping suffix
        ``z`` are split among the ``q`` extensions ``zc`` uniformly at
        random (``z0``/``z1`` in the binary case) by
        :func:`_assign_within_groups`.
        """
        if self._t >= self.horizon:
            raise ConsistencyError(f"store already materialized all {self.horizon} rounds")
        target = np.asarray(target_counts, dtype=np.int64)
        if target.shape != (self.alphabet**self.window,):
            raise ConfigurationError(
                f"target_counts must have length {self.alphabet}**{self.window}, "
                f"got {target.shape}"
            )
        if (target < 0).any():
            raise ConsistencyError("target_counts must be non-negative")

        n_groups = self.alphabet ** (self.window - 1)
        suffixes = self._codes % n_groups
        group_targets = target.reshape(n_groups, self.alphabet)
        current_groups = np.bincount(suffixes, minlength=n_groups)
        if not (group_targets.sum(axis=1) == current_groups).all():
            raise ConsistencyError(
                "target histogram violates the overlap-consistency constraint"
            )

        new_digit = _assign_within_groups(
            suffixes, n_groups, group_targets, self._generator, current_groups
        )
        self._matrix[:, self._t] = new_digit
        self._codes = suffixes * self.alphabet + new_digit
        self._t += 1

    def as_dataset(self, t: int | None = None):
        """The synthetic panel through round ``t`` (default: current).

        Returns a :class:`~repro.data.dataset.LongitudinalDataset` for
        the binary alphabet and a
        :class:`~repro.data.categorical.CategoricalDataset` otherwise.
        """
        t = self._t if t is None else t
        if not self.window <= t <= self._t:
            raise ConfigurationError(f"t must lie in [{self.window}, {self._t}], got {t}")
        if self.alphabet == 2:
            return LongitudinalDataset(self._matrix[:, :t])
        from repro.data.categorical import CategoricalDataset

        return CategoricalDataset(self._matrix[:, :t], self.alphabet)

    def state_dict(self, *, copy: bool = True) -> dict:
        """Snapshot the store: record matrix, window codes, and clocks.

        Parameters
        ----------
        copy:
            Copy the arrays (default).  ``copy=False`` returns live views
            for the streaming checkpoint writer; consume them before the
            store extends again.

        Returns
        -------
        dict
            Scalars plus the ``codes`` and ``matrix`` arrays; array values
            stay NumPy arrays for the :mod:`repro.serve` bundle layer.
            The store's generator is shared with (and serialized by) its
            owning synthesizer, so it is *not* captured here.
        """
        return {
            "window": self.window,
            "horizon": self.horizon,
            "alphabet": self.alphabet,
            "m": self.m,
            "t": self._t,
            "codes": self._codes.copy() if copy else self._codes,
            "matrix": self._matrix.copy() if copy else self._matrix,
            "active": self._active.copy() if copy else self._active,
        }

    @classmethod
    def from_state(
        cls, state: dict, generator: np.random.Generator
    ) -> "WindowSyntheticStore":
        """Rebuild a store from :meth:`state_dict` output.

        Parameters
        ----------
        state:
            A snapshot produced by :meth:`state_dict`.
        generator:
            The generator future :meth:`extend` calls draw from (the
            owning synthesizer's generator, whose bit state the caller
            restores separately).

        Returns
        -------
        WindowSyntheticStore
            A store continuing exactly where the snapshot left off.  No
            randomness is consumed — unlike ``__init__``, which shuffles
            the initial records.

        Raises
        ------
        repro.exceptions.SerializationError
            If the snapshot is structurally invalid or its array shapes
            disagree with the recorded dimensions.
        """
        store = object.__new__(cls)
        try:
            store.window = int(state["window"])
            store.horizon = int(state["horizon"])
            store.alphabet = int(state.get("alphabet", 2))
            store.m = int(state["m"])
            store._t = int(state["t"])
            store._codes = np.array(state["codes"], dtype=np.int64)
            store._active = np.array(state["active"], dtype=bool)
            if store.alphabet < 2:
                raise ValueError(f"alphabet must be at least 2, got {store.alphabet}")
            store._matrix = np.array(
                state["matrix"], dtype=_digit_dtype(store.alphabet)
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(f"invalid window-store state: {exc}") from exc
        store._generator = generator
        if store._active.shape != (store.m,):
            raise SerializationError(
                f"window-store active mask has shape {store._active.shape}, "
                f"expected ({store.m},)"
            )
        if store._matrix.shape != (store.m, store.horizon):
            raise SerializationError(
                f"window-store matrix has shape {store._matrix.shape}, "
                f"expected {(store.m, store.horizon)}"
            )
        if store._codes.shape != (store.m,):
            raise SerializationError(
                f"window-store codes have shape {store._codes.shape}, expected ({store.m},)"
            )
        if not store.window <= store._t <= store.horizon:
            raise SerializationError(
                f"window-store clock {store._t} outside "
                f"[{store.window}, {store.horizon}]"
            )
        return store


class CumulativeSyntheticStore:
    """Synthetic records for Algorithm 2.

    Starts with ``m`` all-zero histories; each round, :meth:`extend` flips
    the prescribed number of records within each exact-weight group.
    """

    def __init__(self, m: int, horizon: int, generator: np.random.Generator):
        if m <= 0:
            raise ConfigurationError(f"m must be positive, got {m}")
        if horizon <= 0:
            raise ConfigurationError(f"horizon must be positive, got {horizon}")
        self.m = int(m)
        self.horizon = int(horizon)
        self._generator = generator
        self._matrix = np.zeros((m, horizon), dtype=np.uint8)
        self._weights = np.zeros(m, dtype=np.int64)
        self._active = np.ones(m, dtype=bool)
        self._t = 0

    @property
    def t(self) -> int:
        """Rounds materialized so far."""
        return self._t

    @property
    def n_active(self) -> int:
        """Records not yet retired (present synthetic individuals)."""
        return int(self._active.sum())

    @property
    def n_retired(self) -> int:
        """Records frozen via :meth:`retire`."""
        return self.m - self.n_active

    def admit(self, count: int) -> None:
        """Append ``count`` entrant records at weight 0 (zero history).

        Entrants are eligible to receive a 1 in their entry round, so
        admission must happen *before* that round's :meth:`extend`.  No
        randomness is consumed.
        """
        if count < 0:
            raise ConfigurationError(f"count must be non-negative, got {count}")
        if count == 0:
            return
        self._matrix = np.vstack(
            [self._matrix, np.zeros((count, self.horizon), dtype=np.uint8)]
        )
        self._weights = np.concatenate([self._weights, np.zeros(count, dtype=np.int64)])
        self._active = np.concatenate([self._active, np.ones(count, dtype=bool)])
        self.m += count

    def retire(self, count: int) -> None:
        """Mark ``count`` uniformly-random active records as departed.

        Real departures' weights are private, so the records to mark are
        chosen uniformly at random among the active ones.  Retirement is
        aggregate bookkeeping (``n_active`` and the active mask): marked
        records still count in :meth:`threshold_census` — the released
        table covers the zero-filled departed population — and still
        extend, because the synthetic panel matches the release
        *collectively* rather than record by record.
        """
        if count < 0:
            raise ConfigurationError(f"count must be non-negative, got {count}")
        if count == 0:
            return
        active_idx = np.flatnonzero(self._active)
        if count > active_idx.shape[0]:
            raise ConsistencyError(
                f"cannot retire {count} records; only {active_idx.shape[0]} active"
            )
        chosen = self._generator.choice(active_idx, size=count, replace=False)
        self._active[chosen] = False

    def active_mask(self) -> np.ndarray:
        """Per-record active flags (copy), aligned with the record matrix."""
        return self._active.copy()

    def weights(self) -> np.ndarray:
        """Current Hamming weight per synthetic record (copy)."""
        return self._weights.copy()

    def threshold_census(self) -> np.ndarray:
        """``#{records with weight >= b}`` for ``b = 0, ..., T``."""
        by_weight = np.bincount(self._weights, minlength=self.horizon + 1)
        return by_weight[::-1].cumsum()[::-1].astype(np.int64)

    def extend(self, ones_per_prev_weight: np.ndarray) -> None:
        """Advance one round.

        ``ones_per_prev_weight[w]`` records among those with current weight
        exactly ``w`` receive a 1 this round (this is ``z^_b`` for
        ``b = w + 1``); everyone else receives a 0.  The vector may have any
        length up to ``t + 1``; missing entries mean 0.
        """
        if self._t >= self.horizon:
            raise ConsistencyError(f"store already materialized all {self.horizon} rounds")
        requested = np.asarray(ones_per_prev_weight, dtype=np.int64)
        if (requested < 0).any():
            raise ConsistencyError("ones_per_prev_weight must be non-negative")
        picks = np.zeros(self._t + 1, dtype=np.int64)
        if requested.shape[0] > picks.shape[0]:
            if requested[picks.shape[0] :].any():
                raise ConsistencyError(
                    f"cannot request ones for weights above t={self._t}"
                )
            requested = requested[: picks.shape[0]]
        picks[: requested.shape[0]] = requested

        ones_idx = _choose_within_groups(
            self._weights, self._t + 1, picks, self._generator
        )
        self._matrix[ones_idx, self._t] = 1
        self._weights[ones_idx] += 1
        self._t += 1

    def as_dataset(self, t: int | None = None) -> LongitudinalDataset:
        """The synthetic panel through round ``t`` (default: current)."""
        t = self._t if t is None else t
        if not 1 <= t <= self._t:
            raise ConfigurationError(f"t must lie in [1, {self._t}], got {t}")
        return LongitudinalDataset(self._matrix[:, :t])

    def extend_horizon(self, k: int) -> None:
        """Widen the record matrix by ``k`` zero-filled future rounds.

        The dynamic-population half of
        :meth:`repro.core.cumulative.CumulativeSynthesizer.extend_horizon`:
        existing records and weights are untouched and no randomness is
        consumed.
        """
        if k <= 0:
            raise ConfigurationError(f"k must be positive, got {k}")
        self._matrix = np.hstack(
            [self._matrix, np.zeros((self.m, k), dtype=np.uint8)]
        )
        self.horizon += int(k)

    def state_dict(self, *, copy: bool = True) -> dict:
        """Snapshot the store: record matrix, weights, and clocks.

        Parameters
        ----------
        copy:
            Copy the arrays (default).  ``copy=False`` returns live views
            for the streaming checkpoint writer; consume them before the
            store extends again.

        Returns
        -------
        dict
            Scalars plus the ``weights`` and ``matrix`` arrays; array
            values stay NumPy arrays for the :mod:`repro.serve` bundle
            layer.  The shared generator is serialized by the owning
            synthesizer, not here.
        """
        return {
            "m": self.m,
            "horizon": self.horizon,
            "t": self._t,
            "weights": self._weights.copy() if copy else self._weights,
            "matrix": self._matrix.copy() if copy else self._matrix,
            "active": self._active.copy() if copy else self._active,
        }

    @classmethod
    def from_state(
        cls, state: dict, generator: np.random.Generator
    ) -> "CumulativeSyntheticStore":
        """Rebuild a store from :meth:`state_dict` output.

        Parameters
        ----------
        state:
            A snapshot produced by :meth:`state_dict`.
        generator:
            The generator future :meth:`extend` calls draw from.

        Returns
        -------
        CumulativeSyntheticStore
            A store continuing exactly where the snapshot left off.

        Raises
        ------
        repro.exceptions.SerializationError
            If the snapshot is structurally invalid or its array shapes
            disagree with the recorded dimensions.
        """
        store = object.__new__(cls)
        try:
            store.m = int(state["m"])
            store.horizon = int(state["horizon"])
            store._t = int(state["t"])
            store._weights = np.array(state["weights"], dtype=np.int64)
            store._matrix = np.array(state["matrix"], dtype=np.uint8)
            store._active = np.array(state["active"], dtype=bool)
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(f"invalid cumulative-store state: {exc}") from exc
        store._generator = generator
        if store._active.shape != (store.m,):
            raise SerializationError(
                f"cumulative-store active mask has shape {store._active.shape}, "
                f"expected ({store.m},)"
            )
        if store._matrix.shape != (store.m, store.horizon):
            raise SerializationError(
                f"cumulative-store matrix has shape {store._matrix.shape}, "
                f"expected {(store.m, store.horizon)}"
            )
        if store._weights.shape != (store.m,):
            raise SerializationError(
                f"cumulative-store weights have shape {store._weights.shape}, "
                f"expected ({store.m},)"
            )
        if not 0 <= store._t <= store.horizon:
            raise SerializationError(
                f"cumulative-store clock {store._t} outside [0, {store.horizon}]"
            )
        return store
