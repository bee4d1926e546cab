"""Synthetic record stores.

Both synthesizers maintain an explicit population of synthetic individuals
whose histories grow by one bit per round and are never rewritten — the
consistency requirement at the heart of the paper's model.  The stores keep
the record matrix plus the bookkeeping needed to extend records in O(n)
per round:

* :class:`WindowSyntheticStore` (Algorithm 1, any alphabet ``q >= 2``)
  tracks each record's current length-``k`` base-``q`` window code and
  extends records grouped by their ``(k-1)``-digit suffix; the binary
  panels of the paper's figures are the ``alphabet=2`` default.  It
  holds its records round-major (one contiguous row per round) and its
  codes in the narrowest unsigned dtype, as Algorithm 1 appends one
  symbol per record per round into a histogram of only ``q**k`` bins.
* :class:`CumulativeSyntheticStore` (Algorithm 2) tracks each record's
  Hamming weight and extends records grouped by exact weight.

Both extend records by :func:`_count_ranks_below`, which ranks every group
uniformly at random from one key per record and finds the cut keys as
order statistics: by one value sort for small populations, by bucketed
selection in linear time for large ones, with identical results.

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

import hashlib

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


def _code_dtype(alphabet: int, window: int) -> np.dtype:
    """Smallest unsigned dtype holding a width-``window`` base-``alphabet`` code.

    ``uint8`` up to 256 histogram bins, which covers every alphabet and
    window the figures and benchmarks use.
    """
    return np.min_scalar_type(alphabet**window - 1)


def _code_suffix(codes: np.ndarray, n_groups: int, out=None) -> np.ndarray:
    """``codes % n_groups`` in the codes' own dtype (into ``out`` if given).

    Spelled ``codes - (codes // n_groups) * n_groups`` with explicit
    dtypes: NumPy divides narrow unsigned integers by a scalar with SIMD,
    while its remainder loop does not (0.3 ms against 2.7 ms on a
    million ``uint8`` codes).
    """
    divisor = codes.dtype.type(n_groups)
    high = np.floor_divide(codes, divisor)
    np.multiply(high, divisor, out=high)
    return np.subtract(codes, high, out=high if out is None else out)


#: Records per bucket the bucketed selection aims for; see :func:`_bucket_width`.
_RECORDS_PER_BUCKET = 16


def _bucket_width(sizes: np.ndarray, n_cuts: int) -> int:
    """Buckets per unit of ``group + key`` for :func:`_cut_by_buckets`, or 0.

    A power of two, so scaling a composite key by it is exact.  It aims
    for :data:`_RECORDS_PER_BUCKET` records per bucket in the largest
    group, and keeps at least ``16 * (n_cuts + 1)`` buckets per group,
    so the buckets a group compares exactly (one per cut, plus its
    first) hold about a sixteenth of its records or fewer.

    Returns 0 when one value sort of the keys is the cheaper way
    (:func:`_cut_by_sorting`).  The bucketed path makes about forty
    NumPy calls whatever the record count, plus a few passes over its
    ``len(sizes) * width`` buckets, and then runs in linear time; the
    sort makes a handful and runs in ``n log n``.  Measured against each
    other on a shared 2-vCPU host, they break even between 2**14 and
    2**15 records, and the buckets win clearly above that; the sort is
    kept below 2**15 records, and wherever the buckets would average
    fewer than four records (many small groups beside a large one, as in
    the cumulative store's weight groups).
    """
    n = int(sizes.sum())
    if n < 1 << 15:
        return 0
    width = 1 << max((int(sizes.max()) // _RECORDS_PER_BUCKET).bit_length() - 1, 0)
    width = max(width, 1 << (16 * (n_cuts + 1) - 1).bit_length())
    return width if n >= 4 * sizes.shape[0] * width else 0


def _break_straddled_ties(counts, keys, group_of, cuts, values, straddled) -> None:
    """Give each straddled cut's tied records below it, in index order.

    ``straddled`` lists the ``(g, j)`` cuts whose order statistic's
    predecessor carries the same key: the records of group ``g`` whose
    key equals ``values[g, j]`` straddle the cut, and the first
    ``cuts[g, j] - below`` of them by index rank below it.
    """
    for g, j in straddled:
        in_group = group_of == g
        tied = np.flatnonzero(in_group & (keys == values[g, j]))
        below = np.count_nonzero(in_group & (keys < values[g, j]))
        counts[tied[: cuts[g, j] - below]] += 1


def _cut_by_sorting(keys, group_of, sizes, cuts) -> np.ndarray:
    """:func:`_count_ranks_below` by one value sort of every composite key."""
    ordered = np.sort(keys)
    positions = (np.cumsum(sizes) - sizes)[:, None] + cuts
    interior = (cuts > 0) & (cuts < sizes[:, None])
    values = np.where(cuts == 0, -np.inf, np.inf)
    values[interior] = ordered[positions[interior]]
    counts = np.zeros(keys.shape[0], dtype=np.min_scalar_type(cuts.shape[1]))
    for column in values.T:
        counts += keys < column.take(group_of)
    straddled = np.zeros_like(interior)
    straddled[interior] = ordered[positions[interior] - 1] == values[interior]
    _break_straddled_ties(
        counts, keys, group_of, cuts, values, zip(*np.nonzero(straddled), strict=True)
    )
    return counts


def _cut_by_buckets(keys, group_of, sizes, cuts, width: int) -> np.ndarray:
    """:func:`_count_ranks_below` by bucketed order statistics, in linear time.

    The composite keys are scaled by ``width`` in place (exact: a power
    of two) and bucketed by their integer part, which is monotone in the
    key, so equal keys share a bucket and group ``g`` spans buckets
    ``g * width`` to ``(g + 1) * width``.  One ``bincount`` places every
    cut's order statistic in its bucket.  A per-bucket table then gives
    each record the number of cuts its bucket lies wholly below; only
    the records of a cut's bucket, and of each group's first bucket
    (where a previous group's key can round up onto the integer), are
    compared exactly, against the order statistics read off their sorted
    keys.
    """
    n_groups, n_cuts = cuts.shape
    keys *= width
    bucket = keys.astype(np.intp)  # floor: the keys are non-negative
    n_buckets = n_groups * width + 1
    per_bucket = np.bincount(bucket, minlength=n_buckets)
    filled = np.cumsum(per_bucket)  # records in buckets 0..b
    g, j = np.nonzero(cuts)
    cut = cuts[g, j]
    full = cut == sizes[g]
    positions = (np.cumsum(sizes) - sizes)[g] + cut  # the cut's order statistic
    cut_bucket = np.searchsorted(filled, positions, side="right")
    cut_bucket[full] = (g[full] + 1) * width
    # A bucket's label counts the cuts of its group that lie in a later bucket.
    label = np.bincount(g * width, minlength=n_buckets + 1)
    label -= np.bincount(cut_bucket, minlength=n_buckets + 1)
    hot = n_cuts + 1  # not a count: the bucket's records are compared exactly
    table = np.cumsum(label[:n_buckets]).astype(np.min_scalar_type(hot))
    interior = ~full
    g, j, cut_bucket = g[interior], j[interior], cut_bucket[interior]
    table[cut_bucket] = hot
    table[width::width] = hot
    counts = table.take(bucket)
    exact = np.flatnonzero(counts == hot)
    exact_keys = keys[exact]
    ordered = np.sort(exact_keys)
    rank = positions[interior] - (filled[cut_bucket] - per_bucket[cut_bucket])
    at = np.searchsorted(ordered, cut_bucket) + rank
    values = np.where(cuts == 0, -np.inf, np.inf)
    values[g, j] = ordered[at]
    exact_groups = group_of[exact]
    exact_counts = np.zeros(exact.shape[0], dtype=counts.dtype)
    for column in values.T:
        exact_counts += exact_keys < column.take(exact_groups)
    counts[exact] = exact_counts
    straddled = (rank > 0) & (ordered[at - 1] == ordered[at])
    _break_straddled_ties(
        counts, keys, group_of, cuts, values, zip(g[straddled], j[straddled], strict=True)
    )
    return counts.astype(np.min_scalar_type(n_cuts), copy=False)


def _count_ranks_below(
    group_of: np.ndarray,
    sizes: np.ndarray,
    cuts: np.ndarray,
    generator: np.random.Generator,
) -> np.ndarray:
    """Per record, how many of its group's ``cuts`` its random rank falls below.

    Every record draws one uniform key (a single ``generator.random(n)``
    call); its *rank* is its position among its own group's records
    ordered by the composite ``group + key``, equal composites ordered
    by record index.  Ranking every group uniformly at random is what
    makes the blocks cut out of the ranks uniform without-replacement
    samples.

    No rank is materialized.  The integer part of ``group + key`` orders
    the groups and the fraction orders the members, so the composite of
    group ``g``'s rank-``c`` member is the ``(start_g + c)``-th smallest
    composite overall, and ``rank < c`` is just ``composite < that
    value``.  A zero cut compares against ``-inf`` and a full cut
    against ``+inf``.  When equal composites straddle a cut (the order
    statistic's predecessor carries the same value, about 1e-10 per cut
    at a million records) the tied records below it are taken in index
    order, so every cut stays exact.

    The order statistics come from one of two exact paths with the same
    result and the same single draw: below about 2**15 records, a value
    sort of every composite (:func:`_cut_by_sorting`); above it,
    bucketed order statistics in linear time (:func:`_cut_by_buckets`,
    :func:`_bucket_width` decides).  At a million records in nine
    groups the bucketed path takes about a third of the sort's time.

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
    width = _bucket_width(sizes, cuts.shape[1])
    if width:
        return _cut_by_buckets(keys, group_of, sizes, cuts, width)
    return _cut_by_sorting(keys, group_of, sizes, cuts)


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
    have quota 0 and are never chosen.  The whole selection is one
    vectorized pass per round (a value sort, or bucketed order statistics
    at scale) instead of a Python loop with one ``generator.choice`` call
    per group — ``benchmarks/bench_replication.py`` pins the speedup.
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


def _check_published_records(
    store: str, arrays: dict, matrix: np.ndarray, t: int, alphabet: int
) -> None:
    """Reject a record matrix no run of the store's algorithm can produce.

    Every array in ``arrays`` (by name) holds integers, rounds ``1..t``
    of the ``(records, rounds)`` ``matrix`` hold symbols in
    ``[0, alphabet)``, and later rounds are still all zero.  Values are
    read as they are, before any narrowing cast.

    Raises
    ------
    repro.exceptions.SerializationError
        On the first violated rule, naming ``store``.
    """
    for name, values in arrays.items():
        if values.dtype.kind not in "biu":
            raise SerializationError(
                f"{store} {name} must hold integers, got dtype {values.dtype}"
            )
    if matrix.size and (matrix.min() < 0 or matrix.max() >= alphabet):
        bad = int(matrix.max()) if matrix.max() >= alphabet else int(matrix.min())
        raise SerializationError(
            f"{store} matrix holds symbol {bad} outside the alphabet [0, {alphabet})"
        )
    unwritten = matrix[:, t:]
    if unwritten.any():
        record, offset = np.argwhere(unwritten)[0]
        raise SerializationError(
            f"{store} record {int(record)} has a non-zero symbol in round "
            f"{t + int(offset) + 1}, but only rounds 1..{t} are written"
        )


def _check_window_records(
    matrix: np.ndarray, codes: np.ndarray, window: int, t: int, alphabet: int
) -> None:
    """Reject window-store records Algorithm 1 cannot produce.

    Rounds ``1..t`` hold symbols in ``[0, alphabet)``, later rounds are
    still all zero, and each record's window code is its last ``window``
    published symbols read as a base-``alphabet`` number.

    Raises
    ------
    repro.exceptions.SerializationError
        On the first violated rule.
    """
    _check_published_records(
        "window-store", {"matrix": matrix, "codes": codes}, matrix, t, alphabet
    )
    expected = np.zeros(matrix.shape[0], dtype=np.int64)
    for j in range(t - window, t):
        expected = expected * alphabet + matrix[:, j]
    mismatched = np.flatnonzero(codes != expected)
    if mismatched.size:
        record = int(mismatched[0])
        raise SerializationError(
            f"window-store code {int(codes[record])} of record {record} "
            f"disagrees with its last {window} published symbols "
            f"(code {int(expected[record])})"
        )


class WindowSyntheticStore:
    """Synthetic records for Algorithm 1 over any alphabet.

    The records are held round-major, as a ``(T, m)`` array with one row
    per round, because Algorithm 1 appends one symbol to every record
    per round and never rewrites a published one: :meth:`extend` writes
    one contiguous row, :meth:`admit` copies only the rounds already
    written, and each round's fingerprint digest reads one row.  The
    record axis grows to exactly the admitted count, and rounds not yet
    written stay untouched zero pages.  Window codes, and the suffix
    groups cut from them, are held in the smallest unsigned dtype that
    holds ``q**k - 1`` (``uint8`` up to 256 bins).  Neither choice shows
    outside: :meth:`state_dict` presents the records as the
    ``(records, rounds)`` matrix and the codes as ``int64``, so
    checkpoint bundles and fingerprints are unchanged.

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
        Total rounds ``T``.
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
        code_dtype = _code_dtype(alphabet, window)
        codes = np.repeat(np.arange(alphabet**window, dtype=code_dtype), counts)
        generator.shuffle(codes)
        self._codes = codes  # current base-q window code per record
        self._records = np.zeros((horizon, self.m), dtype=_digit_dtype(alphabet))
        self._active = np.ones(self.m, dtype=bool)
        digits = codes
        radix = code_dtype.type(alphabet)
        for j in range(window - 1, -1, -1):  # least significant digit first
            high = np.floor_divide(digits, radix)
            self._records[j] = digits - high * radix
            digits = high
        self._reset_digests()

    def _reset_digests(self) -> None:
        """Empty the records' per-round digest cache."""
        self._column_hashes: list = []  # running SHA-256 per written round
        self._hashed_rows = 0  # records every cached round digest covers
        self._zero_hash = hashlib.sha256()  # an unwritten round: _zero_bytes zeros
        self._zero_bytes = 0

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
        :meth:`extend`.  No randomness is consumed.  Only the rounds
        already written are copied into the wider record array.
        """
        if count < 0:
            raise ConfigurationError(f"count must be non-negative, got {count}")
        if count == 0:
            return
        self._codes = np.concatenate(
            [self._codes, np.zeros(count, dtype=self._codes.dtype)]
        )
        records = np.zeros((self.horizon, self.m + count), dtype=self._records.dtype)
        records[: self._t, : self.m] = self._records[: self._t]
        self._records = records
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
        suffixes = _code_suffix(self._codes, n_groups)
        group_targets = target.reshape(n_groups, self.alphabet)
        current_groups = np.bincount(suffixes, minlength=n_groups)
        if not (group_targets.sum(axis=1) == current_groups).all():
            raise ConsistencyError(
                "target histogram violates the overlap-consistency constraint"
            )

        new_digit = _assign_within_groups(
            suffixes, n_groups, group_targets, self._generator, current_groups
        )
        self._records[self._t] = new_digit
        np.multiply(suffixes, suffixes.dtype.type(self.alphabet), out=suffixes)
        np.add(suffixes, new_digit.astype(suffixes.dtype, copy=False), out=suffixes)
        self._codes = suffixes
        self._t += 1

    def matrix_digest(self) -> bytes:
        """Fingerprint digest of the record matrix, caught up lazily.

        The record-matrix leaf rule of
        :func:`repro.serve.checkpoint.state_fingerprint`: SHA-256 over
        the concatenated SHA-256 of each round column ``matrix[:, j]``,
        which is one contiguous row of the round-major records.  It rests
        on Algorithm 1's invariant — a published round is never
        rewritten and records are only appended — so the catch-up costs
        what changed since the last call:

        * each cached round digest absorbs the admitted records' bytes,
          the tail of its row;
        * each newly written round is hashed once;
        * every unwritten round shares one running digest of zero bytes,
          extended as records are admitted (:meth:`from_state` rejects
          a state with a non-zero symbol there).

        :meth:`extend`, :meth:`admit` and :meth:`retire` never hash, and
        :meth:`from_state` starts with an empty cache.

        Returns
        -------
        bytes
            The 32-byte leaf digest of the ``matrix`` array
            :meth:`state_dict` returns.
        """
        hashes = self._column_hashes
        if hashes and self.m > self._hashed_rows:
            admitted = self._records[: len(hashes), self._hashed_rows :]
            for running, row in zip(hashes, admitted):
                running.update(row)
        for j in range(len(hashes), self._t):
            hashes.append(hashlib.sha256(self._records[j]))
        self._hashed_rows = self.m
        column_bytes = self.m * self._records.dtype.itemsize
        if column_bytes > self._zero_bytes:
            self._zero_hash.update(bytes(column_bytes - self._zero_bytes))
            self._zero_bytes = column_bytes
        outer = hashlib.sha256()
        for running in hashes:
            outer.update(running.digest())
        outer.update(self._zero_hash.digest() * (self.horizon - self._t))
        return outer.digest()

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
            return LongitudinalDataset(self._records[:t].T)
        from repro.data.categorical import CategoricalDataset

        return CategoricalDataset(self._records[:t].T, self.alphabet)

    def state_dict(self, *, copy: bool = True) -> dict:
        """Snapshot the store: record matrix, window codes, and clocks.

        Parameters
        ----------
        copy:
            Copy the record matrix and active mask (default).
            ``copy=False`` returns live views for the streaming
            checkpoint writer — the matrix as the transposed view of the
            round-major records, which is F-contiguous, not a C-order
            array — so consume them before the store extends again.

        Returns
        -------
        dict
            Scalars plus the ``codes`` (``int64``, always a fresh array),
            ``matrix`` (``(records, rounds)``, the record dtype) and
            ``active`` arrays; array values stay NumPy arrays for the
            :mod:`repro.serve` bundle layer.  The store's generator is
            shared with (and serialized by) its owning synthesizer, so it
            is *not* captured here.
        """
        matrix = self._records.T
        return {
            "window": self.window,
            "horizon": self.horizon,
            "alphabet": self.alphabet,
            "m": self.m,
            "t": self._t,
            "codes": self._codes.astype(np.int64),
            "matrix": matrix.copy() if copy else matrix,
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
            If the snapshot is structurally invalid, its array shapes
            disagree with the recorded dimensions, or its records are
            ones Algorithm 1 cannot produce: a symbol outside the
            alphabet, a non-zero symbol in a round not yet written, or a
            window code that disagrees with its record's last ``k``
            published symbols.  Values are checked before any dtype
            cast, so a symbol the narrow record dtype would wrap around
            is rejected, not reinterpreted.
        """
        store = object.__new__(cls)
        try:
            store.window = int(state["window"])
            store.horizon = int(state["horizon"])
            store.alphabet = int(state.get("alphabet", 2))
            store.m = int(state["m"])
            store._t = int(state["t"])
            codes = np.asarray(state["codes"])
            matrix = np.asarray(state["matrix"])
            store._active = np.array(state["active"], dtype=bool)
            if store.alphabet < 2:
                raise ValueError(f"alphabet must be at least 2, got {store.alphabet}")
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(f"invalid window-store state: {exc}") from exc
        store._generator = generator
        if store._active.shape != (store.m,):
            raise SerializationError(
                f"window-store active mask has shape {store._active.shape}, "
                f"expected ({store.m},)"
            )
        if matrix.shape != (store.m, store.horizon):
            raise SerializationError(
                f"window-store matrix has shape {matrix.shape}, "
                f"expected {(store.m, store.horizon)}"
            )
        if codes.shape != (store.m,):
            raise SerializationError(
                f"window-store codes have shape {codes.shape}, expected ({store.m},)"
            )
        if not store.window <= store._t <= store.horizon:
            raise SerializationError(
                f"window-store clock {store._t} outside "
                f"[{store.window}, {store.horizon}]"
            )
        _check_window_records(matrix, codes, store.window, store._t, store.alphabet)
        store._codes = codes.astype(_code_dtype(store.alphabet, store.window))
        store._records = np.zeros(
            (store.horizon, store.m), dtype=_digit_dtype(store.alphabet)
        )
        store._records[: store._t] = matrix[:, : store._t].T
        store._reset_digests()
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
            If the snapshot is structurally invalid, its array shapes
            disagree with the recorded dimensions, or its records are
            ones Algorithm 2 cannot produce: a symbol other than 0 or 1,
            a 1 in a round not yet written, or a weight that is not its
            record's count of ones.  Values are checked before the
            ``uint8`` cast, so a symbol it would wrap around is
            rejected, not reinterpreted.
        """
        store = object.__new__(cls)
        try:
            store.m = int(state["m"])
            store.horizon = int(state["horizon"])
            store._t = int(state["t"])
            weights = np.asarray(state["weights"])
            matrix = np.asarray(state["matrix"])
            store._active = np.array(state["active"], dtype=bool)
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(f"invalid cumulative-store state: {exc}") from exc
        store._generator = generator
        if store._active.shape != (store.m,):
            raise SerializationError(
                f"cumulative-store active mask has shape {store._active.shape}, "
                f"expected ({store.m},)"
            )
        if matrix.shape != (store.m, store.horizon):
            raise SerializationError(
                f"cumulative-store matrix has shape {matrix.shape}, "
                f"expected {(store.m, store.horizon)}"
            )
        if weights.shape != (store.m,):
            raise SerializationError(
                f"cumulative-store weights have shape {weights.shape}, "
                f"expected ({store.m},)"
            )
        if not 0 <= store._t <= store.horizon:
            raise SerializationError(
                f"cumulative-store clock {store._t} outside [0, {store.horizon}]"
            )
        _check_published_records(
            "cumulative-store", {"matrix": matrix, "weights": weights}, matrix, store._t, 2
        )
        mismatched = np.flatnonzero(weights != matrix.sum(axis=1, dtype=np.int64))
        if mismatched.size:
            record = int(mismatched[0])
            raise SerializationError(
                f"cumulative-store weight {int(weights[record])} of record {record} "
                f"disagrees with its {int(matrix[record].sum())} published ones"
            )
        store._matrix = matrix.astype(np.uint8)
        store._weights = weights.astype(np.int64)
        return store
