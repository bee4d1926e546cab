"""Dynamic-population bookkeeping: who is present when.

The paper's model fixes the population before round 1; real longitudinal
collections (SIPP above all) churn — households attrit wave by wave and
new sample members enter mid-panel.  This module holds the *public* side
of that churn: a :class:`PopulationLedger` tracking each individual's
lifespan ``[entry_round, exit_round)``.

**The neighboring relation under churn.**  Two dynamic panels are
neighbors when they differ in *one individual's entire contribution over
their lifespan* (all of that individual's reports, from entry to exit);
the churn schedule itself — how many individuals enter and leave each
round — is public metadata, exactly like the population size ``n`` in the
static model.  Under the **zero-fill convention** adopted by both
synthesizers, an individual is treated as reporting a structural 0 before
entry and after exit:

* entrants start at Hamming weight 0 (cumulative) / the all-zero window
  code (fixed-window), as if they had silently reported 0 since round 1;
* departed individuals keep reporting a structural 0, so their Hamming
  weight freezes and their window code decays to the all-zero pattern.

Zero-filling is a *public* post-processing of the churn schedule, so it
costs no privacy.  It also preserves every structural invariant the
algorithms rely on: threshold counts ``S_b^t`` stay non-decreasing in
``t`` (frozen weights never fall), and consecutive window histograms stay
overlap-consistent once the previous histogram is credited with this
round's entrants at the all-zero bin.  Each individual still contributes
at most one unit increment to each threshold counter's stream — now
bounded across their *lifespan* instead of the full horizon — so every
per-counter zCDP charge recorded by the
:class:`~repro.dp.accountant.ZCDPAccountant` covers the churned stream at
unchanged sensitivity; the ledger is what makes that lifespan bound an
enforced invariant rather than an assumption.
"""

from __future__ import annotations

import hashlib
import operator

import numpy as np

from repro.exceptions import DataValidationError, SerializationError

__all__ = [
    "PopulationLedger",
    "validate_column",
    "validate_entrants",
    "validate_exit_ids",
]


def validate_column(column: np.ndarray, alphabet: int, *, label: str = "column") -> None:
    """Reject report entries outside ``{0, ..., alphabet - 1}``, cheaply.

    Runs before any state moves, so a rejected round leaves the stream
    intact.  The check is dtype-aware: boolean columns are structurally
    valid, integer columns need only a min/max sweep (two SIMD
    reductions), float columns must hold integral values in range (so
    ``0.5`` is rejected instead of truncated, and ``NaN`` never reaches
    a ``bincount``), and anything else falls back to an exact
    membership test.

    Parameters
    ----------
    column:
        Report array (any shape, any dtype).
    alphabet:
        Number of categories ``q >= 2``.
    label:
        What the entries are, for the error message.

    Raises
    ------
    repro.exceptions.DataValidationError
        If any entry is not exactly one of ``0, ..., alphabet - 1``.
    """
    if not column.size:
        return
    kind = column.dtype.kind
    if kind == "b":
        return
    if kind in "ui":
        valid = int(column.max()) < alphabet and (
            kind == "u" or int(column.min()) >= 0
        )
    elif kind == "f":
        valid = bool(
            ((column >= 0) & (column < alphabet) & (np.trunc(column) == column)).all()
        )
    else:
        valid = bool(np.isin(column, np.arange(alphabet)).all())
    if valid:
        return
    if alphabet == 2:
        raise DataValidationError(f"{label} entries must be 0 or 1")
    raise DataValidationError(f"{label} entries must lie in [0, {alphabet})")


def validate_entrants(entrants) -> int:
    """A round's declared entrant count, as a non-negative ``int``.

    Raises
    ------
    repro.exceptions.DataValidationError
        If ``entrants`` is not an integer (a float such as ``2.7`` or a
        bool would otherwise be truncated or coerced) or is negative.
    """
    if isinstance(entrants, (bool, np.bool_)):
        raise DataValidationError(f"entrants must be an integer, got {entrants!r}")
    try:
        count = operator.index(entrants)
    except TypeError:
        raise DataValidationError(
            f"entrants must be an integer, got {entrants!r}"
        ) from None
    if count < 0:
        raise DataValidationError(f"entrants must be non-negative, got {count}")
    return count


def validate_exit_ids(ids, active: np.ndarray) -> np.ndarray:
    """Validate a round's exit declarations against an active mask.

    The one definition of what a legal exit list is — shared by
    :meth:`PopulationLedger.retire` and the sharded service's pre-shard
    validation, so the two layers cannot drift.

    Parameters
    ----------
    ids:
        Proposed exit ids (admission order).
    active:
        Boolean per-individual activity mask of length ``n_ever``.

    Returns
    -------
    numpy.ndarray
        The ids as a sorted int64 array.

    Raises
    ------
    repro.exceptions.DataValidationError
        On non-1-D input, non-integer ids (floats, strings and bools
        would otherwise be truncated or coerced), duplicates,
        out-of-range ids, or ids that already departed (exits are
        permanent; re-entry is not part of the model).
    """
    ids = np.asarray(ids)
    if ids.ndim != 1:
        raise DataValidationError(f"exit ids must be 1-D, got shape {ids.shape}")
    if ids.size == 0:
        return np.zeros(0, dtype=np.int64)
    if ids.dtype.kind not in "iu":
        raise DataValidationError(
            f"exit ids must be integers, got {ids.tolist()} ({ids.dtype})"
        )
    ids = np.sort(ids.astype(np.int64))
    if (np.diff(ids) == 0).any():
        raise DataValidationError("exit ids must be unique")
    n_ever = int(active.shape[0])
    if ids[0] < 0 or ids[-1] >= n_ever:
        raise DataValidationError(
            f"exit ids must lie in [0, {n_ever - 1}], got {ids.tolist()}"
        )
    departed = ~active[ids]
    if departed.any():
        bad = int(ids[departed][0])
        raise DataValidationError(
            f"individual {bad} already departed; exits are permanent and "
            "re-entry is not supported"
        )
    return ids


class PopulationLedger:
    """Lifespan table for a dynamic population.

    Individuals are identified by their **admission order**: the initial
    population (everyone admitted at round 1) gets ids ``0..n-1`` in
    column order, and each later entrant gets the next id.  An individual
    is *active* from their entry round until (exclusively) their exit
    round; exits are permanent — a departed id can never re-enter, and
    entrants always receive fresh ids, so re-entry is structurally
    impossible and an attempt to retire a departed id is rejected.

    Admission order is also entry order: entry rounds never decrease
    along the ids, so the round lookups below are binary searches and the
    active count is a counter rather than a scan.

    Parameters
    ----------
    entry_round, exit_round:
        Optional initial lifespan arrays (used by deserialization);
        fresh ledgers start empty and grow via :meth:`admit`.  A
        decreasing ``entry_round`` is rejected.
    """

    def __init__(self, entry_round=None, exit_round=None):
        self._entry = np.asarray(
            entry_round if entry_round is not None else [], dtype=np.int64
        )
        self._exit = np.asarray(
            exit_round if exit_round is not None else [], dtype=np.int64
        )
        if self._entry.shape != self._exit.shape or self._entry.ndim != 1:
            raise DataValidationError("entry/exit rounds must be equal-length 1-D arrays")
        if (np.diff(self._entry) < 0).any():
            raise DataValidationError("entry rounds must be non-decreasing in admission order")
        self._n_active = int((self._exit == 0).sum())
        self._churned = bool(
            (self._exit > 0).any() or (self._entry > 1).any()
        )
        self._entry_hash = hashlib.sha256()  # over entry_round[:_entry_hashed]
        self._entry_hashed = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def n_ever(self) -> int:
        """Total individuals ever admitted."""
        return int(self._entry.shape[0])

    @property
    def n_active(self) -> int:
        """Individuals currently present (admitted and not departed)."""
        return self._n_active

    @property
    def churned(self) -> bool:
        """True once any mid-stream entry or any exit has been recorded."""
        return self._churned

    def active_ids(self) -> np.ndarray:
        """Ids of the currently active individuals, ascending."""
        return np.flatnonzero(self._exit == 0)

    def n_ever_at(self, round_number: int) -> int:
        """Individuals admitted by the end of round ``round_number``."""
        return int(np.searchsorted(self._entry, round_number, side="right"))

    def lifespans(self) -> np.ndarray:
        """Per-individual ``(entry_round, exit_round)`` pairs.

        Returns
        -------
        numpy.ndarray
            Shape ``(n_ever, 2)`` int64; ``exit_round`` 0 means the
            individual is still active.
        """
        return np.stack([self._entry, self._exit], axis=1)

    def entry_round_digest(self) -> bytes:
        """SHA-256 of the ``entry_round`` array's bytes, caught up lazily.

        ``entry_round`` only grows at its end (entrants take the next
        ids), so a running digest absorbs the ids admitted since the last
        call and never re-reads the rest; :meth:`admit` itself does no
        hashing.

        Returns
        -------
        bytes
            The 32-byte digest of the ``entry_round`` leaf
            :meth:`state_dict` returns.
        """
        if self._entry_hashed < self._entry.shape[0]:
            self._entry_hash.update(
                np.ascontiguousarray(self._entry[self._entry_hashed :])
            )
            self._entry_hashed = self._entry.shape[0]
        return self._entry_hash.digest()

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def admit(self, count: int, round_number: int) -> None:
        """Admit ``count`` fresh individuals entering at ``round_number``.

        Parameters
        ----------
        count:
            Number of entrants (non-negative); they receive the next
            ``count`` ids in admission order.
        round_number:
            The 1-indexed round the entrants first report in; never
            earlier than a previous admission's round.
        """
        if count < 0:
            raise DataValidationError(f"entrant count must be non-negative, got {count}")
        if count == 0:
            return
        if self._entry.size and round_number < self._entry[-1]:
            raise DataValidationError(
                f"cannot admit at round {round_number} after admitting at "
                f"round {int(self._entry[-1])}"
            )
        self._entry = np.concatenate(
            [self._entry, np.full(count, round_number, dtype=np.int64)]
        )
        self._exit = np.concatenate([self._exit, np.zeros(count, dtype=np.int64)])
        self._n_active += count
        if round_number > 1:
            self._churned = True

    def retire(self, ids, round_number: int) -> np.ndarray:
        """Record that ``ids`` stop reporting as of ``round_number``.

        Parameters
        ----------
        ids:
            Ids (admission order) of currently *active* individuals; a
            departed or unknown id is rejected — exits are permanent and
            re-entry is not part of the model.
        round_number:
            The first 1-indexed round the individuals are absent from.

        Returns
        -------
        numpy.ndarray
            The validated exit ids as a sorted int64 array.
        """
        ids = np.asarray(ids)
        if ids.shape == (0,):
            return np.zeros(0, dtype=np.int64)
        ids = validate_exit_ids(ids, self._exit == 0)
        self._exit[ids] = round_number
        self._n_active -= ids.size
        self._churned = True
        return ids

    def scatter_column(self, column: np.ndarray) -> np.ndarray:
        """Zero-fill an active-population column to the ever-population.

        Parameters
        ----------
        column:
            Length-``n_active`` integer report vector, ordered by
            ascending id over the active individuals.

        Returns
        -------
        numpy.ndarray
            Length-``n_ever`` vector of ``column``'s dtype (the window
            engine passes its narrow code dtype, the cumulative
            synthesizer ``int64``) with the reports placed at the active
            ids and structural zeros elsewhere.  When everyone ever
            admitted is still active this is ``column`` itself (no copy),
            which keeps the fixed-population fast path allocation- and
            bit-exact.
        """
        if column.shape != (self.n_active,):
            raise DataValidationError(
                f"column has {column.shape[0]} entries, expected n_active={self.n_active}"
            )
        if self.n_active == self.n_ever:
            return column
        full = np.zeros(self.n_ever, dtype=column.dtype)
        full[self.active_ids()] = column
        return full

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def state_dict(self, *, copy: bool = True) -> dict:
        """Snapshot the lifespan table (NumPy arrays, bundle-ready).

        Parameters
        ----------
        copy:
            Copy the arrays (default).  ``copy=False`` returns live views
            for the streaming checkpoint writer; consume them before the
            ledger records further churn.
        """
        if not copy:
            return {"entry_round": self._entry, "exit_round": self._exit}
        return {
            "entry_round": self._entry.copy(),
            "exit_round": self._exit.copy(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "PopulationLedger":
        """Rebuild a ledger from :meth:`state_dict` output.

        Parameters
        ----------
        state:
            A snapshot with ``entry_round`` and ``exit_round`` arrays.

        Returns
        -------
        PopulationLedger
            The restored lifespan table.

        Raises
        ------
        repro.exceptions.SerializationError
            If the snapshot is structurally invalid, including an
            ``entry_round`` that decreases along the ids.
        """
        try:
            entry = np.array(state["entry_round"], dtype=np.int64)
            exit_round = np.array(state["exit_round"], dtype=np.int64)
            return cls(entry, exit_round)
        except (KeyError, TypeError, ValueError, DataValidationError) as exc:
            raise SerializationError(f"invalid population ledger state: {exc}") from exc

    def __repr__(self) -> str:
        return (
            f"PopulationLedger(n_ever={self.n_ever}, n_active={self.n_active}, "
            f"churned={self._churned})"
        )
