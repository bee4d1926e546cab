"""Append-only, checksummed, fsync'd release journal.

The journal is the DP-critical half of crash recovery.  A continual-
release curator may publish **one** release per round; restarting a
crashed service naively — re-ingesting a round and drawing *fresh*
noise for it — would publish two different releases for the same round
and silently break the privacy analysis.  The
:class:`~repro.serve.supervisor.SupervisedService` therefore writes one
:class:`JournalRecord` per round — the round's input column and churn,
the per-shard state fingerprints, the zCDP spend, and the published
probe answers — to this journal **before** the round is acknowledged to
the caller.  On recovery, the journal tail (everything after the latest
checkpoint) is *replayed*: the recorded inputs are fed to the restored
service, whose checkpoint carried every RNG bit-generator state, so the
replay consumes **the identical random bits** the original run did — no
fresh noise is ever drawn for an already-released round — and each
replayed round's fingerprint is asserted against the journaled one, so
a replay that would diverge fails closed with
:class:`~repro.exceptions.RecoveryError` instead of re-releasing.

Each journaled fingerprint names the scheme that produced it: it reads
``"<scheme>:<hex root>"`` with the scheme
:data:`~repro.serve.checkpoint.FINGERPRINT_SCHEME` (a Merkle root over
the state's JSON and array leaves, see
:func:`~repro.serve.checkpoint.state_fingerprint`).  Recovery refuses to
replay a record written under another scheme, or before schemes were
named (a bare hex digest), with a :class:`~repro.exceptions.RecoveryError`
that says so: such a journal predates the running build, and the way
across is to checkpoint at the journal tip before upgrading.  A service
whose newest checkpoint is at the tip replays nothing and continues.

On-disk format (version 1)::

    file    := frame*
    frame   := magic(4) = b"RJL1"
             | payload_length  uint64 LE
             | payload
             | sha256(payload) (32 bytes)
    payload := meta_length uint32 LE | meta JSON (UTF-8) | column bytes

Column bytes are stored in the compact encoding named by
``meta["encoding"]`` — ``"bits"`` (bit-packed, for binary columns),
``"u1"`` (one byte per entry, for small category codes), or ``"raw"``
— while ``meta["dtype"]`` keeps the logical dtype, so decoding returns
the exact array that was appended.  The append path hashes and fsyncs
every payload, so compactness is what keeps journaling off the serving
critical path (a bit column costs 1/64th of its int64 image).

The first frame is a header (``meta = {"format": "repro-journal", ...}``,
empty column).  Appends are flushed and ``fsync``'d before returning, so
an acknowledged round is durable.  A **torn tail** — a final frame cut
short by a crash mid-append — is the expected crash artifact: the round
it carried was never acknowledged, so readers drop it (reported via
``torn_tail``).  Corruption *before* the tail means acknowledged rounds
would be lost, so it fails closed with
:class:`~repro.exceptions.SerializationError`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import struct
import tempfile

import numpy as np

from repro.exceptions import SerializationError
from repro.serve.checkpoint import _decode_nonfinite, _encode_nonfinite

__all__ = ["JournalRecord", "ReleaseJournal", "JOURNAL_MAGIC", "JOURNAL_VERSION"]

#: Frame magic for journal format 1.
JOURNAL_MAGIC = b"RJL1"

#: Current journal format version.
JOURNAL_VERSION = 1

_LENGTH = struct.Struct("<Q")
_META_LENGTH = struct.Struct("<I")
_DIGEST_SIZE = hashlib.sha256().digest_size
_FRAME_HEAD = len(JOURNAL_MAGIC) + _LENGTH.size

def _encode_column(column: np.ndarray) -> tuple[str, np.ndarray]:
    """Pick the cheapest lossless on-disk encoding for a round column.

    The journal is on the acknowledgement path of every round, so the
    durable append must stay cheap: the dominant costs are hashing and
    fsync-ing the payload, both linear in its size.  Report columns are
    bits (the paper's model) or small category codes carried in wide
    integer dtypes, so the raw ``tobytes()`` image is almost entirely
    zero padding.  Bit-pack binary columns (64x smaller than int64) and
    downcast small non-negative ints to one byte (8x); the *logical*
    dtype still travels in the frame meta, so decoding reproduces the
    exact original array — values and dtype — for replay.
    """
    if column.dtype.kind == "b":
        return "bits", np.packbits(column)
    if column.dtype.kind in "iu" and column.size:
        lo = int(column.min())
        hi = int(column.max())
        if lo >= 0 and hi <= 1:
            return "bits", np.packbits(column.astype(np.uint8, copy=False))
        if lo >= 0 and hi <= 255 and column.dtype.itemsize > 1:
            return "u1", column.astype(np.uint8)
    return "raw", column


def _decode_column(raw: bytes, dtype: np.dtype, n: int, encoding: str) -> np.ndarray:
    if encoding == "raw":
        return np.frombuffer(raw, dtype=dtype, count=n).copy()
    if encoding == "bits":
        packed = np.frombuffer(raw, dtype=np.uint8, count=-(-n // 8))
        return np.unpackbits(packed, count=n).astype(dtype)
    if encoding == "u1":
        return np.frombuffer(raw, dtype=np.uint8, count=n).astype(dtype)
    raise SerializationError(f"unknown journal column encoding {encoding!r}")


@dataclasses.dataclass(frozen=True)
class JournalRecord:
    """One published round, as persisted in the release journal.

    Attributes
    ----------
    round:
        1-based round number the record publishes.
    column:
        The round's input report vector over the then-active population
        (ascending global id order, entrants last) — exactly what was
        passed to ``observe``, so recovery can replay it.
    entrants:
        Number of individuals entering in this round.
    exits:
        Global ids that departed as of this round.
    fingerprints:
        Per-shard :func:`~repro.serve.checkpoint.state_fingerprint`
        digests *after* the round was ingested, each tagged with its
        scheme (``""`` for a disabled shard) — the byte-identity anchor
        recovery replay is verified against.
    zcdp_spent:
        Service-wide zCDP spend after the round (monotone non-decreasing
        across the journal; recovery asserts it never rewinds).
    answers:
        Published probe-query answers for the round, keyed by probe
        label (empty when the supervisor has no probe queries).
    """

    round: int
    column: np.ndarray
    entrants: int = 0
    exits: tuple[int, ...] = ()
    fingerprints: tuple[str, ...] = ()
    zcdp_spent: float = 0.0
    answers: dict = dataclasses.field(default_factory=dict)

    def payload(self) -> bytes:
        """Serialize to one frame payload (meta JSON + encoded column bytes)."""
        column = np.ascontiguousarray(np.asarray(self.column))
        if column.ndim != 1:
            raise SerializationError(
                f"journal columns must be 1-D, got shape {column.shape}"
            )
        encoding, body = _encode_column(column)
        meta = {
            "round": int(self.round),
            "entrants": int(self.entrants),
            "exits": [int(e) for e in self.exits],
            "fingerprints": list(self.fingerprints),
            # Non-finite floats (answers on empty shards can be nan)
            # travel as the checkpoint manifest's string markers.
            "zcdp_spent": _encode_nonfinite(float(self.zcdp_spent)),
            "answers": {
                str(key): _encode_nonfinite(float(value))
                for key, value in self.answers.items()
            },
            "dtype": column.dtype.str,
            "n": int(column.shape[0]),
            "encoding": encoding,
        }
        try:
            meta_bytes = json.dumps(
                meta, sort_keys=True, separators=(",", ":"), allow_nan=False
            ).encode()
        except (TypeError, ValueError) as exc:
            raise SerializationError(
                f"journal record is not JSON-serializable: {exc}"
            ) from exc
        return _META_LENGTH.pack(len(meta_bytes)) + meta_bytes + body.tobytes()

    @classmethod
    def _from_meta(cls, meta: dict, raw) -> "JournalRecord":
        """A record from its parsed frame meta and its encoded column bytes."""
        try:
            column = _decode_column(
                raw,
                np.dtype(meta["dtype"]),
                int(meta["n"]),
                str(meta.get("encoding", "raw")),
            )
            return cls(
                round=int(meta["round"]),
                column=column,
                entrants=int(meta["entrants"]),
                exits=tuple(int(e) for e in meta["exits"]),
                fingerprints=tuple(str(f) for f in meta["fingerprints"]),
                zcdp_spent=float(_decode_nonfinite(meta["zcdp_spent"])),
                answers={
                    str(key): float(_decode_nonfinite(value))
                    for key, value in dict(meta["answers"]).items()
                },
            )
        except SerializationError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(
                f"journal record payload is malformed: {exc}"
            ) from exc


def _frame(payload: bytes) -> bytes:
    return (
        JOURNAL_MAGIC
        + _LENGTH.pack(len(payload))
        + payload
        + hashlib.sha256(payload).digest()
    )


def _read_meta(data: bytes | memoryview, start: int) -> tuple[dict, int]:
    """The meta JSON of the payload at ``data[start]``, and where its column starts."""
    (meta_length,) = _META_LENGTH.unpack_from(data, start)
    start += _META_LENGTH.size
    return json.loads(bytes(data[start: start + meta_length])), start + meta_length


class ReleaseJournal:
    """Durable write-ahead log of published rounds.

    Parameters
    ----------
    path:
        Journal file path.  An existing journal is validated and
        appended to; a missing one is created with a header frame.
    fsync:
        Force every append to stable storage before returning (default).
        Disable only for tests/benchmarks that measure the in-memory
        path — an acknowledged round must survive a power loss in
        production.

    Raises
    ------
    repro.exceptions.SerializationError
        If an existing file at ``path`` is not a valid journal (wrong
        magic, corrupt non-tail frame, bad header).
    """

    def __init__(self, path, *, fsync: bool = True):
        self._path = os.fspath(path)
        self._fsync = bool(fsync)
        self._handle = None
        if os.path.exists(self._path):
            frames, torn, base = self._scan(self._path)
            self.torn_tail = torn
            self._base_round = base
            self._last_round = frames[-1][0] if frames else base
            if torn:
                # Drop the torn tail on disk too, so later appends don't
                # bury unparseable bytes mid-file (which would read as
                # fail-closed corruption instead of a clean tail).
                self._rewrite(frames, base)
        else:
            self.torn_tail = False
            self._base_round = 0
            self._last_round = 0
            self._rewrite([], 0)

    @property
    def path(self) -> str:
        """The journal's file path."""
        return self._path

    @property
    def last_round(self) -> int:
        """Highest round durably journaled so far (0 when empty)."""
        return self._last_round

    @property
    def base_round(self) -> int:
        """Highest round dropped by :meth:`compact` (0 when uncompacted).

        Records for rounds ``base_round + 1 .. last_round`` are on disk;
        everything at or below ``base_round`` is covered by a checkpoint.
        """
        return self._base_round

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def _header_payload(self, base_round: int) -> bytes:
        meta = {
            "format": "repro-journal",
            "version": JOURNAL_VERSION,
            "base_round": int(base_round),
            "dtype": "<i8",
            "n": 0,
        }
        meta_bytes = json.dumps(
            meta, sort_keys=True, separators=(",", ":")
        ).encode()
        return _META_LENGTH.pack(len(meta_bytes)) + meta_bytes

    def _open(self):
        if self._handle is None:
            self._handle = open(self._path, "ab")
        return self._handle

    def append(self, record: JournalRecord) -> None:
        """Durably append one published round.

        The frame is written, flushed, and (by default) ``fsync``'d
        before this method returns — the caller may acknowledge the
        round to its client as soon as ``append`` succeeds.

        Parameters
        ----------
        record:
            The round to journal; ``record.round`` must be exactly
            ``last_round + 1`` (rounds are journaled in order, no gaps).

        Raises
        ------
        repro.exceptions.SerializationError
            On an out-of-order round or an unserializable record.
        OSError
            If the write or fsync fails (disk full, file system error);
            the caller must treat the round as unpublished.
        """
        if record.round != self._last_round + 1:
            raise SerializationError(
                f"journal rounds must be contiguous: expected round "
                f"{self._last_round + 1}, got {record.round}"
            )
        handle = self._open()
        handle.write(_frame(record.payload()))
        handle.flush()
        if self._fsync:
            os.fsync(handle.fileno())
        self._last_round = record.round

    def compact(self, upto_round: int) -> None:
        """Drop records at or before ``upto_round`` (checkpointed rounds).

        Rewrites the journal atomically (tmp + fsync + rename), so the
        file only ever holds the *tail* recovery actually needs: the
        rounds after the latest durable checkpoint.  The kept frames are
        copied verbatim behind a new header frame, after the same checks
        :meth:`records` runs (every frame's magic and SHA-256, round
        contiguity), so corruption before the tail still fails closed and
        a torn tail is dropped.

        Parameters
        ----------
        upto_round:
            Highest round now covered by a checkpoint; records up to and
            including it are removed.  The journal remembers it as its
            :attr:`base_round`, so ``last_round`` and the contiguity
            check survive compaction.

        Raises
        ------
        repro.exceptions.SerializationError
            On non-tail corruption, a bad header, or out-of-order
            rounds.
        """
        upto_round = int(upto_round)
        self.close()
        frames, _, base = self._scan(self._path)
        kept = [entry for entry in frames if entry[0] > upto_round]
        self._rewrite(kept, max(base, upto_round))

    def _rewrite(self, frames: list[tuple], base_round: int) -> None:
        """Atomically replace the journal with a header + ``frames``.

        ``frames`` holds ``(round, frame, ...)`` entries, as :meth:`_scan`
        returns them; each verified frame is written verbatim.
        """
        self.close()
        directory = os.path.dirname(self._path) or "."
        fd, temp_path = tempfile.mkstemp(prefix=".journal-", dir=directory)
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(_frame(self._header_payload(base_round)))
                for entry in frames:
                    handle.write(entry[1])
                handle.flush()
                if self._fsync:
                    os.fsync(handle.fileno())
            os.replace(temp_path, self._path)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
        self._base_round = int(base_round)
        self._last_round = frames[-1][0] if frames else int(base_round)
        self.torn_tail = False

    def close(self) -> None:
        """Close the append handle (reopened transparently on next append)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "ReleaseJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def records(self) -> list[JournalRecord]:
        """All durably journaled rounds, in round order.

        A torn final frame (crash mid-append) is dropped — the round it
        carried was never acknowledged.  Corruption anywhere *before*
        the tail raises: acknowledged rounds would be lost.

        Returns
        -------
        list of JournalRecord
            The journaled rounds (may be empty).

        Raises
        ------
        repro.exceptions.SerializationError
            On non-tail corruption, a bad header, or out-of-order
            rounds.
        """
        self.close()
        frames, torn, base = self._scan(self._path)
        records = [JournalRecord._from_meta(meta, column) for _, _, meta, column in frames]
        self.torn_tail = torn
        self._base_round = base
        self._last_round = frames[-1][0] if frames else base
        if torn:
            # Self-heal: drop the torn bytes on disk, otherwise a later
            # append would land *after* them and turn a harmless torn
            # tail into fail-closed mid-journal corruption.
            self._rewrite(frames, base)
            self.torn_tail = True
        return records

    @staticmethod
    def _scan(path) -> tuple[list[tuple], bool, int]:
        """Verify a journal file into ``(frames, torn_tail, base_round)``.

        ``frames`` holds one ``(round, frame, meta, column)`` entry per
        record frame: its round, a view of the whole frame, its parsed
        meta, and a view of its encoded column bytes.  Every frame's magic
        and SHA-256 and the rounds' contiguity are checked; no column is
        decoded.
        """
        with open(path, "rb") as handle:
            data = handle.read()
        view = memoryview(data)
        offset = 0
        spans: list[tuple[int, int]] = []
        torn = False
        size = len(data)
        while offset < size:
            frame_start = offset
            magic = data[offset: offset + 4]
            if magic != JOURNAL_MAGIC:
                if data.find(JOURNAL_MAGIC, frame_start + 1) != -1:
                    raise SerializationError(
                        f"journal is corrupt at byte {frame_start}: bad frame "
                        "magic with valid frames following — acknowledged "
                        "rounds would be lost; refusing to recover from a "
                        "damaged journal"
                    )
                torn = True
                break
            offset += 4
            if offset + _LENGTH.size > size:
                torn = True
                break
            (length,) = _LENGTH.unpack_from(data, offset)
            offset += _LENGTH.size
            end = offset + length + _DIGEST_SIZE
            if end > size:
                # The declared payload runs past EOF: the append was cut
                # short.  Anything *after* where this frame should end
                # cannot exist, so this is always the tail.
                torn = True
                break
            digest = data[offset + length: end]
            if hashlib.sha256(view[offset: offset + length]).digest() != digest:
                if data.find(JOURNAL_MAGIC, end) != -1:
                    raise SerializationError(
                        f"journal frame at byte {frame_start} fails its "
                        "checksum with valid frames following — the journal "
                        "was corrupted in place; refusing to recover from it"
                    )
                torn = True
                break
            spans.append((frame_start, end))
            offset = end
        if not spans:
            raise SerializationError(
                f"{os.fspath(path)!r} is not a repro release journal "
                "(missing header frame)"
            )
        payloads = [view[start + _FRAME_HEAD: end - _DIGEST_SIZE] for start, end in spans]
        try:
            header_meta, _ = _read_meta(payloads[0], 0)
        except (struct.error, ValueError) as exc:
            raise SerializationError(f"journal header is malformed: {exc}") from exc
        if header_meta.get("format") != "repro-journal":
            raise SerializationError(
                f"not a repro release journal (format={header_meta.get('format')!r})"
            )
        if header_meta.get("version") != JOURNAL_VERSION:
            raise SerializationError(
                f"unsupported journal version {header_meta.get('version')!r}; "
                f"this build reads version {JOURNAL_VERSION}"
            )
        try:
            base_round = int(header_meta.get("base_round", 0))
        except (TypeError, ValueError) as exc:
            raise SerializationError(
                f"journal header base_round is malformed: {exc}"
            ) from exc
        frames = []
        for (start, end), payload in zip(spans[1:], payloads[1:]):
            try:
                meta, body_start = _read_meta(payload, 0)
                round_number = int(meta["round"])
            except (KeyError, TypeError, ValueError, struct.error) as exc:
                raise SerializationError(
                    f"journal record payload is malformed: {exc}"
                ) from exc
            frames.append((round_number, view[start:end], meta, payload[body_start:]))
        rounds = [entry[0] for entry in frames]
        if rounds and rounds[0] != base_round + 1:
            raise SerializationError(
                f"journal starts at round {rounds[0]} but its header "
                f"declares base_round={base_round}; rounds "
                f"{base_round + 1}..{rounds[0] - 1} are missing"
            )
        for previous, current in zip(rounds, rounds[1:]):
            if current != previous + 1:
                raise SerializationError(
                    f"journal rounds are not contiguous: {previous} "
                    f"followed by {current}"
                )
        return frames, torn, base_round

    def __repr__(self) -> str:
        return (
            f"ReleaseJournal(path={self._path!r}, last_round={self._last_round}, "
            f"fsync={self._fsync})"
        )
