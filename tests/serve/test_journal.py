"""The release journal: durability format for the one-release-per-round rule.

The journal is the DP-critical half of crash recovery: a round is
acknowledged only after its :class:`~repro.serve.journal.JournalRecord`
is on stable storage, and recovery replays the journal instead of
re-noising.  These tests pin the format contract directly:

* append/scan round-trips every field byte-exactly (columns by dtype and
  bytes, non-finite probe answers included);
* a **torn tail** — the expected crash artifact — is dropped *and
  healed on disk*, so later appends cannot bury garbage mid-file;
* corruption anywhere before the tail fails closed with
  :class:`~repro.exceptions.SerializationError` (acknowledged rounds
  would be lost);
* compaction preserves round numbering via the persisted ``base_round``,
  across reopen.
"""

import shutil

import numpy as np
import pytest

from repro.exceptions import SerializationError
from repro.serve.journal import (
    JOURNAL_MAGIC,
    JournalRecord,
    ReleaseJournal,
    _frame,
)


def _record(round_number, n=7, seed=0, **overrides):
    rng = np.random.default_rng(seed + round_number)
    fields = dict(
        round=round_number,
        column=rng.integers(0, 2, size=n).astype(np.int64),
        entrants=round_number % 3,
        exits=(round_number * 10,) if round_number % 2 else (),
        fingerprints=(f"fp-{round_number}-a", f"fp-{round_number}-b"),
        zcdp_spent=0.01 * round_number,
        answers={"probe": 0.25 * round_number},
    )
    fields.update(overrides)
    return JournalRecord(**fields)


def _fill(journal, n_rounds, **overrides):
    records = [_record(r, **overrides) for r in range(1, n_rounds + 1)]
    for record in records:
        journal.append(record)
    return records


def _assert_records_equal(actual, expected):
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got.round == want.round
        assert got.column.dtype == want.column.dtype
        assert np.array_equal(got.column, want.column)
        assert got.entrants == want.entrants
        assert got.exits == want.exits
        assert got.fingerprints == want.fingerprints
        assert got.zcdp_spent == want.zcdp_spent
        assert set(got.answers) == set(want.answers)
        for key in want.answers:
            a, b = got.answers[key], want.answers[key]
            assert a == b or (np.isnan(a) and np.isnan(b))


# ---------------------------------------------------------------------------
# Round-trip
# ---------------------------------------------------------------------------


def test_append_scan_roundtrip(tmp_path):
    path = tmp_path / "journal.log"
    with ReleaseJournal(path) as journal:
        written = _fill(journal, 5)
        assert journal.last_round == 5
    with ReleaseJournal(path) as journal:
        _assert_records_equal(journal.records(), written)
        assert journal.last_round == 5
        assert journal.base_round == 0
        assert not journal.torn_tail


def test_nonfinite_answers_roundtrip(tmp_path):
    record = _record(
        1, answers={"nan": float("nan"), "inf": float("inf"), "ninf": float("-inf")}
    )
    with ReleaseJournal(tmp_path / "j.log") as journal:
        journal.append(record)
        _assert_records_equal(journal.records(), [record])


def test_column_dtype_preserved(tmp_path):
    record = _record(1, column=np.array([0, 1, 2], dtype=np.uint8))
    with ReleaseJournal(tmp_path / "j.log") as journal:
        journal.append(record)
        (got,) = journal.records()
    assert got.column.dtype == np.uint8
    assert np.array_equal(got.column, [0, 1, 2])


@pytest.mark.parametrize(
    ("column", "encoding"),
    [
        # binary columns bit-pack: 1/64th of the int64 image on disk
        (np.arange(640, dtype=np.int64) % 2, "bits"),
        (np.zeros(640, dtype=bool), "bits"),
        # small category codes travel one byte per entry
        (np.arange(640, dtype=np.int64) % 5, "u1"),
        # anything wider stays raw
        (np.arange(640, dtype=np.int64) * 7 - 3, "raw"),
        (np.linspace(0.0, 1.0, 640), "raw"),
    ],
)
def test_compact_column_encodings_roundtrip_exactly(tmp_path, column, encoding):
    record = _record(1, column=column)
    payload = record.payload()
    if encoding == "bits":
        assert len(payload) < column.size  # far below one byte per entry
    elif encoding == "u1":
        assert len(payload) < 2 * column.size
    else:
        assert len(payload) >= column.nbytes
    with ReleaseJournal(tmp_path / "j.log") as journal:
        journal.append(record)
        (got,) = journal.records()
    assert got.column.dtype == column.dtype
    assert np.array_equal(got.column, column)


def test_appends_must_be_contiguous(tmp_path):
    with ReleaseJournal(tmp_path / "j.log") as journal:
        journal.append(_record(1))
        with pytest.raises(SerializationError, match="contiguous"):
            journal.append(_record(3))
        with pytest.raises(SerializationError, match="contiguous"):
            journal.append(_record(1))


def test_2d_column_rejected(tmp_path):
    with ReleaseJournal(tmp_path / "j.log") as journal:
        with pytest.raises(SerializationError, match="1-D"):
            journal.append(_record(1, column=np.zeros((2, 2), dtype=np.int64)))


# ---------------------------------------------------------------------------
# Torn tails (the expected crash artifact)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cut", [1, 17, 40])
def test_torn_tail_dropped_and_healed(tmp_path, cut):
    path = tmp_path / "journal.log"
    with ReleaseJournal(path) as journal:
        written = _fill(journal, 4)
    size = path.stat().st_size
    with open(path, "r+b") as handle:
        handle.truncate(size - cut)

    with ReleaseJournal(path) as journal:
        # The torn final frame is round 4's; it was never acknowledged.
        _assert_records_equal(journal.records(), written[:3])
        assert journal.last_round == 3
        # Healed on disk: the torn bytes are gone, appends continue cleanly.
        journal.append(_record(4))
    with ReleaseJournal(path) as journal:
        assert not journal.torn_tail
        assert journal.last_round == 4


def test_mid_journal_corruption_fails_closed(tmp_path):
    path = tmp_path / "journal.log"
    with ReleaseJournal(path) as journal:
        _fill(journal, 4)
    data = bytearray(path.read_bytes())
    # Damage a payload byte well before the final frame.
    data[len(data) // 3] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(SerializationError, match="refusing to recover"):
        ReleaseJournal(path)


def test_bad_magic_with_valid_frames_after_fails_closed(tmp_path):
    path = tmp_path / "journal.log"
    with ReleaseJournal(path) as journal:
        _fill(journal, 3)
    data = bytearray(path.read_bytes())
    second_frame = data.find(JOURNAL_MAGIC, 1)
    data[second_frame] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(SerializationError, match="refusing to recover"):
        ReleaseJournal(path)


def test_not_a_journal_rejected(tmp_path):
    path = tmp_path / "junk.log"
    path.write_bytes(b"this is not a journal at all")
    with pytest.raises(SerializationError, match="not a repro release journal"):
        ReleaseJournal(path)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.log"
    path.write_bytes(b"")
    with pytest.raises(SerializationError, match="missing header"):
        ReleaseJournal(path)


# ---------------------------------------------------------------------------
# Compaction and round numbering
# ---------------------------------------------------------------------------


def test_compaction_preserves_round_numbering(tmp_path):
    path = tmp_path / "journal.log"
    with ReleaseJournal(path) as journal:
        written = _fill(journal, 6)
        journal.compact(4)
        assert journal.base_round == 4
        assert journal.last_round == 6
        _assert_records_equal(journal.records(), written[4:])
        # Appends stay contiguous with the pre-compaction numbering.
        journal.append(_record(7))
    # base_round survives reopen (it is persisted in the header frame).
    with ReleaseJournal(path) as journal:
        assert journal.base_round == 4
        assert journal.last_round == 7
        with pytest.raises(SerializationError, match="contiguous"):
            journal.append(_record(5))


def test_compact_everything_then_continue(tmp_path):
    path = tmp_path / "journal.log"
    with ReleaseJournal(path) as journal:
        _fill(journal, 3)
        journal.compact(3)
        assert journal.records() == []
        assert journal.last_round == 3
        journal.append(_record(4))
    with ReleaseJournal(path) as journal:
        assert [record.round for record in journal.records()] == [4]


def test_compact_past_last_round_fast_forwards(tmp_path):
    # A checkpoint can outlive a truncated journal; compacting *past* the
    # tail re-bases the journal at the checkpoint round.
    path = tmp_path / "journal.log"
    with ReleaseJournal(path) as journal:
        _fill(journal, 2)
        journal.compact(9)
        assert journal.base_round == 9
        assert journal.last_round == 9
        journal.append(_record(10))
        assert journal.last_round == 10


def test_compaction_is_idempotent(tmp_path):
    with ReleaseJournal(tmp_path / "j.log") as journal:
        _fill(journal, 5)
        journal.compact(2)
        journal.compact(2)
        journal.compact(1)  # never un-compacts
        assert journal.base_round == 2
        assert [record.round for record in journal.records()] == [3, 4, 5]


def _decode_and_rewrite(journal, upto_round):
    """The bytes compaction wrote when it re-encoded every kept record."""
    kept = [record for record in journal.records() if record.round > upto_round]
    header = journal._header_payload(max(journal.base_round, upto_round))
    return _frame(header) + b"".join(_frame(record.payload()) for record in kept)


@pytest.mark.parametrize("upto_round", [0, 2, 5, 6, 9])
@pytest.mark.parametrize("torn", [False, True])
def test_compaction_copies_the_kept_frames_byte_for_byte(tmp_path, upto_round, torn):
    path = tmp_path / "journal.log"
    reference = tmp_path / "reference.log"
    with ReleaseJournal(path) as journal:
        _fill(journal, 4)
        # Wide and non-finite fields: every byte of meta and column travels.
        journal.append(_record(5, column=np.arange(300, dtype=np.int32) % 7,
                               answers={"nan": float("nan"), "inf": float("inf")}))
        journal.append(_record(6, column=np.ones(5, dtype=bool), exits=(1, 2, 3)))
        journal.compact(1)
        if torn:  # a crash cut the next append short
            with open(path, "ab") as handle:
                handle.write(JOURNAL_MAGIC + b"\x05")
        shutil.copyfile(path, reference)
        journal.compact(upto_round)
        assert journal.base_round == max(1, upto_round)
        assert journal.last_round == max(6, upto_round)
        assert not journal.torn_tail
    with ReleaseJournal(reference) as earlier:
        assert path.read_bytes() == _decode_and_rewrite(earlier, upto_round)


def test_compaction_fails_closed_on_a_corrupt_frame_it_would_drop(tmp_path):
    path = tmp_path / "journal.log"
    with ReleaseJournal(path) as journal:
        _fill(journal, 6)
        data = bytearray(path.read_bytes())
        second_record = data.find(JOURNAL_MAGIC, data.find(JOURNAL_MAGIC, 1) + 1)
        data[second_record + 20] ^= 0xFF  # a payload byte of round 2
        path.write_bytes(bytes(data))
        with pytest.raises(SerializationError, match="fails its checksum"):
            journal.compact(4)
    assert path.read_bytes() == bytes(data)
