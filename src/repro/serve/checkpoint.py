"""Versioned, integrity-checked checkpoint bundles.

A version-3 checkpoint bundle is a single zip file holding:

``manifest.json``
    Format name/version, library version, the exact noise sampler whose
    draws follow the recorded generator states, the bundle ``kind``
    (``"streaming"`` or ``"sharded"``), the synthesizer ``config``, the
    JSON half of the serialized ``state`` (array leaves replaced by
    ``{"__array__": <key>}`` placeholders), a SHA-256 checksum over the
    canonical JSON of ``config`` + ``state``, and one SHA-256 checksum
    per array member.

``arrays/<key>.npy``
    One ``.npy`` member per NumPy array leaf of the state, named by the
    array's ``/``-joined path in the state tree.  Members are **spooled**
    into the zip chunk by chunk as they are written, so checkpointing a
    multi-gigabyte state never materializes a second in-RAM copy of it —
    peak writer memory is one block and one compressor, not the state
    size.  The reader decompresses each member once, into the buffer
    its array then views.
    Every member is DEFLATEd at zlib level 1 except a nested bundle (a
    leaf named ``bundle``), which is stored.  All member timestamps are
    pinned to the zip epoch, so two services in the same state produce
    **byte-identical** bundles (the sharded executor-equivalence tests
    rely on this).

Version-2 bundles (a single ``arrays.npz`` member with one whole-archive
checksum) remain fully readable; :func:`write_bundle` writes version 3
only.

The split is lossless: :func:`read_bundle` re-grafts each array back at
its placeholder, so components (synthesizers, banks, counters, stores)
serialize to ordinary nested dicts and never touch files themselves.
Every failure mode — unreadable zip, missing member, bad JSON, unknown
format or version, checksum mismatch, pickled arrays — raises
:class:`~repro.exceptions.SerializationError`, never a bare
``ValueError``/``KeyError``.

See ``docs/source/checkpoint-format.rst`` for the on-disk reference.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import struct
import tempfile
import warnings
import zipfile
import zlib

import numpy as np

from repro.dp.discrete_gaussian import NOISE_SAMPLER_VERSION
from repro.exceptions import NoiseSamplerWarning, SerializationError

__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "FINGERPRINT_SCHEME",
    "split_arrays",
    "join_arrays",
    "write_bundle",
    "read_bundle",
    "state_fingerprint",
]

#: Identifies a repro checkpoint bundle (guards against foreign zips).
FORMAT_NAME = "repro-checkpoint"

#: Current bundle format version; bump on any incompatible layout change.
#: Version 2 added the dynamic-population state: the synthesizers'
#: ``ledger`` lifespan table, the stores' ``active`` masks, and the
#: sharded service's ``shard_of``/``active`` assignment.  Version 3
#: replaced the monolithic ``arrays.npz`` member with one streamed
#: ``arrays/<key>.npy`` member per array (per-member checksums,
#: deterministic timestamps) so the writer's peak memory is independent
#: of the state size; version-2 bundles remain readable.
FORMAT_VERSION = 3

#: Versions this reader accepts.
SUPPORTED_VERSIONS = (2, 3)

#: Names the definition :func:`state_fingerprint` implements.  Every
#: fingerprint reads ``"<scheme>:<hex root>"``, so a digest written under
#: another definition (or before schemes were named) is recognizable as
#: such instead of looking like a diverged state.
FINGERPRINT_SCHEME = "merkle-sha256-v1"

_FRAME_LENGTH = struct.Struct("<Q")

_MANIFEST = "manifest.json"
_ARRAYS = "arrays.npz"
_ARRAY_DIR = "arrays/"
_ARRAY_SUFFIX = ".npy"
_ARRAY_MARKER = "__array__"
_ARRAY_KEY_PREFIX = "k/"
_NONFINITE_MARKER = "__nonfinite__"

#: Fixed member timestamp (the zip epoch): bundles are byte-deterministic
#: functions of their content, never of the wall clock.
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)

#: zlib level of every deflated member.  Level 1 writes a checkpoint
#: round's state several times faster than zlib's default level 6, and
#: the members it deflates (mostly narrow codes and masks) still shrink
#: severalfold.  Checksums are taken over uncompressed bytes, so the
#: level never shows in a checksum or a fingerprint.
_DEFLATE_LEVEL = zlib.Z_BEST_SPEED

#: Leaf name of a nested bundle (the sharded service's per-shard blobs):
#: already deflated inside, so it is stored, not deflated a second time.
_NESTED_BUNDLE_LEAF = "bundle"

_JSON_SCALARS = (str, int, float, bool, type(None))

# Non-finite floats (rho=inf is an advertised mode) are not valid RFC-8259
# JSON, so they travel as {"__nonfinite__": "inf" | "-inf" | "nan"}
# markers; the manifest stays parseable by jq and non-Python tooling.
_NONFINITE_ENCODE = {math.inf: "inf", -math.inf: "-inf"}
_NONFINITE_DECODE = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}


def _encode_nonfinite(value):
    """Replace non-finite floats with JSON-safe markers, recursively."""
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return {_NONFINITE_MARKER: "nan"}
        return {_NONFINITE_MARKER: _NONFINITE_ENCODE[value]}
    if isinstance(value, dict):
        return {key: _encode_nonfinite(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_encode_nonfinite(item) for item in value]
    return value


def _decode_nonfinite(value):
    """Inverse of :func:`_encode_nonfinite`."""
    if isinstance(value, dict):
        if set(value) == {_NONFINITE_MARKER}:
            try:
                return _NONFINITE_DECODE[value[_NONFINITE_MARKER]]
            except (KeyError, TypeError) as exc:
                raise SerializationError(
                    f"invalid non-finite marker {value!r}"
                ) from exc
        return {key: _decode_nonfinite(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_decode_nonfinite(item) for item in value]
    return value


def split_arrays(state, path: str = "") -> tuple[object, dict[str, np.ndarray]]:
    """Split a nested state dict into its JSON half and its array leaves.

    Parameters
    ----------
    state:
        A nested structure of dicts, lists, JSON scalars, and NumPy
        arrays.  Arrays may appear only as dict values (not inside
        lists), so every array has a stable ``/``-joined key.
    path:
        Internal recursion accumulator; leave at the default.

    Returns
    -------
    tuple
        ``(json_part, arrays)`` where ``json_part`` mirrors ``state``
        with each array replaced by an ``{"__array__": key}`` placeholder
        and ``arrays`` maps those keys to the arrays.

    Raises
    ------
    SerializationError
        If a value is not JSON-serializable (sets, custom objects) or an
        array is nested inside a list.
    """
    if isinstance(state, np.ndarray):
        if not path:
            raise SerializationError("the state root must be a dict, not an array")
        return {_ARRAY_MARKER: path}, {path: state}
    if isinstance(state, dict):
        if set(state) in ({_ARRAY_MARKER}, {_NONFINITE_MARKER}):
            # A user-supplied dict shaped exactly like one of the format's
            # reserved markers would be mis-decoded on read; refuse it at
            # write time rather than corrupt the round-trip.
            raise SerializationError(
                f"state dict at {path or '<root>'!r} collides with the "
                f"reserved marker shape {set(state)}"
            )
        json_part: dict = {}
        arrays: dict[str, np.ndarray] = {}
        for key, value in state.items():
            if not isinstance(key, str) or "/" in key or not key:
                raise SerializationError(
                    f"state keys must be non-empty strings without '/', got {key!r}"
                )
            child_json, child_arrays = split_arrays(
                value, f"{path}/{key}" if path else key
            )
            json_part[key] = child_json
            arrays.update(child_arrays)
        return json_part, arrays
    if isinstance(state, (list, tuple)):
        out = []
        for item in state:
            if isinstance(item, (np.ndarray, dict, list, tuple)):
                if isinstance(item, np.ndarray):
                    raise SerializationError(
                        f"arrays may not be nested inside lists (at {path!r}); "
                        "key them in a dict instead"
                    )
                child_json, child_arrays = split_arrays(item, path)
                if child_arrays:
                    raise SerializationError(
                        f"arrays may not be nested inside lists (at {path!r})"
                    )
                out.append(child_json)
            else:
                out.append(_as_json_scalar(item, path))
        return out, {}
    return _as_json_scalar(state, path), {}


def _as_json_scalar(value, path: str):
    """Coerce NumPy scalars to Python; reject non-JSON values."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, _JSON_SCALARS):
        return value
    raise SerializationError(
        f"state value at {path!r} is not JSON-serializable: {type(value).__name__}"
    )


def join_arrays(json_part, arrays: dict[str, np.ndarray]):
    """Inverse of :func:`split_arrays`: graft arrays back at their markers.

    Parameters
    ----------
    json_part:
        The JSON half of a state tree, containing array placeholders.
    arrays:
        The array leaves keyed by placeholder key.

    Returns
    -------
    object
        The reassembled state tree.

    Raises
    ------
    SerializationError
        If a placeholder references a key missing from ``arrays``.
    """
    if isinstance(json_part, dict):
        if set(json_part) == {_ARRAY_MARKER}:
            key = json_part[_ARRAY_MARKER]
            try:
                return arrays[key]
            except KeyError:
                raise SerializationError(
                    f"bundle arrays are missing entry {key!r}"
                ) from None
        return {key: join_arrays(value, arrays) for key, value in json_part.items()}
    if isinstance(json_part, list):
        return [join_arrays(item, arrays) for item in json_part]
    return json_part


def _canonical_json(payload) -> bytes:
    try:
        # allow_nan=False guarantees the checksummed form is RFC-8259
        # JSON; non-finite floats must already be marker-encoded.
        return json.dumps(
            payload, sort_keys=True, separators=(",", ":"), allow_nan=False
        ).encode()
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"state is not JSON-serializable: {exc}") from exc


def _framed(data: bytes) -> bytes:
    """``data`` prefixed with its length, so framed fields never run together."""
    return _FRAME_LENGTH.pack(len(data)) + data


def _leaf_digest(key: str, array: np.ndarray) -> bytes:
    """The digest :func:`state_fingerprint` commits to for one array leaf.

    Parameters
    ----------
    key:
        The leaf's ``/``-joined path in the state tree.
    array:
        The leaf.

    Returns
    -------
    bytes
        For a record matrix (a 2-D leaf whose key ends in ``matrix``),
        SHA-256 over the concatenated SHA-256 of its columns; for any
        other leaf, SHA-256 of its C-order bytes, read straight from its
        buffer when it is C-contiguous.
    """
    if array.ndim == 2 and key.rsplit("/", 1)[-1] == "matrix":
        outer = hashlib.sha256()
        for column in np.ascontiguousarray(array.T):
            outer.update(hashlib.sha256(column).digest())
        return outer.digest()
    return hashlib.sha256(np.ascontiguousarray(array)).digest()


def state_fingerprint(config: dict, state: dict, *, leaf_digests=None) -> str:
    """Merkle fingerprint of a full ``(config, state)`` snapshot.

    The root is SHA-256 over the length-framed canonical JSON of the
    config and the JSON half of the state, followed by one entry per
    array leaf in key order: the length-framed key, dtype string
    (``dtype.str``) and comma-joined shape, then the leaf's 32-byte
    digest.  The leaf rule:

    * a record matrix (a 2-D leaf whose key ends in ``matrix``, shape
      ``(records, rounds)``) digests to SHA-256 over the concatenated
      SHA-256 of each round column ``matrix[:, j]``;
    * every other leaf digests to SHA-256 of its C-order bytes.  (Not
      the column rule: a categorical ``histograms`` leaf can have up to
      65,536 bins, which would mean as many hash calls.)

    The root therefore commits to every byte :func:`write_bundle` would
    persist for the state: the JSON, and each leaf's key, dtype, shape
    and contents.  Under SHA-256's collision resistance two snapshots
    fingerprint equal **iff** their checkpoint bundles (written by the
    same build) would be byte-identical.  The release journal records
    one fingerprint per shard per published round; crash recovery
    re-derives each replayed round's fingerprint, which is how
    "journaled rounds are replayed byte-identically, never re-noised" is
    asserted rather than assumed.

    Because a published round's column never changes, an owner can keep
    its column digests and pass the finished leaf digest through
    ``leaf_digests`` instead of re-hashing every past round.

    Parameters
    ----------
    config:
        The synthesizer's JSON-safe constructor configuration.
    state:
        A ``state_dict()`` snapshot (nested dicts with array leaves).
    leaf_digests:
        Optional mapping from leaf key to that leaf's digest, kept up to
        date by the leaf's owner; each must equal what
        :func:`_leaf_digest` computes for the leaf.  Leaves not named
        here are hashed from their buffers.

    Returns
    -------
    str
        ``"<FINGERPRINT_SCHEME>:<hex root>"``.

    Raises
    ------
    SerializationError
        If the snapshot contains values the bundle format cannot
        represent (the same rejection :func:`write_bundle` applies).
    """
    json_state, arrays = split_arrays(state)
    cached = leaf_digests or {}
    root = hashlib.sha256(
        _framed(
            _canonical_json(
                {
                    "config": _encode_nonfinite(config),
                    "state": _encode_nonfinite(json_state),
                }
            )
        )
    )
    for key in sorted(arrays):
        array = arrays[key]
        digest = cached.get(key)
        if digest is None:
            digest = _leaf_digest(key, array)
        root.update(_framed(key.encode()))
        root.update(_framed(array.dtype.str.encode()))
        root.update(_framed(",".join(str(size) for size in array.shape).encode()))
        root.update(digest)
    return f"{FINGERPRINT_SCHEME}:{root.hexdigest()}"


class _HashingWriter:
    """File-object proxy forwarding writes while hashing the bytes."""

    def __init__(self, target):
        self._target = target
        self._digest = hashlib.sha256()
        self.nbytes = 0

    def write(self, data) -> int:
        view = memoryview(data)
        self._digest.update(view)
        self.nbytes += view.nbytes
        self._target.write(view)
        return view.nbytes

    def hexdigest(self) -> str:
        return self._digest.hexdigest()


def _member_info(name: str, compress_type: int) -> zipfile.ZipInfo:
    """A deterministic member header: epoch timestamp, fixed mode bits.

    A deflated member carries :data:`_DEFLATE_LEVEL` on its own header,
    because ``ZipFile.open`` and ``writestr`` compress a member handed
    in as a ``ZipInfo`` at that header's level, never the archive's.
    """
    info = zipfile.ZipInfo(name, date_time=_ZIP_EPOCH)
    info.compress_type = compress_type
    if compress_type == zipfile.ZIP_DEFLATED:
        # ``compress_level`` from Python 3.13 on; ``_compresslevel`` names
        # it on every supported Python (an alias property since 3.13).
        info._compresslevel = _DEFLATE_LEVEL
    info.external_attr = 0o644 << 16  # plain rw-r--r-- file
    return info


def _member_compression(key: str) -> int:
    """Stored for a nested bundle, DEFLATE for every other array leaf."""
    if key.rsplit("/", 1)[-1] == _NESTED_BUNDLE_LEAF:
        return zipfile.ZIP_STORED
    return zipfile.ZIP_DEFLATED


def _array_member(key: str) -> str:
    return f"{_ARRAY_DIR}{key}{_ARRAY_SUFFIX}"


#: Bytes per block in which a leaf is written.
_WRITE_CHUNK_BYTES = 1 << 20


def _write_array(fp, array: np.ndarray) -> None:
    """Write ``array`` as one ``.npy`` member, always in C order.

    The member gets the version-1.0 header NumPy writes for the leaf's
    C-order copy (``fortran_order: False``), then the leaf's C-order
    bytes in blocks of leading-axis slices of about
    :data:`_WRITE_CHUNK_BYTES`.  A block of a C-contiguous leaf is a view
    of it; only a leaf in another layout — such as the window store's
    record matrix, a transposed view of its round-major records — is
    copied, one block at a time.  So no copy of a whole leaf is ever
    made, and equal leaves give equal member bytes whatever their memory
    layout, which is what lets equal fingerprints mean byte-identical
    bundles.  An object array goes to NumPy's writer, which refuses it.
    """
    if array.dtype.hasobject:
        np.lib.format.write_array(fp, array, allow_pickle=False)
        return
    header = np.lib.format.header_data_from_array_1_0(array)
    header["fortran_order"] = False
    np.lib.format.write_array_header_1_0(fp, header)
    rows = array.reshape(1) if array.ndim == 0 else array
    row_bytes = rows.itemsize * math.prod(rows.shape[1:])
    step = max(1, _WRITE_CHUNK_BYTES // max(1, row_bytes))
    for start in range(0, rows.shape[0], step):
        fp.write(np.ascontiguousarray(rows[start : start + step]))


def write_bundle(path, kind: str, config: dict, state: dict) -> None:
    """Write one checkpoint bundle.

    Parameters
    ----------
    path:
        Target file path (``str`` / ``os.PathLike``) or a writable binary
        file object (the sharded service nests shard bundles this way).
    kind:
        Bundle kind tag, e.g. ``"streaming"`` or ``"sharded"``; checked
        again by :func:`read_bundle`.
    config:
        JSON-safe constructor configuration (no arrays).
    state:
        Nested state dict; NumPy array leaves become streamed
        ``arrays/<key>.npy`` members.

    Raises
    ------
    SerializationError
        If the state contains values the format cannot represent.

    Notes
    -----
    Each member's compression follows from what it holds.  The manifest
    and every array member are DEFLATEd at zlib level 1
    (``Z_BEST_SPEED``); a leaf named ``bundle`` is a nested bundle whose
    members are deflated already (the sharded service's shard blobs),
    so it is stored.  Readers take any DEFLATE level and stored members
    alike, and member checksums cover uncompressed bytes.

    Array members are spooled block by block straight into the zip
    (blocks of about 1 MiB, views of the leaf wherever its layout
    allows), so the writer's peak memory does not scale with the state
    size — pass ``state_dict(copy=False)`` snapshots to keep the whole
    checkpoint path allocation-lean.  Every member is
    written in C order (``fortran_order: False``), whatever the layout
    of the array handed in, and member timestamps are pinned, so equal
    states produce byte-identical bundles.

    Filesystem writes are atomic: the bundle is assembled in a temporary
    file in the target directory and renamed over ``path``, so a crash
    mid-write (the very scenario checkpoints exist for) never destroys
    the previous good checkpoint at the same path.
    """
    from repro import __version__

    json_state, arrays = split_arrays(state)
    json_state = _encode_nonfinite(json_state)
    config = _encode_nonfinite(config)
    manifest = {
        "format": FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        "library_version": __version__,
        "noise_sampler": NOISE_SAMPLER_VERSION,
        "kind": str(kind),
        "config": config,
        "state": json_state,
        "state_checksum": hashlib.sha256(
            _canonical_json({"config": config, "state": json_state})
        ).hexdigest(),
    }

    def _fill(target) -> None:
        checksums: dict[str, str] = {}
        with zipfile.ZipFile(target, "w", compression=zipfile.ZIP_DEFLATED) as bundle:
            for key in sorted(arrays):
                info = _member_info(_array_member(key), _member_compression(key))
                with bundle.open(info, "w", force_zip64=True) as member:
                    writer = _HashingWriter(member)
                    _write_array(writer, np.asanyarray(arrays[key]))
                checksums[key] = writer.hexdigest()
            manifest["array_checksums"] = checksums
            manifest_text = json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False)
            bundle.writestr(
                _member_info(_MANIFEST, zipfile.ZIP_DEFLATED), manifest_text
            )

    if isinstance(path, (str, os.PathLike)):
        # Atomic replace: never truncate an existing good checkpoint
        # before the new one is fully on disk.
        directory = os.path.dirname(os.fspath(path)) or "."
        fd, temp_path = tempfile.mkstemp(prefix=".ckpt-", dir=directory)
        try:
            # mkstemp creates 0600; apply the umask-derived mode ordinary
            # open() would have produced so other-user readers still work.
            # (fchmod is POSIX-only; Windows has no comparable mode bits.)
            if hasattr(os, "fchmod"):
                umask = os.umask(0)
                os.umask(umask)
                os.fchmod(fd, 0o666 & ~umask)
            with os.fdopen(fd, "wb") as handle:
                _fill(handle)
                handle.flush()
                # Force the bytes to disk before the rename is journaled,
                # or a power loss could leave the renamed file truncated —
                # destroying the old checkpoint anyway.
                os.fsync(handle.fileno())
            os.replace(temp_path, path)
            try:
                dir_fd = os.open(directory, os.O_RDONLY)
                try:
                    os.fsync(dir_fd)
                finally:
                    os.close(dir_fd)
            except OSError:
                pass  # directory fsync is best-effort (unsupported on some OSes)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
    else:
        _fill(path)


def read_bundle(path, kind: str | None = None) -> tuple[dict, dict]:
    """Read, verify, and reassemble a checkpoint bundle.

    Parameters
    ----------
    path:
        Bundle file path or a readable binary file object.
    kind:
        When given, the bundle's ``kind`` must match exactly.

    Returns
    -------
    tuple
        ``(config, state)`` — the constructor configuration and the
        reassembled state tree with NumPy arrays back in place.

    Raises
    ------
    SerializationError
        If the file is not a zip, a member is missing, the manifest is
        not valid JSON, the format name or version is unsupported, the
        requested ``kind`` does not match, or either checksum fails
        (a truncated or tampered bundle).

    Warns
    -----
    NoiseSamplerWarning
        If the manifest's ``noise_sampler`` is missing or names another
        sampler: the bundle restores, and draws made after the restore
        come from this build's sampler.
    """
    try:
        with zipfile.ZipFile(path, "r") as bundle:
            try:
                manifest_bytes = bundle.read(_MANIFEST)
            except KeyError as exc:
                raise SerializationError(f"bundle member missing: {exc}") from exc
            try:
                manifest = json.loads(manifest_bytes)
            except json.JSONDecodeError as exc:
                raise SerializationError(
                    f"bundle manifest is not valid JSON: {exc}"
                ) from exc
            if not isinstance(manifest, dict) or manifest.get("format") != FORMAT_NAME:
                raise SerializationError(
                    f"not a {FORMAT_NAME} bundle (format={manifest.get('format')!r})"
                    if isinstance(manifest, dict)
                    else "bundle manifest must be a JSON object"
                )
            version = manifest.get("format_version")
            if version not in SUPPORTED_VERSIONS:
                raise SerializationError(
                    f"unsupported checkpoint format version {version!r}; "
                    f"this build reads versions {SUPPORTED_VERSIONS}"
                )
            if kind is not None and manifest.get("kind") != kind:
                raise SerializationError(
                    f"expected a {kind!r} bundle, got kind={manifest.get('kind')!r}"
                )
            try:
                config = manifest["config"]
                json_state = manifest["state"]
                state_checksum = manifest["state_checksum"]
            except KeyError as exc:
                raise SerializationError(
                    f"bundle manifest missing field: {exc}"
                ) from exc
            digest = hashlib.sha256(
                _canonical_json({"config": config, "state": json_state})
            ).hexdigest()
            if digest != state_checksum:
                raise SerializationError(
                    "bundle state checksum mismatch — the manifest was modified "
                    "after the checkpoint was written"
                )
            if version == 2:
                arrays = _read_arrays_v2(bundle, manifest)
            else:
                arrays = _read_arrays_v3(bundle, manifest)
            sampler = manifest.get("noise_sampler")
    except SerializationError:
        raise
    except zipfile.BadZipFile as exc:
        # Distinguish the torn-write signature (a bundle whose trailing
        # central directory never made it to disk — power loss or crash
        # mid-copy) from in-place corruption: operators react differently
        # (delete the partial file vs investigate tampering).
        raise SerializationError(_bad_zip_message(path, exc)) from exc
    except (OSError, zlib.error) as exc:
        # A flipped byte inside a member surfaces as a zlib/CRC failure
        # during decompression, not as a checksum mismatch — both are the
        # same condition to callers: a corrupt bundle.
        raise SerializationError(f"cannot read checkpoint bundle: {exc}") from exc
    if sampler != NOISE_SAMPLER_VERSION:
        written = "predates noise-sampler versioning" if sampler is None else (
            f"was written under noise sampler {sampler!r}"
        )
        warnings.warn(
            NoiseSamplerWarning(
                f"checkpoint bundle {written}; noise drawn after this restore "
                f"comes from sampler {NOISE_SAMPLER_VERSION!r}"
            ),
            stacklevel=2,
        )
    config = _decode_nonfinite(config)
    json_state = _decode_nonfinite(json_state)
    return config, join_arrays(json_state, arrays)


#: End-of-central-directory signature; every intact zip ends with one
#: within the final ~65.5 KiB (the maximum zip comment length).
_EOCD_MAGIC = b"PK\x05\x06"
_EOCD_SCAN = 65_557 + 64


def _bad_zip_message(path, exc: zipfile.BadZipFile) -> str:
    """A diagnosis for an unreadable zip: torn write vs corruption.

    A checkpoint (or nested shard bundle) interrupted mid-write loses its
    trailing central directory, so the end-of-central-directory record is
    absent from the file's tail; scanning for it separates "this file is
    an incomplete write — delete it and fall back to an older checkpoint"
    from "this file was corrupted in place".  A file that does not even
    *start* with a zip signature is not a torn checkpoint at all — just
    not a checkpoint — and keeps the generic diagnosis.
    """
    head = b""
    tail = b""
    try:
        if isinstance(path, (str, os.PathLike)):
            with open(path, "rb") as handle:
                head = handle.read(4)
                handle.seek(0, os.SEEK_END)
                size = handle.tell()
                handle.seek(max(0, size - _EOCD_SCAN))
                tail = handle.read()
        elif hasattr(path, "seek") and hasattr(path, "read"):
            path.seek(0)
            head = path.read(4)
            path.seek(0, os.SEEK_END)
            size = path.tell()
            path.seek(max(0, size - _EOCD_SCAN))
            tail = path.read()
    except (OSError, ValueError):  # pragma: no cover - unreadable handle
        return f"cannot read checkpoint bundle: {exc}"
    if head.startswith(b"PK") and _EOCD_MAGIC not in tail:
        return (
            "checkpoint bundle is truncated: the zip central directory "
            "was cut off mid-write (no end-of-central-directory record) — "
            "the file is an incomplete or torn write, not a valid "
            "checkpoint; delete it and restore from an older bundle"
        )
    return f"cannot read checkpoint bundle: {exc}"


def _read_arrays_v2(bundle: zipfile.ZipFile, manifest: dict) -> dict[str, np.ndarray]:
    """Decode the version-2 monolithic ``arrays.npz`` member."""
    try:
        array_bytes = bundle.read(_ARRAYS)
    except KeyError as exc:
        raise SerializationError(f"bundle member missing: {exc}") from exc
    try:
        arrays_checksum = manifest["arrays_checksum"]
    except KeyError as exc:
        raise SerializationError(f"bundle manifest missing field: {exc}") from exc
    if hashlib.sha256(array_bytes).hexdigest() != arrays_checksum:
        raise SerializationError(
            "bundle array checksum mismatch — arrays.npz was modified "
            "after the checkpoint was written"
        )
    try:
        with np.load(io.BytesIO(array_bytes), allow_pickle=False) as archive:
            arrays = {}
            for key in archive.files:
                if not key.startswith(_ARRAY_KEY_PREFIX):
                    raise SerializationError(
                        f"bundle array entry {key!r} lacks the "
                        f"{_ARRAY_KEY_PREFIX!r} key prefix"
                    )
                arrays[key[len(_ARRAY_KEY_PREFIX):]] = archive[key]
    except SerializationError:
        raise
    except (OSError, ValueError, zipfile.BadZipFile, zlib.error) as exc:
        # Inner-zip CRC/deflate failures surface here when the npz bytes
        # are corrupt in a way that still matches the recorded checksum.
        raise SerializationError(f"cannot decode bundle arrays: {exc}") from exc
    return arrays


def _read_arrays_v3(bundle: zipfile.ZipFile, manifest: dict) -> dict[str, np.ndarray]:
    """Decode the version-3 per-array ``arrays/<key>.npy`` members."""
    checksums = manifest.get("array_checksums")
    if not isinstance(checksums, dict):
        raise SerializationError("bundle manifest missing field: 'array_checksums'")
    present = set()
    for name in bundle.namelist():
        if not name.startswith(_ARRAY_DIR) or name == _ARRAY_DIR:
            continue
        if not name.endswith(_ARRAY_SUFFIX):
            raise SerializationError(
                f"unexpected bundle array member {name!r} (not a .npy file)"
            )
        present.add(name[len(_ARRAY_DIR):-len(_ARRAY_SUFFIX)])
    expected = set(checksums)
    if present != expected:
        missing = sorted(expected - present)
        extra = sorted(present - expected)
        raise SerializationError(
            "bundle array members disagree with the manifest "
            f"(missing={missing}, unexpected={extra})"
        )
    arrays: dict[str, np.ndarray] = {}
    for key in sorted(expected):
        buffer, digest = _read_member(bundle, _array_member(key))
        if digest != checksums[key]:
            raise SerializationError(
                f"bundle array checksum mismatch for {key!r} — the member "
                "was modified after the checkpoint was written"
            )
        try:
            arrays[key] = _decode_array(buffer)
        except (OSError, ValueError) as exc:
            raise SerializationError(
                f"cannot decode bundle array {key!r}: {exc}"
            ) from exc
    return arrays


#: Bytes per read when a member is decompressed into its buffer.
_READ_CHUNK_BYTES = 1 << 16

#: The most uncompressed bytes one compressed byte can hold: one when
#: stored, and DEFLATE's limit of 1032 when deflated.
_MAX_EXPANSION = {zipfile.ZIP_STORED: 1, zipfile.ZIP_DEFLATED: 1032}


def _read_member(bundle: zipfile.ZipFile, name: str) -> tuple[bytearray, str]:
    """A member's uncompressed bytes and their SHA-256 hex digest.

    The member is decompressed chunk by chunk straight into one buffer of
    the size its zip header declares, hashing as it goes, so reading it
    never holds a second copy of it.  A declared size its compressed
    bytes cannot hold is corruption, refused before anything is
    allocated; one they can hold but do not is refused once the data
    runs out.
    """
    info = bundle.getinfo(name)
    expansion = _MAX_EXPANSION.get(info.compress_type)
    if expansion is not None and info.file_size > expansion * info.compress_size:
        raise SerializationError(
            f"bundle member {name!r} declares {info.file_size} bytes, more "
            f"than its {info.compress_size} compressed bytes can hold"
        )
    buffer = bytearray(info.file_size)
    view = memoryview(buffer)
    digest = hashlib.sha256()
    position = 0
    with bundle.open(info) as member:
        while position < len(buffer):
            count = member.readinto(view[position: position + _READ_CHUNK_BYTES])
            if not count:
                raise SerializationError(
                    f"bundle member {name!r} ends after {position} of the "
                    f"{len(buffer)} bytes its zip header declares"
                )
            digest.update(view[position: position + count])
            position += count
    return buffer, digest.hexdigest()


def _decode_array(buffer: bytearray) -> np.ndarray:
    """The ``.npy`` array held in ``buffer``, as a view of its data bytes.

    Only the header is parsed; the array shares ``buffer``'s memory, so a
    member is held once between reading it and loading its state.  Every
    writer of this format emits version-1.0 headers; any other version,
    and an object dtype, raise ``ValueError``.
    """
    reader = _BufferReader(buffer)
    version = np.lib.format.read_magic(reader)
    if version != (1, 0):
        raise ValueError(f".npy format version {version} is not 1.0")
    shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(reader)
    count = math.prod(shape)
    array = np.frombuffer(buffer, dtype=dtype, count=count, offset=reader.tell())
    if fortran_order:
        return array.reshape(shape[::-1]).T
    return array.reshape(shape)


class _BufferReader:
    """A seekable, read-only file over a bytes-like object, never copied whole.

    ``io.BytesIO`` copies any buffer that is not a ``bytes`` object; this
    reader copies only what each ``read`` returns.  Seeking before the
    start clamps to 0, as ``io.BytesIO`` does.
    """

    def __init__(self, buffer):
        self._view = memoryview(buffer).cast("B")
        self._position = 0

    def read(self, size: int | None = -1) -> bytes:
        start = self._position
        end = len(self._view) if size is None or size < 0 else start + size
        data = bytes(self._view[start:end])
        self._position += len(data)
        return data

    def seek(self, offset: int, whence: int = os.SEEK_SET) -> int:
        origin = (0, self._position, len(self._view))[whence]
        self._position = max(0, origin + offset)
        return self._position

    def tell(self) -> int:
        return self._position

    def seekable(self) -> bool:
        return True
