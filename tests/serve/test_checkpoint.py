"""Checkpoint round-trips: mid-stream byte-identity and bundle integrity."""

import hashlib
import io
import json
import math
import warnings
import zipfile

import numpy as np
import pytest

from oracles.checkpoint_v2 import write_bundle_v2
from oracles.scalar import fallback_reference
from repro.core.cumulative import CumulativeSynthesizer
from repro.data import iid_bernoulli
from repro.dp.discrete_gaussian import NOISE_SAMPLER_VERSION
from repro.exceptions import NoiseSamplerWarning, SerializationError
from repro.rng import as_generator, generator_state, restore_generator_state
from repro.serve import StreamingSynthesizer
from repro.serve.checkpoint import (
    _canonical_json,
    join_arrays,
    read_bundle,
    split_arrays,
    write_bundle,
)
from repro.streams.bank import BinaryTreeBank, SimpleBank
from repro.streams.registry import make_counter

HORIZON = 10
N = 250


@pytest.fixture(scope="module")
def columns():
    return list(iid_bernoulli(N, HORIZON, p=0.35, seed=13).columns())


def _resume_matches_uninterrupted(
    service_factory, columns, cut, compare, restore=StreamingSynthesizer.restore
):
    """Checkpoint at ``cut``, restore, and compare final artifacts."""
    uninterrupted = service_factory()
    for column in columns[:cut]:
        uninterrupted.observe(column)
    buffer = io.BytesIO()
    uninterrupted.checkpoint(buffer)
    for column in columns[cut:]:
        uninterrupted.observe(column)

    buffer.seek(0)
    resumed = restore(buffer)
    assert resumed.t == cut
    for column in columns[cut:]:
        resumed.observe(column)
    compare(uninterrupted, resumed)


def _compare_cumulative(a, b):
    assert np.array_equal(a.release.threshold_table(), b.release.threshold_table())
    assert np.array_equal(
        a.release.synthetic_data().matrix, b.release.synthetic_data().matrix
    )
    if a.synthesizer.accountant is not None:
        assert a.synthesizer.accountant.charges == b.synthesizer.accountant.charges


def _compare_window(a, b):
    assert a.release.released_times() == b.release.released_times()
    for t in a.release.released_times():
        assert np.array_equal(a.release.histogram(t), b.release.histogram(t))
    assert np.array_equal(
        a.release.synthetic_data().matrix, b.release.synthetic_data().matrix
    )
    if a.synthesizer.accountant is not None:
        assert a.synthesizer.accountant.charges == b.synthesizer.accountant.charges


@pytest.mark.parametrize("engine", ["vectorized", "scalar"])
@pytest.mark.parametrize(
    "counter", ["binary_tree", "simple", "sqrt_factorization", "laplace_tree", "honaker"]
)
def test_cumulative_checkpoint_byte_identity_under_noise(columns, engine, counter):
    """``"scalar"`` runs every threshold on the reference's per-threshold
    counters (a :class:`FallbackBank`), on both sides of the checkpoint."""

    def build():
        synth = CumulativeSynthesizer(HORIZON, 0.02, seed=3, counter=counter)
        return StreamingSynthesizer(
            fallback_reference(synth) if engine == "scalar" else synth
        )

    def restore(buffer):
        if engine != "scalar":
            return StreamingSynthesizer.restore(buffer)
        config, state = read_bundle(buffer, kind="streaming")
        synth = fallback_reference(CumulativeSynthesizer.from_config(config))
        synth.load_state(state)
        return StreamingSynthesizer(synth)

    _resume_matches_uninterrupted(
        build, columns, cut=HORIZON // 2, compare=_compare_cumulative, restore=restore
    )


@pytest.mark.parametrize("cut", [1, 2, 3, 7, HORIZON])
def test_fixed_window_checkpoint_byte_identity_under_noise(columns, cut):
    """Cuts before, at, and after the first full window — and at the end."""
    _resume_matches_uninterrupted(
        lambda: StreamingSynthesizer.fixed_window(
            horizon=HORIZON, window=3, rho=0.02, seed=5
        ),
        columns,
        cut=cut,
        compare=_compare_window,
    )


def test_checkpoint_at_round_zero(columns):
    _resume_matches_uninterrupted(
        lambda: StreamingSynthesizer.cumulative(horizon=HORIZON, rho=0.02, seed=8),
        columns,
        cut=0,
        compare=_compare_cumulative,
    )


def test_lazy_materialization_survives_checkpoint(columns):
    """Deferred record draws replay identically on the restored side."""
    service = StreamingSynthesizer.cumulative(horizon=HORIZON, rho=0.02, seed=3)
    for column in columns[:6]:
        service.observe(column)
    buffer = io.BytesIO()
    service.checkpoint(buffer)
    buffer.seek(0)
    resumed = StreamingSynthesizer.restore(buffer)
    # Neither side has materialized yet; both now draw the pending records.
    assert np.array_equal(
        service.release.synthetic_data().matrix,
        resumed.release.synthetic_data().matrix,
    )


def test_restored_noise_stream_is_identical(columns):
    """The *future* noise draws match, not just the released tables."""
    service = StreamingSynthesizer.cumulative(horizon=HORIZON, rho=0.02, seed=21)
    for column in columns[:4]:
        service.observe(column)
    buffer = io.BytesIO()
    service.checkpoint(buffer)
    buffer.seek(0)
    resumed = StreamingSynthesizer.restore(buffer)
    for column in columns[4:]:
        a = service.observe(column).threshold_table()
        b = resumed.observe(column).threshold_table()
        assert np.array_equal(a, b)


# ----------------------------------------------------------------------
# Bundle integrity
# ----------------------------------------------------------------------


def _checkpoint_bytes(columns) -> bytes:
    service = StreamingSynthesizer.cumulative(horizon=HORIZON, rho=0.02, seed=3)
    for column in columns[:4]:
        service.observe(column)
    buffer = io.BytesIO()
    service.checkpoint(buffer)
    return buffer.getvalue()


def _unpack(blob: bytes) -> dict[str, bytes]:
    with zipfile.ZipFile(io.BytesIO(blob)) as bundle:
        return {name: bundle.read(name) for name in bundle.namelist()}


def _repack(members: dict[str, bytes]) -> io.BytesIO:
    tampered = io.BytesIO()
    with zipfile.ZipFile(tampered, "w") as bundle:
        for name, data in members.items():
            bundle.writestr(name, data)
    tampered.seek(0)
    return tampered


def test_tampered_arrays_rejected(columns):
    members = _unpack(_checkpoint_bytes(columns))
    victim = next(name for name in members if name.startswith("arrays/"))
    blob = bytearray(members[victim])
    blob[len(blob) // 2] ^= 0xFF
    members[victim] = bytes(blob)
    with pytest.raises(SerializationError, match="array checksum"):
        StreamingSynthesizer.restore(_repack(members))


def test_tampered_manifest_rejected(columns):
    members = _unpack(_checkpoint_bytes(columns))
    manifest = json.loads(members["manifest.json"])
    manifest["state"]["t"] = 2  # rewind the clock without re-signing
    members["manifest.json"] = json.dumps(manifest)
    with pytest.raises(SerializationError, match="state checksum"):
        StreamingSynthesizer.restore(_repack(members))


def test_version_mismatch_rejected(columns):
    members = _unpack(_checkpoint_bytes(columns))
    manifest = json.loads(members["manifest.json"])
    manifest["format_version"] = 99
    members["manifest.json"] = json.dumps(manifest)
    with pytest.raises(SerializationError, match="format version"):
        StreamingSynthesizer.restore(_repack(members))


def test_manifest_records_the_noise_sampler(columns):
    manifest = json.loads(_unpack(_checkpoint_bytes(columns))["manifest.json"])
    assert manifest["noise_sampler"] == NOISE_SAMPLER_VERSION


def test_bundle_without_noise_sampler_restores_and_says_so(columns):
    blob = _checkpoint_bytes(columns)
    members = _unpack(blob)
    manifest = json.loads(members["manifest.json"])
    del manifest["noise_sampler"]  # a bundle written before the field existed
    members["manifest.json"] = json.dumps(manifest)
    with pytest.warns(NoiseSamplerWarning, match="predates noise-sampler versioning"):
        stripped = StreamingSynthesizer.restore(_repack(members))
    with warnings.catch_warnings():
        warnings.simplefilter("error", NoiseSamplerWarning)
        intact = StreamingSynthesizer.restore(io.BytesIO(blob))
    for column in columns[4:]:
        stripped.observe(column)
        intact.observe(column)
    _compare_cumulative(stripped, intact)


def test_bundle_from_another_sampler_names_it(columns):
    members = _unpack(_checkpoint_bytes(columns))
    manifest = json.loads(members["manifest.json"])
    manifest["noise_sampler"] = "cks-scalar-0"
    members["manifest.json"] = json.dumps(manifest)
    with pytest.warns(NoiseSamplerWarning, match="'cks-scalar-0'"):
        StreamingSynthesizer.restore(_repack(members))


def test_resigned_bundle_with_impossible_records_rejected():
    """Checksums prove integrity, not provenance: a re-signed bundle whose
    record matrix holds a symbol outside the alphabet must not restore."""
    service = StreamingSynthesizer.categorical_window(HORIZON, 2, 3, 0.5, seed=2)
    reports = np.random.default_rng(1).integers(0, 3, size=(60, 5))
    for column in reports.T:
        service.observe(column)
    buffer = io.BytesIO()
    service.checkpoint(buffer)
    members = _unpack(buffer.getvalue())
    name = "arrays/store/matrix.npy"
    matrix = np.lib.format.read_array(io.BytesIO(members[name]))
    matrix[0, 0] = 7  # a uint8 the q=3 record dtype would have accepted
    rewritten = io.BytesIO()
    np.lib.format.write_array(rewritten, matrix)
    members[name] = rewritten.getvalue()
    manifest = json.loads(members["manifest.json"])
    manifest["array_checksums"]["store/matrix"] = hashlib.sha256(members[name]).hexdigest()
    members["manifest.json"] = json.dumps(manifest)
    with pytest.raises(SerializationError, match="symbol 7 outside the alphabet"):
        StreamingSynthesizer.restore(_repack(members))


def test_resigned_cumulative_bundle_with_impossible_records_rejected(columns):
    """The cumulative store fails closed too: a re-signed bundle whose
    record matrix holds a 2 (a uint8 the record dtype would accept) must
    not restore."""
    service = StreamingSynthesizer.cumulative(horizon=HORIZON, rho=0.5, seed=2)
    for column in columns[:4]:
        service.observe(column)
    service.release.synthetic_data()  # materialize the records
    buffer = io.BytesIO()
    service.checkpoint(buffer)
    members = _unpack(buffer.getvalue())
    name = "arrays/store/matrix.npy"
    matrix = np.lib.format.read_array(io.BytesIO(members[name]))
    matrix[0, 0] = 2
    rewritten = io.BytesIO()
    np.lib.format.write_array(rewritten, matrix)
    members[name] = rewritten.getvalue()
    manifest = json.loads(members["manifest.json"])
    manifest["array_checksums"]["store/matrix"] = hashlib.sha256(members[name]).hexdigest()
    members["manifest.json"] = json.dumps(manifest)
    with pytest.raises(SerializationError, match="symbol 2 outside the alphabet"):
        StreamingSynthesizer.restore(_repack(members))


# ----------------------------------------------------------------------
# Legacy configs: bundles written while engine/materialize were options
# ----------------------------------------------------------------------


def _with_config_keys(blob: bytes, **keys) -> io.BytesIO:
    """``blob`` with extra manifest config keys, its state checksum re-signed."""
    members = _unpack(blob)
    manifest = json.loads(members["manifest.json"])
    manifest["config"].update(keys)
    manifest["state_checksum"] = hashlib.sha256(
        _canonical_json({"config": manifest["config"], "state": manifest["state"]})
    ).hexdigest()
    members["manifest.json"] = json.dumps(manifest)
    return _repack(members)


def _legacy_services():
    """One short stream per synthesizer whose config carried ``engine``."""
    from repro.data.categorical import employment_status_panel
    from repro.types import AttributeFrame

    employment = employment_status_panel(120, HORIZON, seed=4).matrix
    return {
        "cumulative": (
            lambda: StreamingSynthesizer.cumulative(horizon=HORIZON, rho=0.02, seed=3),
            [column for column in iid_bernoulli(120, HORIZON, p=0.35, seed=2).columns()],
        ),
        "categorical_window": (
            lambda: StreamingSynthesizer.categorical_window(HORIZON, 2, 3, 0.2, seed=5),
            list(employment.T),
        ),
        "multi_attribute": (
            lambda: StreamingSynthesizer.multi_attribute(
                HORIZON, 2, 0.3, seed=6,
                attributes=[{"name": "emp", "alphabet": 3}, {"name": "inc", "alphabet": 4}],
            ),
            [
                AttributeFrame.from_columns({"emp": column, "inc": (column * 2 + 1) % 4})
                for column in employment.T
            ],
        ),
    }


def _legacy_roundtrip(algorithm, cut, draw_before_checkpoint=False, **keys):
    """Uninterrupted stream vs a legacy-config bundle restored at ``cut``."""
    build, columns = _legacy_services()[algorithm]
    uninterrupted = build()
    for column in columns[:cut]:
        uninterrupted.observe(column)
    if draw_before_checkpoint:
        uninterrupted.release.synthetic_data()  # an eager bundle has no queue
    buffer = io.BytesIO()
    uninterrupted.checkpoint(buffer)
    restored = StreamingSynthesizer.restore(_with_config_keys(buffer.getvalue(), **keys))
    for column in columns[cut:]:
        uninterrupted.observe(column)
        restored.observe(column)
    assert restored.fingerprint() == uninterrupted.fingerprint()
    if algorithm == "cumulative":  # replays any queued record draws
        assert np.array_equal(
            restored.release.synthetic_data().matrix,
            uninterrupted.release.synthetic_data().matrix,
        )


@pytest.mark.parametrize("materialize", ["lazy", "eager"])
def test_legacy_cumulative_bundle_continues_byte_identically(materialize):
    _legacy_roundtrip(
        "cumulative", 5, draw_before_checkpoint=materialize == "eager",
        engine="vectorized", materialize=materialize,
    )


def test_legacy_eager_bundle_without_engine_key_restores():
    _legacy_roundtrip("cumulative", 5, draw_before_checkpoint=True, materialize="eager")


@pytest.mark.parametrize("algorithm", ["categorical_window", "multi_attribute"])
def test_legacy_window_bundle_with_vectorized_engine_restores(algorithm):
    _legacy_roundtrip(algorithm, 4, engine="vectorized")


@pytest.mark.parametrize("algorithm", ["cumulative", "categorical_window", "multi_attribute"])
def test_scalar_engine_bundle_fails_closed(algorithm):
    build, columns = _legacy_services()[algorithm]
    service = build()
    for column in columns[:4]:
        service.observe(column)
    buffer = io.BytesIO()
    service.checkpoint(buffer)
    with pytest.raises(SerializationError, match="engine 'scalar'"):
        StreamingSynthesizer.restore(_with_config_keys(buffer.getvalue(), engine="scalar"))


def test_not_a_zip_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"this is not a checkpoint")
    with pytest.raises(SerializationError, match="cannot read"):
        StreamingSynthesizer.restore(path)


def test_torn_final_bytes_diagnosed_as_truncated(tmp_path, columns):
    """A bundle whose last 64 bytes are damaged lost its zip central
    directory — the torn-write signature — and must be refused with the
    specific truncation diagnosis, not a generic zip error."""
    blob = bytearray(_checkpoint_bytes(columns))
    rng = np.random.default_rng(0)
    for offset in range(len(blob) - 64, len(blob)):
        blob[offset] ^= int(rng.integers(1, 256))
    path = tmp_path / "torn.ckpt"
    path.write_bytes(bytes(blob))
    with pytest.raises(SerializationError, match="truncated"):
        StreamingSynthesizer.restore(path)


def test_truncated_tail_diagnosed_as_truncated(tmp_path, columns):
    blob = _checkpoint_bytes(columns)
    path = tmp_path / "cut.ckpt"
    path.write_bytes(blob[:-64])
    with pytest.raises(SerializationError, match="truncated"):
        StreamingSynthesizer.restore(path)


def test_foreign_zip_rejected(tmp_path):
    path = tmp_path / "foreign.zip"
    with zipfile.ZipFile(path, "w") as bundle:
        bundle.writestr("something.txt", "hello")
    with pytest.raises(SerializationError, match="member missing"):
        StreamingSynthesizer.restore(path)


def test_wrong_kind_rejected(tmp_path, columns):
    path = tmp_path / "stream.ckpt"
    service = StreamingSynthesizer.cumulative(horizon=HORIZON, rho=math.inf, seed=0)
    service.observe(columns[0])
    service.checkpoint(path)
    with pytest.raises(SerializationError, match="expected a 'sharded'"):
        read_bundle(path, kind="sharded")
    config, _ = read_bundle(path, kind="streaming")  # the right kind still loads
    assert config["algorithm"] == "cumulative"


def test_checkpoint_to_disk_roundtrip(tmp_path, columns):
    path = tmp_path / "service.ckpt"
    service = StreamingSynthesizer.cumulative(horizon=HORIZON, rho=0.02, seed=3)
    for column in columns[:3]:
        service.observe(column)
    service.checkpoint(path)
    resumed = StreamingSynthesizer.restore(path)
    for column in columns[3:]:
        service.observe(column)
        resumed.observe(column)
    _compare_cumulative(service, resumed)


# ----------------------------------------------------------------------
# split/join and component-level state validation
# ----------------------------------------------------------------------


def test_split_join_roundtrip():
    state = {
        "a": np.arange(6).reshape(2, 3),
        "b": {"c": np.zeros(2, dtype=np.uint8), "d": [1, 2.5, None, "x", True]},
        "e": 7,
    }
    json_part, arrays = split_arrays(state)
    assert set(arrays) == {"a", "b/c"}
    rebuilt = join_arrays(json_part, arrays)
    assert np.array_equal(rebuilt["a"], state["a"])
    assert np.array_equal(rebuilt["b"]["c"], state["b"]["c"])
    assert rebuilt["b"]["d"] == state["b"]["d"]
    assert rebuilt["e"] == 7


def test_split_rejects_array_in_list():
    with pytest.raises(SerializationError, match="nested inside lists"):
        split_arrays({"bad": [np.zeros(2)]})


def test_split_rejects_non_json_values():
    with pytest.raises(SerializationError, match="not JSON-serializable"):
        split_arrays({"bad": object()})


def test_split_rejects_slash_keys():
    with pytest.raises(SerializationError, match="without '/'"):
        split_arrays({"a/b": 1})


def test_join_rejects_missing_array():
    json_part, _ = split_arrays({"a": np.zeros(2)})
    with pytest.raises(SerializationError, match="missing entry"):
        join_arrays(json_part, {})


def test_noiseless_manifest_is_strict_rfc_json(tmp_path, columns):
    """rho=inf must not leak the non-JSON 'Infinity' literal into manifests."""

    def reject_constant(value):
        raise AssertionError(f"manifest contains non-RFC JSON constant {value!r}")

    path = tmp_path / "noiseless.ckpt"
    service = StreamingSynthesizer.cumulative(horizon=HORIZON, rho=math.inf, seed=0)
    service.observe(columns[0])
    service.checkpoint(path)
    with zipfile.ZipFile(path) as bundle:
        manifest = json.loads(
            bundle.read("manifest.json"), parse_constant=reject_constant
        )
    assert manifest["config"]["rho"] == {"__nonfinite__": "inf"}
    # And the round-trip restores the actual float('inf') configuration.
    resumed = StreamingSynthesizer.restore(path)
    assert math.isinf(resumed.synthesizer.rho)
    for column in columns[1:]:
        service.observe(column)
        resumed.observe(column)
    assert np.array_equal(
        service.release.threshold_table(), resumed.release.threshold_table()
    )


def test_array_member_compression_follows_compress_arrays(tmp_path, columns):
    path = tmp_path / "deflated.ckpt"
    service = StreamingSynthesizer.cumulative(horizon=HORIZON, rho=0.02, seed=3)
    service.observe(columns[0])
    service.checkpoint(path)
    with zipfile.ZipFile(path) as bundle:
        info = {i.filename: i.compress_type for i in bundle.infolist()}
    assert info["manifest.json"] == zipfile.ZIP_DEFLATED
    array_members = [name for name in info if name.startswith("arrays/")]
    assert array_members
    assert all(info[name] == zipfile.ZIP_DEFLATED for name in array_members)

    # Pre-compressed payloads (the sharded service's nested shard blobs)
    # opt out of the useless second DEFLATE pass.
    stored = tmp_path / "stored.ckpt"
    write_bundle(
        stored,
        kind="streaming",
        config={},
        state={"blob": np.frombuffer(b"\x1f\x8b already deflated", dtype=np.uint8)},
        compress_arrays=False,
    )
    with zipfile.ZipFile(stored) as bundle:
        info = {i.filename: i.compress_type for i in bundle.infolist()}
    assert info["arrays/blob.npy"] == zipfile.ZIP_STORED


def test_bundles_are_byte_deterministic(tmp_path, columns):
    """Equal states must produce byte-identical bundles (pinned timestamps)."""

    def bundle_bytes(seed):
        service = StreamingSynthesizer.cumulative(horizon=HORIZON, rho=0.02, seed=seed)
        for column in columns[:3]:
            service.observe(column)
        buffer = io.BytesIO()
        service.checkpoint(buffer)
        return buffer.getvalue()

    assert bundle_bytes(7) == bundle_bytes(7)


def _v2_service(columns, target):
    service = StreamingSynthesizer.cumulative(horizon=HORIZON, rho=0.02, seed=3)
    for column in columns[:4]:
        service.observe(column)
    synth = service.synthesizer
    write_bundle_v2(target, "streaming", synth.config_dict(), synth.state_dict())
    return service


def test_format_version_2_roundtrip(tmp_path, columns):
    """The legacy monolithic-npz layout stays readable."""
    path = tmp_path / "legacy.ckpt"
    service = _v2_service(columns, path)
    with zipfile.ZipFile(path) as bundle:
        names = set(bundle.namelist())
        manifest = json.loads(bundle.read("manifest.json"))
    assert names == {"manifest.json", "arrays.npz"}
    assert manifest["format_version"] == 2
    assert "arrays_checksum" in manifest

    resumed = StreamingSynthesizer.restore(path)
    for column in columns[4:]:
        a = service.observe(column).threshold_table()
        b = resumed.observe(column).threshold_table()
        assert np.array_equal(a, b)


def _v2_members(columns) -> tuple[dict[str, bytes], dict]:
    buffer = io.BytesIO()
    _v2_service(columns, buffer)
    members = _unpack(buffer.getvalue())
    return members, json.loads(members["manifest.json"])


def test_v2_flipped_array_byte_rejected(columns):
    members, _ = _v2_members(columns)
    blob = bytearray(members["arrays.npz"])
    blob[len(blob) // 2] ^= 0xFF
    members["arrays.npz"] = bytes(blob)
    with pytest.raises(SerializationError, match="array checksum"):
        StreamingSynthesizer.restore(_repack(members))


def test_v2_manifest_without_arrays_checksum_rejected(columns):
    members, manifest = _v2_members(columns)
    del manifest["arrays_checksum"]
    members["manifest.json"] = json.dumps(manifest)
    with pytest.raises(SerializationError, match="missing field: 'arrays_checksum'"):
        StreamingSynthesizer.restore(_repack(members))


def test_v2_unprefixed_array_entry_rejected(columns):
    members, manifest = _v2_members(columns)
    with np.load(io.BytesIO(members["arrays.npz"])) as archive:
        arrays = {key: archive[key] for key in archive.files}
    first = sorted(arrays)[0]
    arrays[first.removeprefix("k/")] = arrays.pop(first)
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    members["arrays.npz"] = buffer.getvalue()
    # Re-signed, so only the entry name is wrong.
    manifest["arrays_checksum"] = hashlib.sha256(members["arrays.npz"]).hexdigest()
    members["manifest.json"] = json.dumps(manifest)
    with pytest.raises(SerializationError, match="lacks the 'k/' key prefix"):
        StreamingSynthesizer.restore(_repack(members))


def test_write_bundle_accepts_empty_arrays(tmp_path):
    path = tmp_path / "empty.ckpt"
    write_bundle(path, kind="streaming", config={"x": 1}, state={"y": 2})
    config, state = read_bundle(path)
    assert config == {"x": 1} and state == {"y": 2}


def test_write_bundle_handles_reserved_array_keys(tmp_path):
    """A state key named 'file' must not collide with savez's parameter."""
    state = {"file": np.arange(3), "args": np.ones(2)}
    for write in (write_bundle, write_bundle_v2):
        path = tmp_path / f"{write.__name__}.ckpt"
        write(path, "streaming", {}, state)
        _, rebuilt = read_bundle(path)
        assert np.array_equal(rebuilt["file"], state["file"])
        assert np.array_equal(rebuilt["args"], state["args"])


def test_counter_state_class_mismatch_rejected():
    tree = make_counter("binary_tree", horizon=8, rho=0.1, seed=0)
    simple = make_counter("simple", horizon=8, rho=0.1, seed=0)
    with pytest.raises(SerializationError, match="cannot be loaded"):
        simple.load_state(tree.state_dict())


def test_bank_state_class_mismatch_rejected():
    rho = np.full(4, 0.1)
    tree = BinaryTreeBank(4, rho, seeds=0)
    simple = SimpleBank(4, rho, seeds=0)
    with pytest.raises(SerializationError, match="cannot be loaded"):
        simple.load_state(tree.state_dict())


def test_bank_state_shape_mismatch_rejected():
    rho = np.full(4, 0.1)
    small = BinaryTreeBank(4, rho, seeds=0)
    big = BinaryTreeBank(8, np.full(8, 0.1), seeds=0)
    with pytest.raises(SerializationError):
        big.load_state(small.state_dict())


def test_generator_state_family_mismatch_rejected():
    generator = as_generator(0)
    state = generator_state(generator)
    state["bit_generator"] = "Philox"
    with pytest.raises(SerializationError, match="bit generator"):
        restore_generator_state(generator, state)


def test_fixed_window_inconsistent_snapshot_rejected(columns):
    """Structural invariants are checked at load, not discovered as crashes."""
    from repro import FixedWindowSynthesizer

    source = StreamingSynthesizer.fixed_window(horizon=HORIZON, window=3, rho=0.02, seed=5)
    for column in columns[:4]:
        source.observe(column)
    snapshot = source.synthesizer.state_dict()

    # Clock claims mid-stream but population says never-started.
    broken = dict(snapshot)
    broken["n"] = None
    fresh = FixedWindowSynthesizer.from_config(source.synthesizer.config_dict())
    with pytest.raises(SerializationError, match="inconsistent with clock"):
        fresh.load_state(broken)

    # Window codes missing although the first window has completed.
    broken = {k: v for k, v in snapshot.items() if k != "window_codes"}
    fresh = FixedWindowSynthesizer.from_config(source.synthesizer.config_dict())
    with pytest.raises(SerializationError, match="missing window codes"):
        fresh.load_state(broken)

    # Pre-window column buffer count disagrees with the clock.
    broken = dict(snapshot)
    broken["recent_count"] = 2
    fresh = FixedWindowSynthesizer.from_config(source.synthesizer.config_dict())
    with pytest.raises(SerializationError, match="pre-window columns"):
        fresh.load_state(broken)


def test_load_state_requires_fresh_synthesizer(columns):
    service = StreamingSynthesizer.cumulative(horizon=HORIZON, rho=math.inf, seed=0)
    service.observe(columns[0])
    snapshot = service.synthesizer.state_dict()
    with pytest.raises(SerializationError, match="fresh synthesizer"):
        service.synthesizer.load_state(snapshot)


def test_monotone_counter_state_roundtrip():
    """The wrapper serializes its running max and the wrapped counter."""
    from repro.streams.binary_tree import BinaryTreeCounter
    from repro.streams.monotone import MonotoneCounter

    original = MonotoneCounter(BinaryTreeCounter(8, 0.1, seed=1))
    for z in (3, 0, 2, 1):
        original.feed(z)
    snapshot = original.state_dict()

    restored = MonotoneCounter(BinaryTreeCounter(8, 0.1, seed=99))
    restored.load_state(snapshot)
    for z in (2, 0, 1, 4):
        assert original.feed(z) == restored.feed(z)


def test_sharded_restore_rejects_structurally_invalid_bundles(columns):
    """n_shards < 1 and fitted-but-boundaryless bundles must fail closed."""
    from repro.serve import ShardedService

    buffer = io.BytesIO()
    write_bundle(
        buffer,
        kind="sharded",
        config={"algorithm": "cumulative", "n_shards": 0},
        state={"shards": {}},
    )
    buffer.seek(0)
    with pytest.raises(SerializationError, match="must be >= 1"):
        ShardedService.restore(buffer)

    shard = StreamingSynthesizer.cumulative(horizon=HORIZON, rho=math.inf, seed=0)
    shard.observe(columns[0])
    blob = io.BytesIO()
    shard.checkpoint(blob)
    buffer = io.BytesIO()
    write_bundle(
        buffer,
        kind="sharded",
        config={"algorithm": "cumulative", "n_shards": 1},
        state={
            "shards": {
                "0": {"bundle": np.frombuffer(blob.getvalue(), dtype=np.uint8)}
            }
        },  # fitted shard, but no boundaries entry
    )
    buffer.seek(0)
    with pytest.raises(SerializationError, match="no shard .*boundaries"):
        ShardedService.restore(buffer)


def test_load_state_copies_snapshot_arrays():
    """Advancing a restored bank must never mutate the snapshot in place."""
    rho = np.full(6, 0.1)
    source = BinaryTreeBank(6, rho, seeds=0)
    for t in range(1, 4):
        source.feed(np.ones(t, dtype=np.int64))
    snapshot = source.state_dict()
    reference_sums = snapshot["true_sums"].copy()

    first = BinaryTreeBank(6, rho, seeds=0)
    first.load_state(snapshot)
    first.feed(np.ones(4, dtype=np.int64))  # mutates first's state in place

    second = BinaryTreeBank(6, rho, seeds=0)
    second.load_state(snapshot)  # must still see the original snapshot
    assert np.array_equal(snapshot["true_sums"], reference_sums)
    assert np.array_equal(second.true_sums, reference_sums)


def test_fallback_bank_standalone_restore_is_byte_identical(columns):
    """Future (not-yet-activated) rows restore their seed streams too."""
    from repro.streams.registry import make_bank

    rho = np.full(HORIZON, 0.05)
    source = make_bank("honaker", horizon=HORIZON, rho_per_threshold=rho, seeds=0)
    reference = make_bank("honaker", horizon=HORIZON, rho_per_threshold=rho, seeds=0)
    for t in range(1, 4):
        z = np.arange(t, dtype=np.int64)
        source.feed(z)
        reference.feed(z)
    snapshot = source.state_dict()

    # Restore into a host bank built from a *different* seed: every future
    # round — including rows that activate after the checkpoint — must
    # still match the uninterrupted reference exactly.
    restored = make_bank("honaker", horizon=HORIZON, rho_per_threshold=rho, seeds=42)
    restored.load_state(snapshot)
    for t in range(4, HORIZON + 1):
        z = np.arange(t, dtype=np.int64)
        assert np.array_equal(reference.feed(z), restored.feed(z)), t


def test_checkpoint_write_is_atomic(tmp_path, columns):
    """A failed re-checkpoint must not destroy the previous good bundle."""
    path = tmp_path / "rolling.ckpt"
    service = StreamingSynthesizer.cumulative(horizon=HORIZON, rho=0.02, seed=3)
    service.observe(columns[0])
    service.checkpoint(path)
    good = path.read_bytes()
    with pytest.raises(SerializationError):
        write_bundle(path, kind="streaming", config={}, state={"bad": object()})
    assert path.read_bytes() == good  # old checkpoint survives the failed write
    assert list(tmp_path.iterdir()) == [path]  # no temp-file litter


def test_counter_load_state_rejects_out_of_range_clock():
    counter = make_counter("binary_tree", horizon=4, rho=0.1, seed=0)
    counter.feed(1)
    snapshot = counter.state_dict()
    snapshot["t"] = 9
    fresh = make_counter("binary_tree", horizon=4, rho=0.1, seed=0)
    with pytest.raises(SerializationError, match="outside"):
        fresh.load_state(snapshot)
    # The rejected load left the counter untouched and usable.
    assert fresh.t == 0
    fresh.feed(1)


def test_corrupt_npy_member_raises_serialization_error(columns):
    """Undecodable array members surface as SerializationError, never raw."""
    import hashlib

    members = _unpack(_checkpoint_bytes(columns))
    manifest = json.loads(members["manifest.json"])
    victim = next(name for name in members if name.startswith("arrays/"))
    key = victim[len("arrays/"):-len(".npy")]
    # Corrupt the .npy magic, then re-sign the member's checksum so the
    # hash passes and decoding is what fails.
    blob = bytearray(members[victim])
    blob[0] ^= 0xFF
    members[victim] = bytes(blob)
    manifest["array_checksums"][key] = hashlib.sha256(bytes(blob)).hexdigest()
    members["manifest.json"] = json.dumps(manifest)
    with pytest.raises(SerializationError, match="cannot decode"):
        StreamingSynthesizer.restore(_repack(members))


def test_extra_array_member_rejected(columns):
    """Array members absent from the manifest are refused, not ignored."""
    members = _unpack(_checkpoint_bytes(columns))
    members["arrays/smuggled.npy"] = members[
        next(name for name in members if name.startswith("arrays/"))
    ]
    with pytest.raises(SerializationError, match="unexpected"):
        StreamingSynthesizer.restore(_repack(members))


def test_split_rejects_empty_keys_and_marker_shapes():
    with pytest.raises(SerializationError, match="non-empty"):
        split_arrays({"": {"x": np.zeros(2)}})
    with pytest.raises(SerializationError, match="reserved marker"):
        split_arrays({"leaf": {"__array__": "y"}})
    with pytest.raises(SerializationError, match="reserved marker"):
        split_arrays({"leaf": {"__nonfinite__": "inf"}})


def test_checkpoint_file_mode_respects_umask(tmp_path, columns):
    import os

    path = tmp_path / "mode.ckpt"
    service = StreamingSynthesizer.cumulative(horizon=HORIZON, rho=math.inf, seed=0)
    service.observe(columns[0])
    service.checkpoint(path)
    umask = os.umask(0)
    os.umask(umask)
    assert (path.stat().st_mode & 0o777) == (0o666 & ~umask)
