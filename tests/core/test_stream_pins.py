"""The window path's random stream and bundle bytes, pinned to literals.

A categorical window run large enough for the bucketed record selection
(200,000 records, q=3, k=3), with entrant and exit rounds, must keep
producing the same fingerprint every round, the same answers, the same
synthetic panel and the same checkpoint bundle contents.  The literals
below were computed by the implementation that preceded round-major
records, narrow window codes and bucketed selection; any change to a
random draw, a release, a record or a bundle byte moves one of them.
"""

import hashlib
import io
import zipfile

import numpy as np
import pytest

from repro.core.synthetic_store import _bucket_width
from repro.queries.categorical import CategoryAtLeastM
from repro.serve import StreamingSynthesizer
from repro.serve.checkpoint import write_bundle

N, HORIZON, WINDOW, ALPHABET = 200_000, 6, 3, 3

#: Per round: (entrants, exit count).
CHURN = {4: (2_000, 0), 5: (500, 1_500), 6: (0, 300)}

FINGERPRINTS = {
    3: "merkle-sha256-v1:cb1672b58e4b65e71d407678d0933dbbdc0fc11143dd9160cdb0e04215ade452",
    4: "merkle-sha256-v1:9d6cb6da90216d562946990c33a1a03a10d807bf95e35a9324779d031a1be06b",
    5: "merkle-sha256-v1:3f41ec06d9d94b43e7f85b4c170a6cbd6083ee3031612a06a094e42b3d843875",
    6: "merkle-sha256-v1:0cee1cd1b04b2126ff438d19bd90ef03f99eae331cd20199799618d9694f7449",
}

#: SHA-256 over the answer grid's and the synthetic panel's bytes.
ANSWERS_AND_PANEL = "738d74d250b800535974c700d49add806bd8ae4a558e7249721518a274a34cf9"

#: SHA-256 over the checkpoint bundle's members: each name, then its
#: uncompressed bytes, so the pin does not depend on the platform's zlib.
BUNDLE_MEMBERS = "20b52f73afed1a02136fe825c25d1980c17b2ce11f556da1bf7bb30d3e01f6d3"


@pytest.fixture(scope="module")
def run():
    """One pass of the pinned run: per-round fingerprints, service, bundle."""
    rng = np.random.default_rng(2026)
    service = StreamingSynthesizer.categorical_window(
        HORIZON, WINDOW, ALPHABET, 1.0, seed=77
    )
    present = np.ones(N, dtype=bool)
    fingerprints = {}
    for t in range(1, HORIZON + 1):
        entrants, exit_count = CHURN.get(t, (0, 0))
        exits = np.sort(rng.choice(np.flatnonzero(present), size=exit_count, replace=False))
        present[exits] = False
        present = np.concatenate([present, np.ones(entrants, dtype=bool)])
        column = rng.integers(0, ALPHABET, size=int(present.sum())).astype(np.int8)
        service.observe(column, entrants=entrants, exits=exits)
        if t >= WINDOW:
            fingerprints[t] = service.fingerprint()
    # What StreamingSynthesizer.checkpoint writes, with the array members
    # stored rather than deflated: the same member bytes, without the
    # deflate pass over the 200,000-record state.
    buffer = io.BytesIO()
    write_bundle(
        buffer,
        kind="streaming",
        config=service.synthesizer.config_dict(),
        state=service.synthesizer.state_dict(copy=False),
        compress_arrays=False,
    )
    return fingerprints, service, buffer.getvalue()


def test_the_run_takes_the_bucketed_selection():
    sizes = np.full(ALPHABET ** (WINDOW - 1), N // ALPHABET ** (WINDOW - 1))
    assert _bucket_width(sizes, ALPHABET - 1) > 0


def test_every_round_fingerprint_is_pinned(run):
    fingerprints, _, _ = run
    assert fingerprints == FINGERPRINTS


def test_answers_and_synthetic_panel_are_pinned(run):
    _, service, _ = run
    queries = [
        CategoryAtLeastM(WINDOW, ALPHABET, category=c, m=m)
        for c in range(ALPHABET)
        for m in range(1, WINDOW + 1)
    ]
    grid = service.release.answer_batch(queries, list(range(WINDOW, HORIZON + 1)))
    panel = service.release.synthetic_data().matrix
    digest = hashlib.sha256(grid.tobytes() + np.ascontiguousarray(panel).tobytes())
    assert digest.hexdigest() == ANSWERS_AND_PANEL


def test_bundle_members_are_c_order_and_pinned(run):
    # The record axis is exactly full, so the store's matrix leaf is an
    # F-contiguous view; the writer must still emit C order.
    _, service, blob = run
    matrix = service.synthesizer.state_dict(copy=False)["store"]["matrix"]
    assert matrix.flags.f_contiguous and not matrix.flags.c_contiguous
    digest = hashlib.sha256()
    with zipfile.ZipFile(io.BytesIO(blob)) as bundle:
        for name in bundle.namelist():
            data = bundle.read(name)
            if name.endswith(".npy"):
                member = io.BytesIO(data)
                assert np.lib.format.read_magic(member) == (1, 0)
                _, fortran_order, _ = np.lib.format.read_array_header_1_0(member)
                assert fortran_order is False, name
            digest.update(name.encode())
            digest.update(data)
    assert digest.hexdigest() == BUNDLE_MEMBERS
