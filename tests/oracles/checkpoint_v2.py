"""The version-2 bundle writer (one in-memory ``arrays.npz`` member).

The product writes version 3 and still reads version 2.
"""

import hashlib
import io
import json
import zipfile

import numpy as np

from repro import __version__
from repro.dp.discrete_gaussian import NOISE_SAMPLER_VERSION
from repro.serve import checkpoint as ckpt


def write_bundle_v2(target, kind, config, state, compress_arrays=True):
    """Write a version-2 bundle to a path or a writable binary file object."""
    json_state, arrays = ckpt.split_arrays(state)
    json_state = ckpt._encode_nonfinite(json_state)
    config = ckpt._encode_nonfinite(config)
    buffer = io.BytesIO()
    prefixed = {f"{ckpt._ARRAY_KEY_PREFIX}{key}": value for key, value in arrays.items()}
    (np.savez_compressed if compress_arrays else np.savez)(buffer, **prefixed)
    array_bytes = buffer.getvalue()
    manifest = {
        "format": ckpt.FORMAT_NAME,
        "format_version": 2,
        "library_version": __version__,
        "noise_sampler": NOISE_SAMPLER_VERSION,
        "kind": str(kind),
        "config": config,
        "state": json_state,
        "state_checksum": hashlib.sha256(
            ckpt._canonical_json({"config": config, "state": json_state})
        ).hexdigest(),
        "arrays_checksum": hashlib.sha256(array_bytes).hexdigest(),
    }
    with zipfile.ZipFile(target, "w", compression=zipfile.ZIP_DEFLATED) as bundle:
        bundle.writestr(
            ckpt._MANIFEST, json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False)
        )
        bundle.writestr(ckpt._ARRAYS, array_bytes, compress_type=zipfile.ZIP_STORED)
