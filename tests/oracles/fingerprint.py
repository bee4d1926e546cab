"""From-scratch state fingerprint: the definition, with no product code.

``repro.serve.checkpoint.state_fingerprint`` commits to a snapshot
through a Merkle root and takes cached leaf digests from their owners.
This module re-derives the root the slow, obvious way — plain
``hashlib`` over ``.tobytes()`` of every leaf, every time — so tests can
check the product's cached roots against it.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct

import numpy as np

__all__ = ["SCHEME", "oracle_root"]

#: The scheme tag every fingerprint string starts with.
SCHEME = "merkle-sha256-v1"


def _framed(data: bytes) -> bytes:
    return struct.pack("<Q", len(data)) + data


def _json_half(node, path: str, arrays: dict):
    """Replace array leaves by placeholders, collecting them by path."""
    if isinstance(node, np.ndarray):
        arrays[path] = node
        return {"__array__": path}
    if isinstance(node, dict):
        return {
            key: _json_half(value, f"{path}/{key}" if path else key, arrays)
            for key, value in node.items()
        }
    if isinstance(node, (list, tuple)):
        return [_json_half(item, path, arrays) for item in node]
    if isinstance(node, np.generic):
        node = node.item()
    if isinstance(node, float) and not math.isfinite(node):
        marker = "nan" if math.isnan(node) else ("inf" if node > 0 else "-inf")
        return {"__nonfinite__": marker}
    return node


def _leaf(key: str, array: np.ndarray) -> bytes:
    if array.ndim == 2 and key.rsplit("/", 1)[-1] == "matrix":
        columns = b"".join(
            hashlib.sha256(array[:, j].tobytes()).digest()
            for j in range(array.shape[1])
        )
        return hashlib.sha256(columns).digest()
    return hashlib.sha256(array.tobytes()).digest()


def oracle_root(config: dict, state: dict) -> str:
    """The fingerprint of ``(config, state)``, computed from scratch.

    SHA-256 over the length-framed canonical JSON of ``{"config",
    "state"}`` (arrays replaced by ``{"__array__": key}``, non-finite
    floats by ``{"__nonfinite__": ...}``), then per array leaf in key
    order the framed key, ``dtype.str`` and comma-joined shape, and the
    leaf digest: for a 2-D ``…/matrix`` leaf SHA-256 over the SHA-256 of
    each column, for any other leaf SHA-256 of its C-order bytes.
    """
    arrays: dict = {}
    text = json.dumps(
        {"config": _json_half(config, "", {}), "state": _json_half(state, "", arrays)},
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    ).encode()
    root = hashlib.sha256(_framed(text))
    for key in sorted(arrays):
        array = arrays[key]
        root.update(_framed(key.encode()))
        root.update(_framed(array.dtype.str.encode()))
        root.update(_framed(",".join(str(size) for size in array.shape).encode()))
        root.update(_leaf(key, array))
    return f"{SCHEME}:{root.hexdigest()}"
