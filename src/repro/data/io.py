"""Panel and release serialization.

Synthetic data's whole point is to be handed to analysts as microdata
files.  This module round-trips panels through two formats:

* **CSV** — one row per individual, one column per round (header
  ``t1,...,tT``), the format analysts load into R / Stata / pandas;
* **NPZ** — compact numpy archive with metadata, for programmatic
  pipelines.

``save_release_csv`` exports a fixed-window release's synthetic records
together with a small JSON sidecar of the public metadata an analyst needs
to debias (``n``, ``n_pad``, ``k``, ``T``, privacy parameters).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from repro.data.categorical import CategoricalDataset
from repro.data.dataset import LongitudinalDataset
from repro.exceptions import DataValidationError

__all__ = [
    "save_panel_csv",
    "load_panel_csv",
    "save_panel_npz",
    "load_panel_npz",
    "save_release_csv",
]


def _header(horizon: int) -> list[str]:
    return [f"t{t}" for t in range(1, horizon + 1)]


def save_panel_csv(panel, path) -> Path:
    """Write a (binary or categorical) panel as CSV; returns the path."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_header(panel.horizon))
        for row in panel.matrix:
            writer.writerow(int(v) for v in row)
    return path


def load_panel_csv(path, alphabet: int = 2):
    """Read a panel written by :func:`save_panel_csv`.

    Returns a :class:`LongitudinalDataset` for ``alphabet == 2`` and a
    :class:`CategoricalDataset` otherwise.
    """
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataValidationError(f"{path} is empty") from None
        if not header or not header[0].startswith("t"):
            raise DataValidationError(
                f"{path} lacks the expected 't1..tT' header row"
            )
        rows = []
        for line_number, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataValidationError(
                    f"{path}:{line_number} has {len(row)} cells, expected {len(header)}"
                )
            rows.append([int(cell) for cell in row])
    matrix = np.asarray(rows, dtype=np.int64).reshape(len(rows), len(header))
    if alphabet == 2:
        return LongitudinalDataset(matrix)
    return CategoricalDataset(matrix, alphabet=alphabet)


def save_panel_npz(panel, path) -> Path:
    """Write a panel as a compressed numpy archive; returns the path."""
    path = Path(path)
    np.savez_compressed(path, matrix=panel.matrix, alphabet=panel.alphabet)
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_panel_npz(path):
    """Read a panel written by :func:`save_panel_npz`."""
    with np.load(Path(path)) as archive:
        matrix = archive["matrix"]
        alphabet = int(archive["alphabet"])
    if alphabet == 2:
        return LongitudinalDataset(matrix)
    return CategoricalDataset(matrix, alphabet=alphabet)


def save_release_csv(release, directory, stem: str = "synthetic") -> tuple[Path, Path]:
    """Export a fixed-window release: microdata CSV + public metadata JSON.

    The metadata sidecar carries everything an analyst needs to debias
    query answers offline: ``n`` (original population), ``n_pad``, ``k``,
    the horizon, and the synthetic population size.  Its ``kind`` is
    ``"fixed_window"`` for a release of binary panels and
    ``"categorical_window"`` (with ``alphabet``) for a release of
    categorical panels, ``q = 2`` included.  Returns
    ``(csv_path, json_path)``.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    panel = release.synthetic_data()
    data_path = save_panel_csv(panel, directory / f"{stem}.csv")
    # Every window release has an alphabet; the panel type its subclass
    # fixes tells the binary release from a q = 2 categorical one.
    if isinstance(panel, CategoricalDataset):
        metadata = {
            "kind": "categorical_window",
            "window": release.window,
            "alphabet": release.alphabet,
            "n_pad": release.n_pad,
            "n_original": release.n_original,
            "n_synthetic": release.n_synthetic,
            "negative_count_events": release.negative_count_events,
        }
    else:
        metadata = {
            "kind": "fixed_window",
            "window": release.window,
            "n_pad": release.padding.n_pad,
            "horizon": release.padding.horizon,
            "n_original": release.n_original,
            "n_synthetic": release.n_synthetic,
            "negative_count_events": release.negative_count_events,
        }
    json_path = directory / f"{stem}.meta.json"
    json_path.write_text(json.dumps(metadata, indent=2) + "\n")
    return data_path, json_path
