"""The noise of single runs and of replicated runs, pinned to literals.

Two pins, one on each side of the noise rule:

* a noisy default cumulative service (one exact stream), streamed round
  by round with entrant and exit rounds: every round's state
  fingerprint, one digest of the final answer grid, and one digest of
  every cell answered on its own (thresholds above the horizon too);
* the batched replication engine at ``R = 8`` (the float rep-axis draw)
  for every counter with a native bank: one digest of each answer grid.

The literals were computed by the implementation in which the noise
backend was a constructor setting whose library default was exact and
whose replication default was the float draw; a change to any noise
draw, ledger entry or answer bit moves one of them.
"""

import hashlib

import numpy as np
import pytest

from repro.core.replicated import replicate_cumulative
from repro.experiments.ablations import ablation_panel
from repro.queries.cumulative import HammingAtLeast, HammingExactly
from repro.serve import StreamingSynthesizer

N, HORIZON, RHO = 400, 8, 0.5

#: Per round: (entrants, exit count).
CHURN = {3: (30, 0), 5: (20, 25), 7: (0, 10)}

FINGERPRINTS = {
    1: "merkle-sha256-v1:1f59a4e105a488b61fc749c9a8c62609a129f6ac9bcf769a18a58db3cafc5598",
    2: "merkle-sha256-v1:65a523367f10443696e81ed0713e6b2f2d11606c690a51cf50ea3d0a18200807",
    3: "merkle-sha256-v1:2eb729f178d9ebb092bae3f041a9860c9945f3c5fab936725382bc2bd39362d6",
    4: "merkle-sha256-v1:4dbe67e5fa3fec4e656d87e0aa750c680b46d961c16aeaf5ac3eb14985bedb22",
    5: "merkle-sha256-v1:18ff3b278be6b30f298b9073bd82ba485d2cbe850728214e5abff6f590ad6f26",
    6: "merkle-sha256-v1:f7653ab14a14f997f128bc9ee5536b329b4950b161b97019aa73589ce5e92856",
    7: "merkle-sha256-v1:1d7f4e50e505a752ef6966c4871aa5ef384dd43be81c54c1bfa5ea422940c6d4",
    8: "merkle-sha256-v1:e951c3f1df7e1fda322fcf880358ce33aba4a87389b82ccc67c140f8ed7b3183",
}

#: SHA-256 of the final ``answer_batch`` grid (every Hamming query, every round).
ANSWER_GRID = "c1712d2f53f2a18c910047efc02538d58080d4ad8516b00c898f82b942ce6e2e"

#: SHA-256 of ``answer(query, t)`` over the grid's cells and the
#: structurally empty thresholds above the horizon, query-major.
ANSWER_CELLS = "c0ffd196f11a1f895da1ef8b3a327648bff52fb561790adaac974d9df718e3d4"

ABOVE_HORIZON = [HammingAtLeast(HORIZON + 2), HammingExactly(HORIZON + 1)]

#: Counter -> SHA-256 of the ``(R, queries, times)`` answer cube.
REPLICATED = {
    "binary_tree": "5952c4c7178f6424d974f523c8ba85126f6040b3dc5d72680a30bab266c039bc",
    "simple": "5c1e5a145755d195d81669cc2c6519da061b0cf66b6969844d27a4abd805d58f",
    "sqrt_factorization": "5c6addd3a718b0b134e9d93c00909d45b74696a444efda33949ed64e5338c851",
}


def _queries(horizon):
    return [HammingAtLeast(b) for b in range(1, horizon + 1)] + [
        HammingExactly(b) for b in range(horizon + 1)
    ]


@pytest.fixture(scope="module")
def cumulative_run():
    rng = np.random.default_rng(404)
    service = StreamingSynthesizer.cumulative(HORIZON, RHO, seed=31)
    present = np.ones(N, dtype=bool)
    fingerprints = {}
    for t in range(1, HORIZON + 1):
        entrants, exit_count = CHURN.get(t, (0, 0))
        exits = np.sort(rng.choice(np.flatnonzero(present), size=exit_count, replace=False))
        present[exits] = False
        present = np.concatenate([present, np.ones(entrants, dtype=bool)])
        column = (rng.random(int(present.sum())) < 0.3).astype(np.int8)
        service.observe(column, entrants=entrants, exits=exits)
        fingerprints[t] = service.fingerprint()
    times = list(range(1, HORIZON + 1))
    grid = service.release.answer_batch(_queries(HORIZON), times)
    cells = np.array(
        [
            service.release.answer(query, t)
            for query in _queries(HORIZON) + ABOVE_HORIZON
            for t in times
        ]
    )
    return (
        fingerprints,
        hashlib.sha256(grid.tobytes()).hexdigest(),
        hashlib.sha256(cells.tobytes()).hexdigest(),
    )


def test_every_round_fingerprint_is_pinned(cumulative_run):
    fingerprints, _, _ = cumulative_run
    assert fingerprints == FINGERPRINTS


def test_answer_grid_is_pinned(cumulative_run):
    _, digest, _ = cumulative_run
    assert digest == ANSWER_GRID


def test_every_answer_cell_is_pinned(cumulative_run):
    _, _, digest = cumulative_run
    assert digest == ANSWER_CELLS


@pytest.mark.parametrize("counter", sorted(REPLICATED))
def test_replicated_answer_grid_is_pinned(counter):
    panel = ablation_panel()
    replicated = replicate_cumulative(panel, 8, rho=0.05, counter=counter, seed=5)
    grid = replicated.answer_grid(_queries(panel.horizon), list(range(1, panel.horizon + 1)))
    assert hashlib.sha256(grid.tobytes()).hexdigest() == REPLICATED[counter]
