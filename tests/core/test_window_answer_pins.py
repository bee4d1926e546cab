"""Every window-release answer path, pinned to literals.

Noisy runs of the binary fixed-window synthesizer and of the categorical
one at q = 2 and q = 3 (fixed seeds, one round with entrants and exits)
are answered through ``answer``, ``answer_batch`` (a cold call, then the
cached one) and the categorical ``answer_series``: at query widths below,
at and above the window, with and without debiasing, and under both
padding conventions of the binary release.  Their synthetic panels and
padding records are pinned too, with their types and dtypes.  The
literals were computed by the implementation in which the binary and the
categorical release each answered queries on their own; a change to one
answer's bits, a panel's bytes or a panel's type moves one of them.  The
``answer_series`` literals are the digests of that implementation's
per-round ``answer`` over the same cells: a series is the row of the
answer grid, so each of its entries is the float ``answer`` returns.
"""

import hashlib

import numpy as np
import pytest

from repro.core.categorical_window import CategoricalWindowSynthesizer
from repro.core.fixed_window import FixedWindowSynthesizer
from repro.queries.base import WindowQuery
from repro.queries.categorical import CategoricalWindowQuery, CategoryAtLeastM
from repro.queries.window import AtLeastMOnes, WindowLinearQuery

N, HORIZON, WINDOW, RHO = 300, 7, 3, 0.5

#: Round 5 admits entrants and retires members: (entrants, exit count).
CHURN = {5: (25, 15)}

#: Released rounds; a width-5 query is NaN in the batch grid before t=5.
TIMES = list(range(WINDOW, HORIZON + 1))

#: Run name -> (alphabet, binary synthesizer?, seed).
RUNS = {"binary": (2, True, 11), "q2": (2, False, 12), "q3": (3, False, 13)}

PINS = {
    "binary": {
        "answer": "0d5d1e7cf58050c1f11e0097cc8ad33185dc25f28b0d7ebf644060a4ab685c92",
        "answer_batch": "21bd711919ca19d30a6c834baa53507124fd0f53ea2fd2b8321ec3cc80681704",
        "synthetic_data": "bc518ac8c738558722b832905346da06770ce1188c2d068398dca407ec97b968",
        "padding_panel": "6ede38905a3723f84e8ac355df42fef1d5d7e22335b41e32f2842ce8b397f590",
    },
    "q2": {
        "answer": "3dff3bf2e9df514186e10ab28784736ff4b9cbf0df7fe66d7fdc78f3bdf38f1a",
        "answer_batch": "02351be3bbb5aa069301eb2bbbb704aeebdf3a6cab5d572f66cf75058f1ae876",
        "answer_series": "5cc6d522b2d264c8ac140a892068a9d3f27d9204820eebfe248b7fe2455e2e61",
        "synthetic_data": "ad04bba98af75e7a44c50c755ea39e47a80d4c3816df7950b7b230ceb2748a21",
        "padding_panel": "6ede38905a3723f84e8ac355df42fef1d5d7e22335b41e32f2842ce8b397f590",
    },
    "q3": {
        "answer": "1bf4d7cc6a0a05b20b1faebc3eb3ab8ed9e2a40b600126094cda35e07745805b",
        "answer_batch": "3dcbfc32515b834ff5831401bf0f484888b19ccf1e22750038f8ca65419faf98",
        "answer_series": "50dd78f443e7d6f3a7f4312ad33a6c750c6cacf96054357dd11271e1213ccbe7",
        "synthetic_data": "104a1ba332bbb81e69c3e1b550196676435074cd5c00068785eeb2c510bf8d3f",
        "padding_panel": "2ba59ddbc0213b1636b8bafdec03eb93a9e3e6a6a0e41a5014c5596ac7e5bd60",
    },
}


def _run(name):
    """One noisy streamed run with a churn round; returns the synthesizer."""
    alphabet, binary, seed = RUNS[name]
    if binary:
        synth = FixedWindowSynthesizer(HORIZON, WINDOW, RHO, seed=seed)
    else:
        synth = CategoricalWindowSynthesizer(HORIZON, WINDOW, alphabet, RHO, seed=seed)
    rng = np.random.default_rng(seed + 100)
    active = N
    for t in range(1, HORIZON + 1):
        entrants, exit_count = CHURN.get(t, (0, 0))
        exits = np.sort(rng.choice(active, size=exit_count, replace=False))
        active += entrants - exit_count
        column = rng.integers(0, alphabet, size=active)
        synth.observe(column, entrants=entrants, exits=exits)
    return synth


def _queries(name):
    """Widths 1 and 3 with fractional weights, widths 2 and 5 as indicators."""
    alphabet, binary, seed = RUNS[name]
    rng = np.random.default_rng(seed + 200)
    if binary:
        return [
            WindowLinearQuery(1, rng.random(2), name="w1"),
            AtLeastMOnes(2, 1),
            WindowLinearQuery(3, rng.random(8), name="w3"),
            AtLeastMOnes(5, 2),
            # A binary categorical query, answered like a binary one.
            CategoricalWindowQuery(2, rng.random(4), 2, name="c2"),
        ]
    return [
        CategoricalWindowQuery(1, rng.random(alphabet), alphabet, name="w1"),
        CategoryAtLeastM(2, alphabet, category=1, m=1),
        CategoricalWindowQuery(3, rng.random(alphabet**3), alphabet, name="w3"),
        CategoryAtLeastM(5, alphabet, category=1, m=2),
    ]


def _cells(name):
    """(queries, keywords) pairs every answer path is asked under.

    The binary release's categorical query is pinned under the uniform
    padding convention only: the implementation that computed the pins
    could not evaluate it on the binary padding records.
    """
    queries = _queries(name)
    if not RUNS[name][1]:
        return [(queries, {})]
    binary = [query for query in queries if isinstance(query, WindowQuery)]
    return [
        (queries, {}),
        (queries, {"padding_convention": "uniform"}),
        (binary, {"padding_convention": "panel"}),
    ]


def _digest(values) -> str:
    digest = hashlib.sha256()
    for value in values:
        digest.update(np.asarray(value, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _panel_digest(panels) -> str:
    digest = hashlib.sha256()
    for panel in panels:
        matrix = panel.matrix
        digest.update(f"{type(panel).__name__}:{matrix.dtype}:{matrix.shape}".encode())
        digest.update(np.ascontiguousarray(matrix).tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def runs():
    return {name: _run(name) for name in RUNS}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_answer(runs, name):
    release = runs[name].release
    values = [
        release.answer(query, t, debias=debias, **kwargs)
        for queries, kwargs in _cells(name)
        for query in queries
        for t in TIMES
        if t >= query.k
        for debias in (True, False)
    ]
    assert _digest(values) == PINS[name]["answer"]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_answer_batch_cold_and_cached(runs, name):
    release = runs[name].release
    grids = []
    for queries, kwargs in _cells(name):
        for debias in (True, False):
            cold = release.answer_batch(queries, TIMES, debias=debias, **kwargs)
            cached = release.answer_batch(queries, TIMES, debias=debias, **kwargs)
            assert cached.tobytes() == cold.tobytes()
            grids.append(cold)
    assert _digest(grids) == PINS[name]["answer_batch"]


@pytest.mark.parametrize("name", ["q2", "q3"])
def test_answer_series(runs, name):
    release = runs[name].release
    series = [
        release.answer_series(query, debias=debias)
        for query in _queries(name)
        if query.k <= WINDOW
        for debias in (True, False)
    ]
    assert _digest(series) == PINS[name]["answer_series"]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_synthetic_data(runs, name):
    release = runs[name].release
    panels = [release.synthetic_data()] + [release.synthetic_data(t) for t in TIMES]
    assert _panel_digest(panels) == PINS[name]["synthetic_data"]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_padding_panel(runs, name):
    assert _panel_digest([runs[name].padding_panel()]) == PINS[name]["padding_panel"]
