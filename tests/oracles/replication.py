"""``answer_fn=grid_answer`` keeps a batchable run on the one-repetition loop."""

from repro.queries.plan import release_answer_grid


def grid_answer(release, query, t, debias):
    """Answer as the default dispatch does; the harness calls ``answer_grid``."""
    return release_answer_grid(release, [query], [t], debias=debias)[0, 0]


def _answer_grid(release, queries, times, debias):
    return release_answer_grid(release, queries, times, debias=debias)


grid_answer.answer_grid = _answer_grid
