"""``answer_fn=grid_answer`` keeps a batchable run on the one-repetition loop."""

from repro.queries.plan import release_answer_grid


def grid_answer(release, queries, times, debias):
    """Answer each repetition's grid as the default dispatch does."""
    return release_answer_grid(release, queries, times, debias=debias)
