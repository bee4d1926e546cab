"""Reference entrant routing: one ``argmin`` per arrival.

The sharded service routes a churn round's entrants in closed form
(``repro.serve.sharded._route_entrants``).  This is the loop it
replaced, kept as the definition the closed form must reproduce.
"""

from __future__ import annotations

import numpy as np

__all__ = ["route_entrants_loop"]


def route_entrants_loop(loads, entrants: int) -> tuple[np.ndarray, np.ndarray]:
    """Send each arrival to the least-loaded shard, ties to the lowest index.

    Parameters
    ----------
    loads:
        Per-shard loads before the arrivals.
    entrants:
        Number of arrivals.

    Returns
    -------
    tuple
        ``(shard per arrival, loads after routing)``, both int64.
    """
    loads = np.array(loads, dtype=np.int64)
    shards = np.empty(entrants, dtype=np.int64)
    for index in range(entrants):
        target = int(np.argmin(loads))
        shards[index] = target
        loads[target] += 1
    return shards, loads
