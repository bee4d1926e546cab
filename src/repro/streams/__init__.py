"""Differentially private stream counters (continual-release substrate).

A *stream counter* consumes a stream ``z_1, z_2, ..., z_T`` of natural
numbers and releases, at every time step, a private estimate of the running
sum ``S_t = z_1 + ... + z_t``.  Neighboring streams differ by at most 1 in a
single entry (Appendix A of the paper).  Algorithm 2 of the paper is generic
over this primitive: it runs one counter per Hamming-weight threshold ``b``.

Implementations:

* :class:`BinaryTreeCounter` — the classic tree-based aggregation mechanism
  (paper Algorithm 3; Dwork-Naor-Pitassi-Rothblum 2010, Chan-Shi-Song 2011).
* :class:`SimpleCounter` — fresh noise on every prefix sum; the naive
  ``sqrt(T)``-error baseline that motivates tree aggregation.
* :class:`HonakerCounter` — tree aggregation with Honaker's (2015)
  variance-optimal bottom-up refinement, a strictly better post-processing
  of the same noisy tree (paper §1.1 cites this line of work, [32]).
* :class:`SqrtFactorizationCounter` — the square-root matrix factorization
  of Fichtenberger, Henzinger & Upadhyay (2022) ("constant matters", [26]),
  with continuous Gaussian noise.
* :class:`BlockCounter` — two-level ``sqrt(T)`` decomposition; a simple
  middle ground with better constants than the tree for tiny ``T``.

Every noise draw of a counter or of a one-replica bank is exact
(:mod:`repro.dp.discrete_gaussian`) with one exception: the square-root
factorization's noise is continuous Gaussian by design, so choosing
``counter="sqrt_factorization"`` opts into float noise that Algorithm 2
rounds and releases.  A bank built with ``n_reps=R > 1`` is an accuracy
study and draws its ``(R, rows)`` rep-axis block in floating point.

Counters exist in two execution forms.  The classes above are the
*scalar* form — one Python object per stream.  The :mod:`~repro.streams.bank`
module provides the *vectorized* form: a :class:`CounterBank` advances all
``T`` per-threshold counters of Algorithm 2 in lockstep as one batched
NumPy state machine (native banks for the tree, simple, and
square-root-factorization counters; :class:`FallbackBank` wraps everything
else).  Both forms are selected by name through
:mod:`~repro.streams.registry`, produce identical noiseless outputs under
the same seeds, and serialize via ``state_dict()`` / ``load_state()`` for
the :mod:`repro.serve` checkpoint layer.
"""

from repro.streams.bank import (
    BinaryTreeBank,
    CounterBank,
    FallbackBank,
    SimpleBank,
    SqrtFactorizationBank,
)
from repro.streams.base import CounterAccuracy, StreamCounter
from repro.streams.binary_tree import BinaryTreeCounter
from repro.streams.block import BlockCounter
from repro.streams.honaker import HonakerCounter
from repro.streams.registry import (
    available_banks,
    available_counters,
    make_bank,
    make_counter,
    register_counter,
)
from repro.streams.simple import SimpleCounter
from repro.streams.sqrt_factorization import SqrtFactorizationCounter

__all__ = [
    "StreamCounter",
    "CounterAccuracy",
    "BinaryTreeCounter",
    "SimpleCounter",
    "HonakerCounter",
    "SqrtFactorizationCounter",
    "BlockCounter",
    "CounterBank",
    "BinaryTreeBank",
    "SimpleBank",
    "SqrtFactorizationBank",
    "FallbackBank",
    "make_counter",
    "register_counter",
    "available_counters",
    "make_bank",
    "available_banks",
]
