"""Makespan evaluation for (partial) permutation schedules.

The makespan recurrence is the classic completion-time sweep: with
``C[i, j]`` the completion of the ``i``-th scheduled job on machine
``j``::

    C[i, j] = max(C[i, j-1], C[i-1, j]) + p[job_i, j]

The per-job update is a length-``M`` scan, sequential in ``j`` as
written — but ``max`` and ``+`` form a semiring, so it unrolls.  With
``S[j]`` the job's cumulative processing time through machine ``j``
and ``f`` the front it is appended to::

    C[j] - S[j] = max(C[j-1] - S[j-1], f[j] - S[j-1])
                = max over k <= j of (f[k] - S[k-1])

so ``C = S + running_max(f - (S - p))``: one cumulative sum and one
``maximum.accumulate`` along machines instead of ``2M - 1`` calls, the
same int64 values.  The batched kernels below use that form; the scalar
:func:`advance_front` keeps the recurrence and is their test oracle.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro.exceptions import ProblemError
from repro.problems.flowshop.instance import FlowShopInstance

__all__ = [
    "completion_front",
    "advance_front",
    "advance_fronts_batch",
    "advance_fronts_pool",
    "makespan",
    "partial_makespan",
    "tails_matrix",
]


def advance_front(
    front: np.ndarray, job_times: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Completion front after appending one job.

    ``front[j]`` is the completion time of the current partial schedule
    on machine ``j``; ``job_times`` is the appended job's row of the
    processing-time matrix.  Returns the new front (a fresh array
    unless ``out`` is given).
    """
    m = front.shape[0]
    if out is None:
        out = np.empty_like(front)
    prev = 0
    for j in range(m):
        f = front[j]
        if prev > f:
            f = prev
        prev = f + job_times[j]
        out[j] = prev
    return out


def advance_fronts_batch(front: np.ndarray, job_times: np.ndarray) -> np.ndarray:
    """Completion fronts after appending each of several jobs in turn.

    The batched kernel behind child decomposition: ``job_times`` is the
    ``(batch, machines)`` stack of processing-time rows of the candidate
    jobs, and row ``c`` of the result is exactly
    ``advance_front(front, job_times[c])``.  The recurrence is solved in
    closed form (module docstring), so branching a node costs five
    NumPy calls whatever the machine count.
    """
    return _advance_closed_form(front, np.atleast_2d(job_times))


def advance_fronts_pool(fronts: np.ndarray, job_times: np.ndarray) -> np.ndarray:
    """Child completion fronts for a whole pool of parents at once.

    The pool-kernel form of :func:`advance_fronts_batch`: ``fronts`` is
    the ``(N, M)`` stack of N parent fronts and ``job_times`` the
    ``(N, r, M)`` processing-time rows of each parent's r candidate
    jobs; slice ``[n]`` of the result equals
    ``advance_fronts_batch(fronts[n], job_times[n])`` exactly (same
    int64 closed form, vectorised over pool x batch).
    """
    return _advance_closed_form(fronts[:, np.newaxis, :], job_times)


def _advance_closed_form(front: np.ndarray, times: np.ndarray) -> np.ndarray:
    """``S + running_max(front - (S - times))`` along the machine axis.

    ``front`` broadcasts against ``times`` (``(..., batch, M)``); all
    int64, so the result is the recurrence's, bit for bit.
    """
    total = times.cumsum(axis=-1, dtype=np.int64)
    slack = total - times
    np.subtract(front, slack, out=slack)
    np.maximum.accumulate(slack, axis=-1, out=slack)
    total += slack
    return total


def completion_front(
    instance: FlowShopInstance, sequence: Sequence[int]
) -> np.ndarray:
    """Completion front of a (possibly partial) job sequence."""
    p = instance.processing_times
    front = np.zeros(instance.machines, dtype=np.int64)
    for job in sequence:
        advance_front(front, p[job], out=front)
    return front


def makespan(instance: FlowShopInstance, permutation: Sequence[int]) -> int:
    """Cmax of a complete permutation (eq. 15).

    Raises when ``permutation`` is not a permutation of all jobs —
    silent acceptance of partial schedules here has historically hidden
    bugs, so completeness is enforced; use :func:`partial_makespan` for
    prefixes.
    """
    if sorted(permutation) != list(range(instance.jobs)):
        raise ProblemError(
            f"not a permutation of 0..{instance.jobs - 1}: {list(permutation)!r}"
        )
    return int(completion_front(instance, permutation)[-1])


def partial_makespan(instance: FlowShopInstance, sequence: Sequence[int]) -> int:
    """Completion time on the last machine of a partial sequence."""
    if len(set(sequence)) != len(sequence):
        raise ProblemError(f"sequence repeats a job: {list(sequence)!r}")
    if not sequence:
        return 0
    return int(completion_front(instance, sequence)[-1])


def tails_matrix(instance: FlowShopInstance) -> np.ndarray:
    """``tail[i, j]`` = minimum time job ``i`` needs after finishing
    machine ``j`` (sum of its times on machines ``j+1 .. M-1``).

    A classic ingredient of the one-machine lower bound: after the
    bottleneck machine ``j`` completes, at least ``min_i tail[i, j]``
    time remains before the last machine can finish.
    """
    p = instance.processing_times
    tails = np.zeros_like(p)
    if instance.machines > 1:
        tails[:, :-1] = np.cumsum(p[:, :0:-1], axis=1)[:, ::-1]
    return tails
