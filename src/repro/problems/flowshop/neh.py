"""The NEH constructive heuristic (Nawaz, Enscore & Ham, 1983).

NEH is the standard high-quality initial upper bound for flow-shop
B&B: sort the jobs by decreasing total processing time, then insert
each job at the position of the partial sequence that minimises the
partial makespan.  On Ta001 it yields 1286 against the optimum 1278 —
a value the test suite pins to validate both the heuristic and the
reimplemented Taillard generator.

The paper initialised its Ta056 runs from the best-known metaheuristic
solution (3681); :func:`neh` plays the same role when no external
incumbent is available.
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple

from repro.exceptions import ProblemError
from repro.problems.flowshop.instance import FlowShopInstance

__all__ = ["neh", "insertion_best_position"]


def _fronts(
    rows: List[List[int]], front: List[int], sequence: Sequence[int]
) -> List[List[int]]:
    """``front``, then the completion front after each job of ``sequence``."""
    fronts = [front]
    for job in sequence:
        prev = 0
        nxt = []
        for f, t in zip(front, rows[job]):
            if prev > f:
                f = prev
            prev = f + t
            nxt.append(prev)
        front = nxt
        fronts.append(front)
    return fronts


def _check_prefix(instance: FlowShopInstance, prefix: Sequence[int]) -> Set[int]:
    """The jobs of ``prefix``; refuses one that is not a partial permutation."""
    fixed = set(prefix)
    if len(fixed) != len(prefix) or not fixed <= set(range(instance.jobs)):
        raise ProblemError(f"prefix {list(prefix)!r} is not a partial permutation")
    return fixed


def _best_insertion(
    rows: List[List[int]], head: List[int], sequence: List[int], job: int
) -> Tuple[int, int]:
    """:func:`insertion_best_position` after a fixed front ``head``.

    ``rows`` are the processing times as Python ints (indexing them is
    several times cheaper than numpy scalars) and ``head`` is the
    completion front of whatever precedes ``sequence``.
    """
    heads = _fronts(rows, head, sequence)

    # tails[q] = backward front of jobs q.. (time from their start on
    # each machine to the end of the schedule).
    m = len(head)
    tail = [0] * m
    tails = [tail]
    for existing in reversed(sequence):
        row = rows[existing]
        nxt = 0
        back = [0] * m
        for j in range(m - 1, -1, -1):
            t = tail[j]
            if nxt > t:
                t = nxt
            nxt = t + row[j]
            back[j] = nxt
        tail = back
        tails.append(tail)
    tails.reverse()

    job_row = rows[job]
    best_pos = 0
    best_value = -1
    for q, (front, back) in enumerate(zip(heads, tails)):
        # makespan with `job` inserted at position q
        prev = 0
        value = 0
        for f, t, b in zip(front, job_row, back):
            if prev > f:
                f = prev
            prev = f + t
            if prev + b > value:
                value = prev + b
        if best_value < 0 or value < best_value:
            best_value = value
            best_pos = q
    return best_pos, best_value


def insertion_best_position(
    instance: FlowShopInstance, sequence: List[int], job: int
) -> Tuple[int, int]:
    """Best position to insert ``job`` into ``sequence``.

    Returns ``(position, makespan)``; ties break on the earliest
    position (NEH's convention).  Uses Taillard's acceleration: heads
    of all prefixes and tails of all suffixes are computed once, so the
    whole scan costs ``O(len(sequence) * machines)`` instead of
    ``O(len(sequence)^2 * machines)``.
    """
    rows = instance.processing_times.tolist()
    return _best_insertion(rows, [0] * instance.machines, sequence, job)


def neh(
    instance: FlowShopInstance, prefix: Sequence[int] = ()
) -> Tuple[List[int], int]:
    """Run NEH after a fixed ``prefix``; return ``(permutation, makespan)``.

    The permutation starts with ``prefix`` verbatim; the other jobs are
    inserted one by one, in decreasing order of their total processing
    time (job index breaks ties), each at the position *after the
    prefix* that minimises the partial makespan timed from the prefix's
    completion front.  The empty prefix is classic NEH; a prefix is a
    node of the permutation tree, completed to one of its leaves.
    """
    rows = instance.processing_times.tolist()
    fixed = _check_prefix(instance, prefix)
    head = _fronts(rows, [0] * instance.machines, prefix)[-1]
    totals = instance.job_totals().tolist()
    order = sorted(
        (job for job in range(instance.jobs) if job not in fixed),
        key=lambda job: (-totals[job], job),
    )
    sequence: List[int] = []
    value = head[-1]
    for job in order:
        pos, value = _best_insertion(rows, head, sequence, job)
        sequence.insert(pos, job)
    return list(prefix) + sequence, value
