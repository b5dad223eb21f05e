"""Iterated Greedy for the permutation flow shop (Ruiz & Stützle).

The paper's reference [9]: the best-known Ta056 cost (3681) that seeded
the first grid run came from this metaheuristic.  The algorithm is
deliberately simple:

1. start from NEH;
2. *destruct*: remove ``d`` random jobs;
3. *construct*: reinsert each at its best position (NEH insertion);
4. accept the result if it is not worse, or with a simulated-annealing
   style probability at constant temperature
   ``T = t * sum(p) / (10 * n * m)`` (the paper's recommended form);
5. repeat for a budget of iterations.

A fixed job ``prefix`` (a node of the permutation tree) is never
destroyed: only the jobs after it move, timed from its completion
front, so every schedule visited is a leaf below that node.  This is
how :meth:`FlowShopProblem.warm_start` polishes a slice's incumbent
without leaving the slice.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.exceptions import ProblemError
from repro.problems.flowshop.instance import FlowShopInstance
from repro.problems.flowshop.neh import _best_insertion, _check_prefix, _fronts, neh

__all__ = ["IGResult", "iterated_greedy"]


@dataclass
class IGResult:
    """Outcome of an Iterated Greedy run."""

    sequence: List[int]
    cost: int
    iterations: int
    improvements: int
    accepted_worse: int
    initial_cost: int


def iterated_greedy(
    instance: FlowShopInstance,
    iterations: int = 200,
    destruction: int = 4,
    temperature_factor: float = 0.4,
    seed: int = 0,
    initial: Optional[Sequence[int]] = None,
    prefix: Sequence[int] = (),
) -> IGResult:
    """Run Iterated Greedy; returns the best schedule found.

    Parameters
    ----------
    iterations:
        Destruction/construction cycles (the real runs in [9] use time
        budgets; a count keeps runs deterministic).
    destruction:
        ``d``, the number of jobs removed per cycle (classically 4); at
        most the number of jobs after ``prefix``.
    temperature_factor:
        ``t`` in the constant-temperature acceptance criterion; ``0``
        accepts a candidate only when it is not worse.
    seed:
        Seed of the run's own :class:`random.Random`.
    initial:
        Starting permutation, which must start with ``prefix``;
        defaults to ``neh(instance, prefix)``.
    prefix:
        Jobs fixed at the front of every schedule, kept verbatim.
    """
    if iterations < 0:
        raise ProblemError("iterations must be >= 0")
    fixed = _check_prefix(instance, prefix)
    free = instance.jobs - len(fixed)
    if not 0 < destruction <= free:
        raise ProblemError(
            f"destruction size must be in 1..{free}, got {destruction}"
        )
    rows = instance.processing_times.tolist()
    head = _fronts(rows, [0] * instance.machines, prefix)[-1]
    if initial is None:
        start, current_cost = neh(instance, prefix)
        current = start[len(prefix):]
    else:
        if list(initial[: len(prefix)]) != list(prefix) or sorted(initial) != list(
            range(instance.jobs)
        ):
            raise ProblemError(
                f"initial {list(initial)!r} is not a permutation starting "
                f"with the prefix {list(prefix)!r}"
            )
        current = list(initial[len(prefix):])
        current_cost = _fronts(rows, head, current)[-1][-1]
    initial_cost = current_cost
    best, best_cost = current, current_cost

    temperature = (
        temperature_factor
        * float(instance.processing_times.sum())
        / (10.0 * instance.jobs * instance.machines)
    )
    rng = random.Random(seed)

    improvements = 0
    accepted_worse = 0
    for _ in range(iterations):
        # destruction: d distinct random jobs after the prefix, in the
        # random order they will be reinserted
        removed = rng.sample(current, destruction)
        gone = set(removed)
        candidate = [job for job in current if job not in gone]
        for job in removed:
            pos, candidate_cost = _best_insertion(rows, head, candidate, job)
            candidate.insert(pos, job)

        if candidate_cost <= current_cost:
            current, current_cost = candidate, candidate_cost
            if candidate_cost < best_cost:
                best, best_cost = candidate, candidate_cost
                improvements += 1
        elif temperature > 0 and rng.random() < math.exp(
            (current_cost - candidate_cost) / temperature
        ):
            current, current_cost = candidate, candidate_cost
            accepted_worse += 1

    return IGResult(
        sequence=list(prefix) + best,
        cost=best_cost,
        iterations=iterations,
        improvements=improvements,
        accepted_worse=accepted_worse,
        initial_cost=initial_cost,
    )
