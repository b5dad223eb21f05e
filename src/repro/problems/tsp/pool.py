"""TSP pool evaluator, registered with the kernel registry.

One evaluator call bounds the children of a whole wave of same-depth
partial tours, a wave of one included, via
:func:`outgoing_edge_bound_children_pool` — one (N, r, r+1)
leave-one-out scan.
Registered at import time (the package ``__init__`` imports this
module), so ``solve(TSPProblem(...))`` pools.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.core.kernels import TIER, register_pool_factory
from repro.problems.tsp.bounds import outgoing_edge_bound_children_pool
from repro.problems.tsp.problem import TSPProblem

__all__ = ["TSPNumpyPool"]


class TSPNumpyPool:
    """Pooled outgoing-edge child bounds for :class:`TSPProblem`."""

    def __init__(self, problem: TSPProblem):
        self._instance = problem.instance

    def __call__(self, states: Sequence[Any], depth: int) -> np.ndarray:
        lasts = [state.path[-1] for state in states]
        costs = [state.cost for state in states]
        homes = [state.path[0] for state in states]
        remaining = np.array([state.remaining for state in states], dtype=np.intp)
        return outgoing_edge_bound_children_pool(
            self._instance, lasts, costs, homes, remaining
        )


register_pool_factory(TIER, TSPProblem, TSPNumpyPool)
