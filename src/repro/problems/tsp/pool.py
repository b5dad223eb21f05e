"""TSP pool evaluator, registered with the kernel registry.

One evaluator call bounds the children of a whole pool of same-depth
partial tours via :func:`outgoing_edge_bound_children_pool` — the
(N, r, r+1) leave-one-out scan replacing N separate (r, r+1) scans.
Registered at import time (the package ``__init__`` imports this
module), so ``solve(TSPProblem(...))`` pools.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro.core.kernels import TIER, register_pool_factory
from repro.problems.tsp.bounds import (
    outgoing_edge_bound_children,
    outgoing_edge_bound_children_pool,
)
from repro.problems.tsp.problem import TSPProblem

__all__ = ["TSPNumpyPool"]


class TSPNumpyPool:
    """Pooled outgoing-edge child bounds for :class:`TSPProblem`."""

    def __init__(self, problem: TSPProblem):
        self._instance = problem.instance

    def __call__(
        self, states: Sequence[Any], depth: int
    ) -> Optional[np.ndarray]:
        if len(states) == 1:
            # Singleton pools use the 2-D per-family scan directly.
            state = states[0]
            row = outgoing_edge_bound_children(
                self._instance, state.path, state.cost, state.remaining
            )
            return row[np.newaxis]
        lasts = [state.path[-1] for state in states]
        costs = [state.cost for state in states]
        homes = [state.path[0] for state in states]
        remaining = np.array([state.remaining for state in states], dtype=np.intp)
        return outgoing_edge_bound_children_pool(
            self._instance, lasts, costs, homes, remaining
        )


register_pool_factory(TIER, TSPProblem, TSPNumpyPool)
