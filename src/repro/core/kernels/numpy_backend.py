"""The always-available numpy pool backend (the default).

Resolution order for a problem:

1. a pool factory registered for ``("numpy", type(problem))`` — the
   vectorised whole-pool kernels (flowshop, TSP register these);
2. otherwise, if the problem overrides ``bound_children``, a generic
   evaluator that loops the per-parent batched kernel over the pool —
   no amortisation win, but it keeps ``--kernel-backend numpy``
   meaningful for any batched problem;
3. otherwise ``None`` — nothing poolable, the engine stays on its
   plain paths.

This backend is also the fallback target the optional numba backend
degrades to when its dependency is missing.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.core.kernels.base import BoundKernel, PoolEvaluator
from repro.core.kernels.registry import pool_factory_for
from repro.core.problem import Problem

__all__ = ["NumpyKernel"]


def _generic_evaluator(problem: Any) -> Optional[PoolEvaluator]:
    """Per-parent ``bound_children`` loop for problems without a
    registered pool kernel (``None`` when there is nothing to call)."""
    if not isinstance(problem, Problem):
        return None
    if type(problem).bound_children is Problem.bound_children:
        return None

    def evaluate(
        states: Sequence[Any], depth: int
    ) -> Optional[Sequence[Any]]:
        rows: List[Any] = [
            problem.bound_children(state, depth) for state in states
        ]
        return rows

    return evaluate


class NumpyKernel(BoundKernel):
    """Pure-numpy pool kernels; always available."""

    name = "numpy"

    def evaluator_for(self, problem: Any) -> Optional[PoolEvaluator]:
        factory = pool_factory_for(self.name, type(problem))
        if factory is not None:
            evaluator = factory(problem)
            if evaluator is not None:
                return evaluator
        return _generic_evaluator(problem)
