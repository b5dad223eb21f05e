"""Flowshop pool evaluator, registered with the kernel registry.

The engine's pool loop hands a list of same-depth parent states to one
evaluator call.  :class:`FlowShopNumpyPool` stacks the parents' fronts
and remaining sets, advances all child fronts in one pooled sweep,
parks the fronts on the problem's handoff cache (so ``branch`` reuses
them), then bounds every child with the ``*_children_pool`` NumPy
kernels of :class:`~repro.problems.flowshop.bounds.BoundData`.

Importing :mod:`repro.problems.flowshop` registers its factory, so
``solve(FlowShopProblem(...))`` pools.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.kernels import TIER, register_pool_factory
from repro.problems.flowshop.bounds import BoundData
from repro.problems.flowshop.makespan import (
    advance_fronts_batch,
    advance_fronts_pool,
)
from repro.problems.flowshop.problem import FlowShopProblem, FlowShopState

__all__ = ["FlowShopNumpyPool"]


class FlowShopNumpyPool:
    """Pool evaluator over the vectorised ``*_children_pool`` kernels."""

    def __init__(self, problem: FlowShopProblem):
        self._problem = problem
        self._data: BoundData = problem.bound_data
        self._bound = problem.bound

    def __call__(
        self, states: Sequence[FlowShopState], depth: int
    ) -> Optional[np.ndarray]:
        data = self._data
        if len(states) == 1:
            # Singleton pools (a frontier too thin to group) skip the
            # pool axis entirely: the per-family 2-D kernels compute
            # the same values with less indexing overhead.
            state = states[0]
            remaining1 = state.remaining
            p_rem1 = data.p[remaining1]
            fronts1 = advance_fronts_batch(state.front, p_rem1)
            self._problem.store_child_fronts(
                states, fronts1[np.newaxis], p_rem1[np.newaxis]
            )
            if self._bound == "combined":
                row = data.combined_children(
                    fronts1, remaining1, p_rem1, self._problem.prune_at
                )
            elif self._bound == "lb1":
                row = data.one_machine_children(fronts1, remaining1)
            else:
                row = data.two_machine_children(fronts1, remaining1)
            return row[np.newaxis]
        # All states share one depth (the engine groups pools by depth),
        # so their remaining vectors stack into a dense (N, r) matrix.
        # The child fronts are parked on the problem's handoff cache —
        # bounding and branching share one front computation.
        remaining = np.stack([state.remaining for state in states])
        p_rem = data.p[remaining]
        fronts = advance_fronts_pool(
            np.stack([state.front for state in states]), p_rem
        )
        self._problem.store_child_fronts(states, fronts, p_rem)
        if self._bound == "combined":
            return data.combined_children_pool(
                fronts, remaining, p_rem, self._problem.prune_at
            )
        if self._bound == "lb1":
            return data.one_machine_children_pool(fronts, remaining, p_rem)
        return data.two_machine_children_pool(fronts, remaining)


register_pool_factory(TIER, FlowShopProblem, FlowShopNumpyPool)
