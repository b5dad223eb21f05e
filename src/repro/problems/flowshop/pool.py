"""Flowshop pool evaluator, registered with the kernel registry.

The engine hands every wave of same-depth parent states, a wave of one
included, to one evaluator call.  :class:`FlowShopNumpyPool` stacks the
parents' fronts and remaining sets, advances all child fronts in one
pooled sweep, parks the fronts on the problem's handoff cache (so
``branch`` reuses them), then bounds every child with the
``*_children_pool`` NumPy kernels of
:class:`~repro.problems.flowshop.bounds.BoundData`.

Importing :mod:`repro.problems.flowshop` registers its factory, so
``solve(FlowShopProblem(...))`` pools.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.kernels import TIER, register_pool_factory
from repro.problems.flowshop.bounds import BoundData
from repro.problems.flowshop.makespan import advance_fronts_pool
from repro.problems.flowshop.problem import FlowShopProblem, FlowShopState

__all__ = ["FlowShopNumpyPool"]


class FlowShopNumpyPool:
    """Pool evaluator over the vectorised ``*_children_pool`` kernels."""

    def __init__(self, problem: FlowShopProblem):
        self._problem = problem
        self._data: BoundData = problem.bound_data
        self._bound = problem.bound

    def __call__(self, states: Sequence[FlowShopState], depth: int) -> np.ndarray:
        data = self._data
        # All states share one depth (the engine groups pools by depth),
        # so their remaining vectors stack into a dense (N, r) matrix.
        # The child fronts are parked on the problem's handoff cache —
        # bounding and branching share one front computation.
        remaining = np.array([state.remaining for state in states])
        p_rem = data.p[remaining]
        fronts = advance_fronts_pool(
            np.array([state.front for state in states]), p_rem
        )
        self._problem.store_child_fronts(states, fronts)
        if self._bound == "combined":
            return data.combined_children_pool(
                fronts, remaining, p_rem, self._problem.prune_at
            )
        if self._bound == "lb1":
            return data.one_machine_children_pool(fronts, remaining, p_rem)
        return data.two_machine_children_pool(fronts, remaining)


register_pool_factory(TIER, FlowShopProblem, FlowShopNumpyPool)
