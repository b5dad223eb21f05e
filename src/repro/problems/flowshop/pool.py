"""Flowshop pool evaluators, registered with the kernel registry.

The engine's pool loop hands a list of same-depth parent states to one
evaluator call.  Both evaluators here share the same gather: stack the
parents' fronts and remaining sets, advance all child fronts in one
pooled sweep, park the fronts on the problem's handoff cache (so
``branch`` reuses them), then bound every child:

* :class:`FlowShopNumpyPool` — the ``*_children_pool`` NumPy kernels
  of :class:`~repro.problems.flowshop.bounds.BoundData`;
* :class:`FlowShopNumbaPool` — the JIT loop kernels of
  :mod:`~repro.problems.flowshop.kernels_numba` (construction raises
  when numba is missing; the numba backend catches it and degrades to
  numpy with a one-time warning).

Importing :mod:`repro.problems.flowshop` registers both factories, so
``solve(FlowShopProblem(...))`` pools by default with numpy.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.kernels import register_pool_factory
from repro.problems.flowshop import kernels_numba
from repro.problems.flowshop.bounds import BoundData, live_parent_rows
from repro.problems.flowshop.makespan import (
    advance_fronts_batch,
    advance_fronts_pool,
)
from repro.problems.flowshop.problem import FlowShopProblem, FlowShopState

__all__ = ["FlowShopNumpyPool", "FlowShopNumbaPool", "register_pool_kernels"]


def _gather(
    problem: FlowShopProblem, states: Sequence[FlowShopState]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(child_fronts, remaining, p_rem)`` pool arrays for ``states``.

    All states share one depth (the engine groups pools by depth), so
    their remaining vectors stack into a dense (N, r) matrix.  The
    child fronts are parked on the problem's handoff cache on the way
    out — bounding and branching share one front computation.
    """
    remaining = np.stack([state.remaining for state in states])
    parent_fronts = np.stack([state.front for state in states])
    p_rem = problem.instance.processing_times[remaining]
    fronts = advance_fronts_pool(parent_fronts, p_rem)
    problem.store_child_fronts(states, fronts, p_rem)
    return fronts, remaining, p_rem


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
        fronts, remaining, p_rem = _gather(self._problem, states)
        if self._bound == "combined":
            return data.combined_children_pool(
                fronts, remaining, p_rem, self._problem.prune_at
            )
        if self._bound == "lb1":
            return data.one_machine_children_pool(fronts, remaining, p_rem)
        return data.two_machine_children_pool(fronts, remaining)


class FlowShopNumbaPool:
    """Pool evaluator over the JIT loop kernels (numba required).

    Mirrors the short-circuits of the numpy pool kernels exactly:
    ``r == 1`` children are leaves of the bound recursion (their bound
    is their Cmax), LB2 is skipped for ``combined`` when the children
    keep <= 1 job or the instance has no machine pairs, and runs only
    on the parents LB1 left a child below ``problem.prune_at``.
    """

    def __init__(self, problem: FlowShopProblem):
        self._problem = problem
        self._data = problem.bound_data
        self._bound = problem.bound
        self._kernels = kernels_numba.jit_kernels()
        self._warm = False

    def _warmup(self) -> None:
        """Trigger JIT compilation outside any timed region, once."""
        data = self._data
        m = data.p.shape[1]
        fronts = np.zeros((1, 2, m), dtype=np.int64)
        p_rem = np.ones((1, 2, m), dtype=np.int64)
        tails = np.ones((1, 2, m), dtype=np.int64)
        out = np.empty((1, 2), dtype=np.int64)
        self._kernels.lb1(fronts, p_rem, tails, out)
        if data.pairs:
            remaining = np.arange(2, dtype=np.intp)[None, :]
            self._kernels.lb2(
                fronts,
                remaining,
                data._order_all,
                data._a_all,
                data._b_all,
                data._lag_all,
                data._j_idx,
                data._k_idx,
                tails,
                out,
            )
        self._warm = True

    def __call__(
        self, states: Sequence[FlowShopState], depth: int
    ) -> Optional[np.ndarray]:
        if not self._warm:
            self._warmup()
        fronts, remaining, p_rem = _gather(self._problem, states)
        data = self._data
        n_pool, r, _m = fronts.shape
        if r == 1:
            return fronts[:, :, -1].astype(np.int64)
        tails_rem = data.tails[remaining]
        bound = self._bound
        lb1: Optional[np.ndarray] = None
        if bound != "lb2":
            lb1 = np.empty((n_pool, r), dtype=np.int64)
            self._kernels.lb1(fronts, p_rem, tails_rem, lb1)
            if bound == "lb1" or r - 1 <= 1 or not data.pairs:
                return lb1
        elif not data.pairs:
            return np.zeros((n_pool, r), dtype=np.int64)
        # Staged like combined_children_pool: LB2 only for the parents
        # LB1 left a child below the incumbent.
        live = None
        if lb1 is not None:
            live = live_parent_rows(lb1, self._problem.prune_at)
        if live is not None:
            if not live.size:
                return lb1
            fronts, remaining, tails_rem = (
                fronts[live],
                remaining[live],
                tails_rem[live],
            )
        lb2 = np.empty(remaining.shape, dtype=np.int64)
        self._kernels.lb2(
            fronts,
            remaining,
            data._order_all,
            data._a_all,
            data._b_all,
            data._lag_all,
            data._j_idx,
            data._k_idx,
            tails_rem,
            lb2,
        )
        if lb1 is None:
            return lb2
        if live is None:
            return np.maximum(lb1, lb2, out=lb1)
        lb1[live] = np.maximum(lb1[live], lb2, out=lb2)
        return lb1


def _numpy_factory(problem: FlowShopProblem) -> FlowShopNumpyPool:
    return FlowShopNumpyPool(problem)


def _numba_factory(problem: FlowShopProblem) -> FlowShopNumbaPool:
    return FlowShopNumbaPool(problem)


def register_pool_kernels() -> None:
    """Idempotently register the flowshop pool factories."""
    register_pool_factory("numpy", FlowShopProblem, _numpy_factory)
    register_pool_factory("numba", FlowShopProblem, _numba_factory)


register_pool_kernels()
