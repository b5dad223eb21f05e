"""The permutation flow shop as a :class:`~repro.core.problem.Problem`.

The search tree is the permutation tree of the jobs (paper §3, eq. 3):
depth ``d`` fixes the job in position ``d``, children append each
not-yet-scheduled job in ascending job-id order (the deterministic rank
order the interval numbering requires).

A state carries the scheduled prefix, the completion front on every
machine, and the remaining job ids — enough for O(M) incremental
branching and for the bounds without touching the prefix again.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.active_list import ActiveNode
from repro.core.interval import Interval
from repro.core.problem import Problem
from repro.core.tree import TreeShape
from repro.core.unfold import unfold
from repro.exceptions import ProblemError
from repro.problems.flowshop.bounds import BoundData
from repro.problems.flowshop.instance import FlowShopInstance
from repro.problems.flowshop.iterated_greedy import iterated_greedy
from repro.problems.flowshop.makespan import advance_fronts_batch
from repro.problems.flowshop.neh import neh

__all__ = ["FlowShopProblem", "FlowShopState"]

# The Iterated Greedy polish every warm start gets: a fixed budget, not
# an option and not a clock, so an interval's warm start is the same
# pair on every host.  Candidates are accepted when not worse (no
# temperature).  Chosen by a sweep over the benchmark catalogue's trees
# and slices (docs/performance.md, "Polished warm starts").
POLISH_ITERATIONS = 20
POLISH_DESTRUCTION = 3
POLISH_SEED = 0


class FlowShopState:
    """A node of the flow-shop permutation tree."""

    __slots__ = ("scheduled", "front", "remaining")

    def __init__(
        self,
        scheduled: Tuple[int, ...],
        front: np.ndarray,
        remaining: np.ndarray,
    ):
        self.scheduled = scheduled
        self.front = front
        self.remaining = remaining

    def __repr__(self) -> str:
        return (
            f"FlowShopState(scheduled={list(self.scheduled)!r}, "
            f"Cmax so far={int(self.front[-1])})"
        )


class FlowShopProblem(Problem):
    """Minimise the makespan of a permutation flow shop.

    Parameters
    ----------
    instance:
        The :class:`FlowShopInstance` to solve.
    bound:
        ``"lb1"`` (one-machine), ``"lb2"`` (two-machine Johnson) or
        ``"combined"`` (max of both, the default).
    pair_strategy:
        Machine-pair selection for LB2 (see
        :func:`repro.problems.flowshop.bounds.machine_pairs`).
    """

    def __init__(
        self,
        instance: FlowShopInstance,
        bound: str = "combined",
        pair_strategy: str = "adjacent+ends",
    ):
        if bound not in ("lb1", "lb2", "combined"):
            raise ProblemError(
                f"unknown bound {bound!r}; use 'lb1', 'lb2' or 'combined'"
            )
        self.instance = instance
        self.bound = bound
        self.bound_data = BoundData(instance, pair_strategy)
        self._shape = TreeShape.permutation(instance.jobs)
        self._bound_fn = {
            "lb1": self.bound_data.one_machine,
            "lb2": self.bound_data.two_machine,
            "combined": self.bound_data.combined,
        }[bound]
        # Pool-kernel handoff: the pool evaluator computes the child
        # fronts of a whole wave of parents in one call, before the
        # engine branches each of them.  Rows are parked here (keyed by
        # state identity, holding a strong reference so the id cannot
        # be recycled) and consumed by the first _child_fronts call.
        # A wave's parents are all branched or dropped before the next
        # evaluator call, so each call replaces the previous wave's
        # leftovers: the cache never holds more than one wave.
        self._pool_fronts: "dict[int, Tuple[FlowShopState, np.ndarray]]" = {}
        # Per-child-count index matrices for branch(): row c selects
        # the remaining vector minus entry c, so the r child remaining
        # sets come from one fancy gather (allocating an r x r boolean
        # eye per decomposition is measurable on the hot path).
        self._rest_idx: dict = {}

    # ------------------------------------------------------------------
    # Problem interface
    # ------------------------------------------------------------------
    def tree_shape(self) -> TreeShape:
        return self._shape

    def root_state(self) -> FlowShopState:
        return FlowShopState(
            scheduled=(),
            front=np.zeros(self.instance.machines, dtype=np.int64),
            remaining=np.arange(self.instance.jobs, dtype=np.intp),
        )

    def _child_fronts(self, state: FlowShopState) -> np.ndarray:
        """The (r, M) stack of child completion fronts of ``state``:
        the row the pool evaluator parked for it, else computed."""
        pooled = self._pool_fronts.pop(id(state), None)
        if pooled is not None and pooled[0] is state:
            return pooled[1]
        p_rem = self.instance.processing_times[state.remaining]
        return advance_fronts_batch(state.front, p_rem)

    def store_child_fronts(
        self, states: Sequence[FlowShopState], fronts: np.ndarray
    ) -> None:
        """Park pool-computed child fronts for later :meth:`branch` reuse.

        ``fronts`` is the (N, r, M) pool array; row ``n`` belongs to
        ``states[n]``.  Called by the pool evaluators so the fronts
        computed for bounding are not recomputed at branch time;
        whatever the previous wave left unconsumed (parents with no
        surviving child are never branched) is dropped first.
        """
        cache = self._pool_fronts
        cache.clear()
        for n, state in enumerate(states):
            cache[id(state)] = (state, fronts[n])

    def branch(self, state: FlowShopState, depth: int) -> List[FlowShopState]:
        remaining = state.remaining
        r = remaining.size
        fronts = self._child_fronts(state)
        # remaining-minus-one for every child in one shot: gather with
        # the cached diagonal-dropping index matrix.
        if r > 1:
            idx = self._rest_idx.get(r)
            if idx is None:
                idx = np.nonzero(~np.eye(r, dtype=bool))[1].reshape(r, r - 1)
                self._rest_idx[r] = idx
            rests = remaining[idx]
        else:
            rests = np.empty((1, 0), dtype=remaining.dtype)
        scheduled = state.scheduled
        jobs = remaining.tolist()
        return [
            FlowShopState(
                scheduled=scheduled + (jobs[c],),
                front=fronts[c],
                remaining=rests[c],
            )
            for c in range(r)
        ]

    def lower_bound(self, state: FlowShopState, depth: int) -> float:
        return self._bound_fn(state.front, state.remaining)

    def leaf_cost(self, state: FlowShopState) -> float:
        return int(state.front[-1])

    def leaf_solution(self, state: FlowShopState) -> Tuple[int, ...]:
        return state.scheduled

    def warm_start(
        self, interval: Optional[Interval] = None
    ) -> Optional[Tuple[int, Tuple[int, ...]]]:
        """Iterated Greedy run inside ``interval`` (default: the whole tree).

        The interval unfolds into its active nodes; the first and the
        last node of each depth (at most ``2 P``, the nodes along the
        interval's two boundaries) have their rank paths read as fixed
        job prefixes, which :func:`neh` completes.  The best completion
        (ties going to the leftmost node) is then polished by
        :func:`iterated_greedy` with the same prefix, under the fixed
        ``POLISH_*`` budget.  Every schedule is a leaf below its node,
        so the result lies inside ``interval`` and is never worse than
        that node's NEH; an empty interval gives ``None``.  The whole
        tree unfolds to the root, whose completion is classic NEH.
        Deterministic, no time box.
        """
        shape = self._shape
        if interval is None:
            interval = Interval(0, shape.total_leaves)
        ends: Dict[int, Tuple[ActiveNode, ActiveNode]] = {}
        for node in unfold(shape, interval):  # left to right
            first, _ = ends.get(node.depth, (node, node))
            ends[node.depth] = (first, node)
        best: Optional[Tuple[int, List[int], List[int]]] = None
        for node in sorted(
            {node for pair in ends.values() for node in pair},
            key=lambda node: node.number,
        ):
            remaining = list(range(self.instance.jobs))
            prefix = [remaining.pop(rank) for rank in node.ranks]
            sequence, cost = neh(self.instance, prefix)
            if best is None or cost < best[0]:
                best = (cost, sequence, prefix)
        if best is None:
            return None
        cost, sequence, prefix = best
        free = self.instance.jobs - len(prefix)
        if free > 1:
            polished = iterated_greedy(
                self.instance,
                iterations=POLISH_ITERATIONS,
                destruction=min(POLISH_DESTRUCTION, free),
                temperature_factor=0.0,
                seed=POLISH_SEED,
                initial=sequence,
                prefix=prefix,
            )
            cost, sequence = polished.cost, polished.sequence
        return cost, tuple(sequence)

    def name(self) -> str:
        return f"FlowShop({self.instance.name}, bound={self.bound})"
