"""Symmetric TSP as a permutation-tree :class:`Problem`.

City 0 is the fixed tour start, so a tour is a permutation of the
remaining ``n - 1`` cities and the search tree is
``TreeShape.permutation(n - 1)`` — the same regular tree family the
paper's interval coding targets.

The lower bound is the classic outgoing-edge bound: the remaining part
of the tour must leave the current city once and leave every unvisited
city once (ending back at city 0), so summing each node's cheapest
admissible outgoing edge is admissible.  Bounds are evaluated by the
vectorised kernels in :mod:`repro.problems.tsp.bounds`; at
decomposition time the children of a whole wave of parents are bounded
by one call of the pool evaluator (:mod:`repro.problems.tsp.pool`).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.interval import Interval
from repro.core.problem import Problem
from repro.core.tree import TreeShape
from repro.problems.tsp.bounds import outgoing_edge_bound
from repro.problems.tsp.instance import TSPInstance

__all__ = ["TSPProblem", "nearest_neighbour_tour"]


class _TourState:
    __slots__ = ("path", "cost", "remaining")

    def __init__(self, path: Tuple[int, ...], cost: int, remaining: Tuple[int, ...]):
        self.path = path  # starts at city 0
        self.cost = cost  # length of the open path so far
        self.remaining = remaining  # ascending city ids


class TSPProblem(Problem):
    """Minimise closed-tour length over permutations of cities 1..n-1."""

    def __init__(self, instance: TSPInstance):
        self.instance = instance
        self._shape = TreeShape.permutation(instance.cities - 1)

    def tree_shape(self) -> TreeShape:
        return self._shape

    def root_state(self) -> _TourState:
        return _TourState(
            (0,), 0, tuple(range(1, self.instance.cities))
        )

    def branch(self, state: _TourState, depth: int) -> List[_TourState]:
        hops = self.instance.distances[state.path[-1]]
        remaining = state.remaining
        return [
            _TourState(
                state.path + (city,),
                state.cost + int(hops[city]),
                remaining[:idx] + remaining[idx + 1 :],
            )
            for idx, city in enumerate(remaining)
        ]

    def lower_bound(self, state: _TourState, depth: int) -> float:
        if not state.remaining:
            return state.cost + int(
                self.instance.distances[state.path[-1], 0]
            )
        return outgoing_edge_bound(
            self.instance, state.path, state.cost, state.remaining
        )

    def leaf_cost(self, state: _TourState) -> float:
        return state.cost + int(self.instance.distances[state.path[-1], 0])

    def leaf_solution(self, state: _TourState) -> Tuple[int, ...]:
        return state.path

    def warm_start(
        self, interval: Optional[Interval] = None
    ) -> Optional[Tuple[int, Tuple[int, ...]]]:
        """The nearest-neighbour tour, as :meth:`leaf_solution` spells it.

        Whole-tree runs only: the tour's leaf may lie anywhere, so a
        proper slice starts cold (``None``).
        """
        if interval is not None and not interval.contains_interval(
            Interval(0, self.total_leaves())
        ):
            return None
        tour, length = nearest_neighbour_tour(self.instance)
        return length, tuple(tour)

    def name(self) -> str:
        return f"TSP({self.instance.name})"


def nearest_neighbour_tour(instance: TSPInstance) -> Tuple[List[int], int]:
    """Greedy warm-start tour from city 0: ``(tour, length)``."""
    d = instance.distances
    unvisited = set(range(1, instance.cities))
    tour = [0]
    while unvisited:
        current = tour[-1]
        nxt = min(unvisited, key=lambda c: (int(d[current, c]), c))
        tour.append(nxt)
        unvisited.remove(nxt)
    return tour, instance.tour_length(tour)
