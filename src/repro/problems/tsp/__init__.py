"""Symmetric TSP substrate (Table 3's record-run problem class).

Public surface::

    from repro.problems.tsp import TSPInstance, TSPProblem, random_tsp
"""

from repro.problems.tsp.bounds import (
    best_one_tree_bound,
    one_tree_bound,
    outgoing_edge_bound,
    outgoing_edge_bound_children_pool,
)
from repro.problems.tsp.instance import TSPInstance, random_tsp
from repro.problems.tsp.pool import TSPNumpyPool
from repro.problems.tsp.problem import TSPProblem, nearest_neighbour_tour

__all__ = [
    "TSPInstance",
    "TSPNumpyPool",
    "TSPProblem",
    "best_one_tree_bound",
    "nearest_neighbour_tour",
    "one_tree_bound",
    "outgoing_edge_bound",
    "outgoing_edge_bound_children_pool",
    "random_tsp",
]
