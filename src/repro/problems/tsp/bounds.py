"""Lower bounds for the symmetric TSP.

Two bounds of increasing strength:

* :func:`outgoing_edge_bound` — each unvisited node's cheapest usable
  outgoing edge (the baseline bound built into
  :class:`~repro.problems.tsp.problem.TSPProblem`), evaluated as one
  masked row-minimum sweep, plus
  :func:`outgoing_edge_bound_children_pool`, the batched form that
  bounds every child of a wave of decomposed nodes in one kernel;
* :func:`one_tree_bound` — the Held–Karp 1-tree: a minimum spanning
  tree over the non-root nodes plus the two cheapest edges of a
  special node.  The record runs in the paper's Table 3 (Sw24978,
  D15112, Usa13509) were driven by exactly this bound family
  (with Lagrangian refinement); the plain 1-tree is implemented here
  and dominates the outgoing-edge bound at the root.  The MST runs on
  ``scipy.sparse.csgraph``; a textbook Prim in
  ``tests/test_pool_kernels.py`` is its oracle.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import minimum_spanning_tree

from repro.exceptions import ProblemError
from repro.problems.tsp.instance import TSPInstance

__all__ = [
    "outgoing_edge_bound",
    "outgoing_edge_bound_children_pool",
    "one_tree_bound",
]


def outgoing_edge_bound(
    instance: TSPInstance,
    path: Sequence[int],
    path_cost: int,
    remaining: Iterable[int],
) -> int:
    """Cheapest-usable-outgoing-edge bound for a partial tour.

    The remaining tour must leave the current city once and leave every
    unvisited city once (ending back at the start), so summing each
    one's cheapest admissible outgoing edge is admissible.  One masked
    row-minimum over the remaining-by-targets block — no Python loop.
    """
    d = instance.distances
    remaining = np.asarray(list(remaining), dtype=np.intp)
    if remaining.size == 0:
        return path_cost + int(d[path[-1], path[0]])
    # Rows = remaining cities, cols = remaining + [home], with the self
    # column pushed to +inf so row minima skip it.
    targets = np.concatenate([remaining, [path[0]]])
    block = d[np.ix_(remaining, targets)].astype(np.float64)
    r = remaining.size
    block[np.arange(r), np.arange(r)] = np.inf
    bound = path_cost + int(d[path[-1], targets].min())
    bound += int(block.min(axis=1).sum())
    return bound


def outgoing_edge_bound_children_pool(
    instance: TSPInstance,
    lasts: Sequence[int],
    costs: Sequence[int],
    homes: Sequence[int],
    remaining: np.ndarray,
) -> np.ndarray:
    """Outgoing-edge bounds of *all* children of N partial tours at once.

    Row ``n`` describes one parent: current city ``lasts[n]``, open
    path cost ``costs[n]``, tour start ``homes[n]`` and the (N, r)
    matrix row ``remaining[n]`` of its unvisited cities (all parents
    share one depth, hence one r; ``r >= 2`` as the engine never pools
    leaf children).  Child ``c`` of parent ``n`` extends the path with
    ``remaining[n, c]``.  Its bound is

        cost + d[current, r_c] + min_t d[r_c, t] + sum over the other
        remaining cities of their cheapest edge avoiding ``r_c``

    and the whole family collapses to one leave-one-out scan: with
    ``min1``/``argmin``/``min2`` the best and runner-up outgoing edge
    per remaining city, child ``c``'s own first-hop minimum *is*
    ``min1[c]`` (its self column is masked), and the leave-one-out sum
    is ``S - min1[c]`` corrected by ``min2 - min1`` wherever ``argmin``
    pointed at ``r_c`` — so every child is O(1) after the shared
    O(r^2) table per parent.  Row ``n`` of the result equals
    :func:`outgoing_edge_bound` of each child exactly: the arithmetic
    is float64 sums of integer distances below 2**53, which are
    order-independent-exact.
    """
    d = instance.distances
    remaining = np.asarray(remaining, dtype=np.intp)
    n_pool, r = remaining.shape
    if r < 2:
        raise ProblemError(
            "outgoing_edge_bound_children_pool needs >= 2 remaining cities; "
            "bound leaf children with leaf_cost instead"
        )
    lasts_arr = np.asarray(lasts, dtype=np.intp)
    costs_arr = np.asarray(costs, dtype=np.float64)
    homes_arr = np.asarray(homes, dtype=np.intp)
    targets = np.concatenate([remaining, homes_arr[:, None]], axis=1)
    block = d[remaining[:, :, None], targets[:, None, :]].astype(np.float64)
    ar = np.arange(r)
    block[:, ar, ar] = np.inf
    argmin1 = block.argmin(axis=2)  # (N, r)
    min1 = np.take_along_axis(block, argmin1[:, :, None], axis=2)[:, :, 0]
    np.put_along_axis(block, argmin1[:, :, None], np.inf, axis=2)
    min2 = block.min(axis=2)
    total = min1.sum(axis=1)  # (N,)
    # Sum of every city's best edge; child c removes its own row (it
    # is now the tour head) and forbids its column as a target, which
    # the scatter-add of (min2 - min1) into the argmin slots corrects.
    correction = np.zeros((n_pool, r + 1), dtype=np.float64)
    np.add.at(correction, (np.arange(n_pool)[:, None], argmin1), min2 - min1)
    first_hop = d[lasts_arr[:, None], remaining].astype(np.float64)
    bounds = costs_arr[:, None] + first_hop + total[:, None] + correction[:, :r]
    return bounds.astype(np.int64)


def one_tree_bound(instance: TSPInstance, special: int = 0) -> int:
    """The Held–Karp 1-tree bound for the *whole* instance.

    A 1-tree is a spanning tree over ``V - {special}`` plus the two
    cheapest edges incident to ``special``; every tour is a 1-tree, so
    the minimum 1-tree weight lower-bounds the optimal tour.

    The MST is computed by ``scipy.sparse.csgraph.minimum_spanning_tree``
    over the dense sub-block.  csgraph treats explicit zeros as missing
    edges, so weights are shifted by +1 (a uniform shift preserves the
    MST) and the shift is subtracted back off the ``m - 1`` tree edges.
    """
    n = instance.cities
    if not 0 <= special < n:
        raise ProblemError(f"special node {special} outside 0..{n - 1}")
    d = instance.distances
    others = np.array([v for v in range(n) if v != special], dtype=np.intp)
    m = others.size
    shifted = d[np.ix_(others, others)].astype(np.float64) + 1.0
    np.fill_diagonal(shifted, 0.0)  # no self loops
    mst = minimum_spanning_tree(csr_matrix(shifted))
    mst_weight = int(mst.sum()) - (m - 1)
    incident = np.sort(d[special, others])
    return int(mst_weight + incident[0] + incident[1])


def best_one_tree_bound(instance: TSPInstance, specials: Optional[Sequence[int]] = None) -> int:
    """Max of 1-tree bounds over several special-node choices."""
    if specials is None:
        specials = range(instance.cities)
    return max(one_tree_bound(instance, s) for s in specials)
