"""The unfold operator: interval -> minimal active list (paper §3.5).

``nodes([A, B))`` is the unique minimal list of nodes that covers
exactly the leaf numbers in ``[A, B)`` (eq. 11): a node belongs to the
list iff its range is included in the interval while its father's range
is not.  The paper computes it with a bound-free B&B whose elimination
rule is eq. 12 — eliminate a node when its range is included in the
interval (emit it) or disjoint from it (discard it), decompose
otherwise.

Only nodes whose range *straddles* an interval boundary are decomposed;
there are at most two such nodes per depth (one per boundary), so the
operator performs fewer than ``2 P`` decompositions on a tree of leaf
depth ``P`` — the low-cost guarantee of §3.5.  The implementation below
additionally skips non-overlapping children arithmetically instead of
testing each of them, so its cost is ``O(P * max_branching)`` at worst
and independent of the interval length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.active_list import ActiveList, ActiveNode
from repro.core.interval import Interval
from repro.core.tree import TreeShape

__all__ = ["unfold", "unfold_with_stats", "UnfoldStats"]


@dataclass
class UnfoldStats:
    """Cost accounting for one unfold call (for the §3.5 cost claim)."""

    decompositions: int = 0
    nodes_emitted: int = 0
    children_examined: int = 0


def unfold(shape: TreeShape, interval: Interval) -> ActiveList:
    """Deduce the minimal active list covering ``interval`` (eqs. 11–13).

    The interval is clipped to the tree's leaf numbers ``[0, W)`` first;
    an empty (or fully out-of-range) interval unfolds to an empty list.
    """
    active, _ = unfold_with_stats(shape, interval)
    return active


def unfold_with_stats(shape, interval):
    """Like :func:`unfold` but also return an :class:`UnfoldStats`.

    Returns
    -------
    (ActiveList, UnfoldStats)
    """
    stats = UnfoldStats()
    clipped = interval.intersect(Interval(0, shape.total_leaves))
    if clipped.is_empty():
        return ActiveList(shape), stats

    weights = shape.weights()
    nodes: List[ActiveNode] = []

    def visit(ranks: tuple, begin: int, depth: int) -> None:
        node_rng = Interval(begin, begin + weights[depth])
        if clipped.contains_interval(node_rng):
            # eq. 12 first case + eq. 13: eliminated with range included
            # in [A, B) => member of the active list.
            stats.nodes_emitted += 1
            nodes.append(ActiveNode.from_range(ranks, node_rng))
            return
        # The caller only recurses into overlapping children, and a
        # non-included overlapping node must be decomposed (eq. 12).
        stats.decompositions += 1
        child_w = weights[depth + 1]
        # Arithmetic clip: child r covers [begin + r*w, begin + (r+1)*w).
        lo = max(0, (clipped.begin - begin) // child_w)
        hi = min(
            shape.branching[depth] - 1,
            (clipped.end - begin - 1) // child_w,
        )
        for rank in range(lo, hi + 1):
            stats.children_examined += 1
            visit(ranks + (rank,), begin + rank * child_w, depth + 1)

    visit((), 0, 0)
    return ActiveList(shape, nodes), stats
