"""Active-node lists: the exploration-side view of a work unit (§3).

During depth-first exploration the not-yet-visited nodes form a list
``N1 .. Nk`` whose ranges are pairwise adjacent (eq. 9)::

    for all i < k:   end(range(Ni)) == begin(range(Ni+1))

so the union of their ranges is a single interval — that is what makes
the fold operator (eq. 10) a two-integer summary.  :class:`ActiveList`
stores the nodes by rank path, keeps them in increasing-number order
and enforces the contiguity invariant.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple

from repro.core.interval import Interval
from repro.core.numbering import check_rank_path, node_range
from repro.core.tree import TreeShape
from repro.exceptions import FoldError

__all__ = ["ActiveNode", "ActiveList"]

RankPath = Tuple[int, ...]


class ActiveNode:
    """A generated-but-unvisited node: rank path plus cached range."""

    __slots__ = ("ranks", "range")

    def __init__(self, shape: TreeShape, ranks: Sequence[int]):
        self.ranks: RankPath = check_rank_path(shape, ranks)
        self.range: Interval = node_range(shape, self.ranks)

    @classmethod
    def from_range(cls, ranks: RankPath, rng: Interval) -> "ActiveNode":
        """A node whose valid path and range the caller already holds.

        :func:`~repro.core.unfold.unfold` walks down from the root and
        knows both for every node it emits; checking the path and
        summing its number again would cost O(P) per node.
        """
        node = cls.__new__(cls)
        node.ranks = ranks
        node.range = rng
        return node

    @property
    def depth(self) -> int:
        return len(self.ranks)

    @property
    def number(self) -> int:
        return self.range.begin

    @property
    def weight(self) -> int:
        return self.range.length

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ActiveNode):
            return NotImplemented
        return self.ranks == other.ranks

    def __hash__(self) -> int:
        return hash(self.ranks)

    def __repr__(self) -> str:
        return f"ActiveNode({list(self.ranks)!r}, range={self.range})"


class ActiveList:
    """An ordered DFS frontier over a regular tree.

    The constructor validates the eq. 9 contiguity invariant: the
    ranges of consecutive nodes must be adjacent.  An empty list is
    allowed (an exhausted work unit).
    """

    __slots__ = ("shape", "_nodes")

    def __init__(self, shape: TreeShape, nodes: Iterable[ActiveNode] = ()):
        self.shape = shape
        self._nodes: List[ActiveNode] = list(nodes)
        self._validate()

    @classmethod
    def from_rank_paths(
        cls, shape: TreeShape, paths: Iterable[Sequence[int]]
    ) -> "ActiveList":
        return cls(shape, (ActiveNode(shape, p) for p in paths))

    @classmethod
    def whole_tree(cls, shape: TreeShape) -> "ActiveList":
        """The initial frontier: just the root node."""
        return cls(shape, (ActiveNode(shape, ()),))

    def _validate(self) -> None:
        for left, right in zip(self._nodes, self._nodes[1:]):
            if not left.range.is_adjacent_left_of(right.range):
                raise FoldError(
                    f"active list violates DFS contiguity (eq. 9): "
                    f"{left.range} then {right.range}"
                )

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[ActiveNode]:
        return iter(self._nodes)

    def __getitem__(self, index: int) -> ActiveNode:
        return self._nodes[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ActiveList):
            return NotImplemented
        return self.shape == other.shape and self._nodes == other._nodes

    def is_empty(self) -> bool:
        return not self._nodes

    @property
    def cardinality(self) -> int:
        """Number of active nodes ("the number of elements it contains")."""
        return len(self._nodes)

    def covered_leaves(self) -> int:
        """Total number of leaves reachable from the frontier."""
        return sum(node.weight for node in self._nodes)

    def rank_paths(self) -> List[RankPath]:
        return [node.ranks for node in self._nodes]

    def __repr__(self) -> str:
        return (
            f"ActiveList({self.shape!r}, "
            f"{[list(n.ranks) for n in self._nodes]!r})"
        )
