"""The :class:`Problem` interface the B&B engine explores.

A problem instance describes a *regular* search tree (so the interval
coding applies) plus the three B&B ingredients the paper's operators
need: branching, bounding and leaf evaluation.  The library consistently
**minimises** — costs may be ints or floats.

The crucial contract is *deterministic branching order*: the rank of a
child is its position in the sequence returned by :meth:`branch`, and
ranks define the node numbering (§3.2).  ``branch`` must therefore be a
pure function of the parent state — two processes decomposing the same
node anywhere on the grid must generate the same children in the same
order, otherwise intervals would mean different work on different
hosts.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Any, Optional, Sequence, Tuple

from repro.core.interval import Interval
from repro.core.stats import Incumbent
from repro.core.tree import TreeShape

__all__ = ["Problem", "seed_incumbent"]


class Problem(ABC):
    """A minimisation problem over a regular search tree.

    Subclasses provide immutable-ish *states*; the engine never mutates
    a state it did not create and may keep many alive on its stack.
    """

    #: Advisory prune threshold for batch bounding: the incumbent cost
    #: of the engine about to call a pool evaluator built on this
    #: problem (:mod:`repro.core.kernels`), written by that engine
    #: before every such call.  A staged bound may stop at a cheap
    #: admissible value for children it has already shown to be
    #: ``>= prune_at``; every other child bound it returns must be the
    #: exact :meth:`lower_bound` value.  It is only ever *compared*
    #: with bounds; a stale or foreign value can weaken a reported
    #: bound, never the soundness of a prune, because every value
    #: returned is admissible whatever the hint says.  ``inf`` (the
    #: default) asks for exact bounds everywhere.
    prune_at: float = math.inf

    @abstractmethod
    def tree_shape(self) -> TreeShape:
        """Shape of the search tree (defines weights and numbering)."""

    @abstractmethod
    def root_state(self) -> Any:
        """State attached to the root node (the whole search space)."""

    @abstractmethod
    def branch(self, state: Any, depth: int) -> Sequence[Any]:
        """Children of ``state`` in rank order (rank 0 first).

        Must return exactly ``tree_shape().num_children(depth)`` states
        and be deterministic in ``state`` alone — the grid-wide node
        numbering depends on it.
        """

    @abstractmethod
    def lower_bound(self, state: Any, depth: int) -> float:
        """Lower bound on the cost of every leaf below ``state``.

        The engine prunes the sub-tree when this is >= the incumbent
        cost.  Returning ``-inf`` disables pruning for the node.  For a
        leaf state this should equal :meth:`leaf_cost` (the engine only
        calls :meth:`leaf_cost` on leaves, but a consistent bound keeps
        the LB <= cost invariant testable).
        """

    @abstractmethod
    def leaf_cost(self, state: Any) -> float:
        """Exact cost of a leaf state."""

    def leaf_solution(self, state: Any) -> Any:
        """Serialisable representation of a leaf solution.

        Defaults to the state itself; problems whose states carry
        incremental caches should override to strip them.
        """
        return state

    def warm_start(
        self, interval: Optional[Interval] = None
    ) -> Optional[Tuple[float, Any]]:
        """Optional heuristic incumbent ``(cost, solution)`` for ``interval``.

        ``interval`` is the run's slice of leaf numbers (``None``: the
        whole tree), and the solution's leaf must lie *inside* it: a
        slice's result is the optimum over that slice, and a solution
        from elsewhere in the tree could beat it and be reported in its
        place.  Return ``None`` when no such solution is at hand.
        Every front door — :func:`~repro.core.engine.solve`, the
        :class:`~repro.core.resumable.ResumableSolver`, the solve
        service (``repro grid service`` and ``repro grid serve``) and
        ``solve_parallel`` — consults it through :func:`seed_incumbent`.
        ``cost`` must be the exact cost of a *feasible* ``solution``
        (the incumbent's solution may be reported as the optimum if
        nothing beats it), so a roll-out, greedy or local-search
        heuristic qualifies (a flow shop runs NEH then Iterated Greedy
        below the interval's boundary nodes); a mere estimate does not.
        Because B&B only prunes subtrees whose bound reaches the
        incumbent and bounds are admissible, a valid warm start can
        never change the proved optimum — only how fast it is reached
        (property-tested in ``tests/test_warm_start.py``).  It must
        return the same pair on every call, under a fixed budget and
        without a time box: node counts must not depend on the host.
        It runs in the service's pump when a job starts, so that budget
        is the pump's too.

        Default: ``None`` (no heuristic — exploration starts cold).
        """
        return None

    # ------------------------------------------------------------------
    # conveniences shared by all problems
    # ------------------------------------------------------------------
    def total_leaves(self) -> int:
        """Size of the solution space (= weight of the root)."""
        return self.tree_shape().total_leaves

    def name(self) -> str:
        """Human-readable identifier used in logs and benchmark tables."""
        return type(self).__name__


def seed_incumbent(
    problem: Problem, incumbent: Incumbent, interval: Optional[Interval] = None
) -> Incumbent:
    """Tighten ``incumbent`` with ``problem.warm_start(interval)``; return it.

    ``interval`` is the run's slice (``None``: the whole tree) —
    ``solve(interval=)``, ``RuntimeConfig.root_interval``, or a service
    job admitted with a ``root`` (``repro grid serve --interval``).
    The problem's warm start stays inside it, so a slice still returns
    the optimum over that slice.  The update is monotonic, so a better
    incumbent already held survives.
    """
    warm = problem.warm_start(interval)
    if warm is not None:
        incumbent.update(*warm)
    return incumbent
