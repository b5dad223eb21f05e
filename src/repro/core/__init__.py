"""Core of the reproduction: interval-coded Branch and Bound.

This subpackage implements the paper's contribution proper — the node
numbering of regular search trees (§3.1–3.3), the fold/unfold operators
(§3.4–3.5), the interval algebra the coordinator runs on (§4), and a
resumable interval-constrained B&B engine.

Public surface re-exported here::

    from repro.core import (
        TreeShape, Interval, IntervalSet, ActiveList, ActiveNode,
        fold, unfold, Problem, IntervalExplorer, solve,
        Incumbent, ExplorationStats, ResumableSolver,
    )
"""

from repro.core.active_list import ActiveList, ActiveNode
from repro.core.checkpoint import JournalRecord, RecoveredState
from repro.core.engine import (
    IntervalExplorer,
    SolveResult,
    StepReport,
    brute_force_minimum,
    solve,
)
from repro.core.fold import fold, fold_by_union
from repro.core.interval import Interval
from repro.core.interval_set import Assignment, IntervalRecord, IntervalSet
from repro.core.numbering import (
    leaf_ranks_for_number,
    node_number,
    node_range,
)
from repro.core.problem import Problem, seed_incumbent
from repro.core.resumable import ResumableSolver
from repro.core.stats import ExplorationStats, Incumbent
from repro.core.tree import TreeShape
from repro.core.unfold import UnfoldStats, unfold, unfold_with_stats

__all__ = [
    "ActiveList",
    "ActiveNode",
    "Assignment",
    "JournalRecord",
    "RecoveredState",
    "ExplorationStats",
    "Incumbent",
    "Interval",
    "IntervalExplorer",
    "IntervalRecord",
    "IntervalSet",
    "Problem",
    "ResumableSolver",
    "SolveResult",
    "StepReport",
    "TreeShape",
    "UnfoldStats",
    "brute_force_minimum",
    "fold",
    "fold_by_union",
    "leaf_ranks_for_number",
    "node_number",
    "node_range",
    "seed_incumbent",
    "solve",
    "unfold",
    "unfold_with_stats",
]
