"""Checkpointed sequential resolution: kill it, restart it, keep the proof.

The interval coding makes a *single* B&B process restartable for free:
fold the frontier to two integers every ``checkpoint_nodes`` nodes,
persist them (plus the incumbent) through the §4.1 two-file store, and
on restart unfold and continue.  This is the paper's fault-tolerance
machinery applied at N = 1 — and the easiest way to run a multi-day
exact resolution on one workstation through reboots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.core.checkpoint import CheckpointStore
from repro.core.engine import IntervalExplorer, SolveResult
from repro.core.interval import Interval
from repro.core.interval_set import IntervalSet
from repro.core.problem import Problem, seed_incumbent
from repro.core.stats import Incumbent

__all__ = ["ResumableSolver"]


@dataclass
class _Progress:
    checkpoints_written: int = 0
    resumed_from: Optional[Interval] = None


class ResumableSolver:
    """Sequential solve with periodic fold-and-persist checkpoints.

    Parameters
    ----------
    problem:
        The problem to minimise.
    directory:
        Where the two checkpoint files live.  A directory holding a
        previous run of the *same* problem resumes it; a fresh
        directory starts from the root interval.
    checkpoint_nodes:
        Explore this many nodes between checkpoints.
    kernel_backend:
        Pool-evaluation kernel backend forwarded to the underlying
        :class:`IntervalExplorer`.

    A resume re-expands from the *covering* interval, so a few
    already-decomposed internal nodes above the fold point are
    re-decomposed (never re-evaluated leaves; redundancy, not loss).

    Example
    -------
    >>> solver = ResumableSolver(problem, "/tmp/run1")
    >>> result = solver.run()        # Ctrl-C any time...
    >>> result = ResumableSolver(problem, "/tmp/run1").run()  # ...resume
    """

    def __init__(
        self,
        problem: Problem,
        directory,
        checkpoint_nodes: int = 100_000,
        initial_upper_bound: float = math.inf,
        initial_solution=None,
        kernel_backend=None,
    ):
        self.problem = problem
        self.store = CheckpointStore(Path(directory))
        self.checkpoint_nodes = checkpoint_nodes
        self.progress = _Progress()

        intervals, incumbent = self.store.load()
        root = Interval(0, problem.total_leaves())
        if intervals is None:
            interval = root
        else:
            pending = intervals.intervals()
            # A sequential run only ever persists one interval (its own
            # frontier); an empty list means the previous run finished.
            interval = pending[0] if pending else Interval(root.end, root.end)
            self.progress.resumed_from = interval
        if incumbent is None:
            incumbent = Incumbent(initial_upper_bound, initial_solution)
        # The run covers the whole tree, resumed or not: a warm start
        # seeds (or tightens) the incumbent; a checkpointed bound that
        # is already better survives.
        self.explorer = IntervalExplorer(
            problem,
            interval,
            incumbent=seed_incumbent(problem, incumbent),
            kernel_backend=kernel_backend,
        )
        self._checkpoint()  # make the starting state durable immediately

    # ------------------------------------------------------------------
    def _checkpoint(self) -> None:
        remaining = self.explorer.remaining_interval()
        intervals = IntervalSet()
        if not remaining.is_empty():
            intervals.add(remaining)
        self.store.save(intervals, self.explorer.incumbent)
        self.progress.checkpoints_written += 1

    def step(self) -> bool:
        """One checkpoint period; returns False once exploration is done."""
        report = self.explorer.step(self.checkpoint_nodes)
        self._checkpoint()
        return not report.finished and not self.explorer.is_finished()

    def run(self) -> SolveResult:
        """Explore to completion (resuming transparently), with proof."""
        while self.step():
            pass
        return SolveResult(
            cost=self.explorer.incumbent.cost,
            solution=self.explorer.incumbent.solution,
            stats=self.explorer.stats,
            interval=Interval(0, self.problem.total_leaves()),
            optimal=True,
            pool_occupancy=dict(self.explorer.pool_occupancy),
        )

    def remaining_interval(self) -> Interval:
        return self.explorer.remaining_interval()
