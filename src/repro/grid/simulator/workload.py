"""Tree-exploration workload models for simulated B&B processes.

Two fidelity levels share one interface:

* :class:`RealBBWorkload` runs the genuine
  :class:`~repro.core.engine.IntervalExplorer` on a real problem
  instance, converting virtual CPU time into node budgets — the
  highest-fidelity mode, used to validate the protocol end to end
  (the simulated grid must find the true optimum with proof).
* :class:`SyntheticWorkload` models the exploration of Ta056-sized
  trees abstractly: a worker consumes leaf numbers at a rate given by
  an *irregular* piecewise cost field (the paper stresses the tree's
  irregularity), visits tree nodes at a fixed CPU rate, and hits
  pre-sampled improvement points.  Crucially the field is a pure
  function of the position, so two processes exploring the same
  numbers redo the same work — exactly how duplicated intervals behave
  in the real algorithm.

A *work unit* is one assigned interval being explored; ``advance``
moves it forward by a CPU-time budget and reports what happened.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from repro.core.engine import IntervalExplorer
from repro.core.interval import Interval
from repro.core.problem import Problem
from repro.core.stats import Incumbent
from repro.exceptions import SimulationError
from repro.grid.runtime.worker import Unit
from repro.grid.simulator.rng import stable_seed

import numpy as np

__all__ = [
    "AdvanceReport",
    "WorkUnit",
    "Workload",
    "RealBBWorkload",
    "SyntheticWorkload",
]


@dataclass
class AdvanceReport:
    """What one exploration slice did."""

    elapsed: float  # CPU seconds actually spent (<= budget)
    nodes: int  # tree nodes visited
    consumed: int  # leaf numbers consumed (interval length explored)
    improvements: List[Tuple[float, Any]] = field(default_factory=list)
    finished: bool = False


class WorkUnit(Unit):
    """One interval being explored by one process, by CPU budget."""

    @abstractmethod
    def advance(self, budget_seconds: float, power: float) -> AdvanceReport:
        """Explore for up to ``budget_seconds`` of CPU at ``power``."""


class Workload(ABC):
    """Problem-side factory the simulated workers draw units from."""

    @abstractmethod
    def total_leaves(self) -> int: ...

    @abstractmethod
    def create_unit(self, interval: Interval, best_cost: float) -> WorkUnit: ...

    def warm_start(self, interval: Optional[Interval] = None) -> Optional[Tuple[float, Any]]:
        """Starting SOLUTION, as a problem's warm start (the paper seeded
        Ta056 with cost 3681): what the farmer's job starts from."""
        return None

    def optimum(self) -> Optional[float]:
        """Known optimum for validation, when available."""
        return None


# ----------------------------------------------------------------------
# real mode
# ----------------------------------------------------------------------
class _RealUnit(WorkUnit):
    def __init__(self, problem: Problem, interval: Interval, best_cost: float,
                 nodes_per_second: float):
        self._improvements: List[Tuple[float, Any]] = []
        self.explorer = IntervalExplorer(
            problem,
            interval,
            incumbent=Incumbent(best_cost, None),
            on_improvement=lambda c, s: self._improvements.append((c, s)),
        )
        self.nodes_per_second = nodes_per_second

    def advance(self, budget_seconds: float, power: float) -> AdvanceReport:
        budget_nodes = max(1, int(budget_seconds * self.nodes_per_second * power))
        report = self.explorer.step(budget_nodes)
        improvements, self._improvements = self._improvements, []
        elapsed = report.nodes_processed / (self.nodes_per_second * power)
        return AdvanceReport(
            elapsed=min(elapsed, budget_seconds),
            nodes=report.nodes_processed,
            consumed=report.consumed,
            improvements=improvements,
            finished=report.finished,
        )

    def remaining_interval(self) -> Interval:
        return self.explorer.remaining_interval()

    def apply_interval(self, interval: Interval) -> None:
        self.explorer.apply_interval(interval)

    def set_upper_bound(self, cost: float) -> None:
        self.explorer.set_upper_bound(cost, None)

    def is_finished(self) -> bool:
        return self.explorer.is_finished()


class RealBBWorkload(Workload):
    """Drive the actual B&B engine inside the simulation.

    ``nodes_per_second`` is the throughput of a power-1.0 (1 GHz)
    processor; the authors' C++ workers did ~10^6, our NumPy bound
    does ~10^4 — the virtual clock makes the difference irrelevant.
    """

    def __init__(
        self,
        problem: Problem,
        nodes_per_second: float = 1e4,
        initial: Optional[Incumbent] = None,
    ):
        if nodes_per_second <= 0:
            raise SimulationError("nodes_per_second must be positive")
        self.problem = problem
        self.nodes_per_second = nodes_per_second
        self._initial = initial if initial is not None else Incumbent()

    def total_leaves(self) -> int:
        return self.problem.total_leaves()

    def warm_start(self, interval: Optional[Interval] = None) -> Optional[Tuple[float, Any]]:
        return self._initial.cost, self._initial.solution

    def create_unit(self, interval: Interval, best_cost: float) -> WorkUnit:
        return _RealUnit(self.problem, interval, best_cost, self.nodes_per_second)


# ----------------------------------------------------------------------
# synthetic mode
# ----------------------------------------------------------------------
class SyntheticWorkload(Workload):
    """Abstract irregular-tree exploration at Ta056 scale.

    Parameters
    ----------
    leaves:
        Size of the solution space (50! for Ta056).
    seed:
        Seed of the cost field and improvement points.
    mean_leaf_rate:
        Average leaf numbers consumed per CPU-second at power 1.0.
        Calibrated so a target pool finishes in a target wall time:
        ``leaves / (workers * power * wall_seconds)``.
    irregularity:
        Sigma of the lognormal per-segment rate multipliers: 0 is a
        uniform tree, 1.5+ is strongly irregular (B&B trees are).
    segments:
        Number of piecewise-constant rate segments.
    nodes_per_second:
        Tree nodes visited per CPU-second at power 1.0 (sets Table 2's
        explored-node count; the paper's pool did ~9.4k/s on average).
    optimum / initial_gap / improvement_count:
        The cost trajectory: improvement points scattered over the
        space step the best cost down from ``optimum + initial_gap``
        to ``optimum``.
    """

    def __init__(
        self,
        leaves: int,
        seed: int = 0,
        mean_leaf_rate: float = 1e9,
        irregularity: float = 1.0,
        segments: int = 4096,
        nodes_per_second: float = 1e4,
        optimum: float = 3679.0,
        initial_gap: float = 2.0,
        improvement_count: int = 12,
    ):
        if leaves <= 0 or mean_leaf_rate <= 0 or nodes_per_second <= 0:
            raise SimulationError("leaves and rates must be positive")
        if segments < 1:
            raise SimulationError("need at least one segment")
        self.leaves = int(leaves)
        self.seed = seed
        self.segments = segments
        self.nodes_per_second = nodes_per_second
        self._optimum = optimum
        self._initial = Incumbent(optimum + initial_gap, None)

        rng = np.random.default_rng(stable_seed("synthetic", seed))
        multipliers = rng.lognormal(mean=0.0, sigma=irregularity, size=segments)
        multipliers /= multipliers.mean()
        self._rates = multipliers * mean_leaf_rate  # leaves/sec at power 1
        self._segment_length = -(-self.leaves // segments)  # ceil div

        # Improvement points: positions where a better solution hides.
        # positions via floats: numpy integers cannot span 50!-sized
        # ranges; 53-bit precision is plenty for scatter points.
        positions = sorted(
            min(self.leaves - 1, int(x * self.leaves))
            for x in rng.random(improvement_count)
        )
        costs = np.sort(
            rng.uniform(optimum, optimum + initial_gap, size=improvement_count)
        )[::-1]
        costs[-1] = optimum  # the global optimum is out there
        self._improvement_points: List[Tuple[int, float]] = list(
            zip(positions, costs.tolist())
        )

    def total_leaves(self) -> int:
        return self.leaves

    def warm_start(self, interval: Optional[Interval] = None) -> Optional[Tuple[float, Any]]:
        return self._initial.cost, self._initial.solution

    def optimum(self) -> Optional[float]:
        return self._optimum

    def rate_at(self, position: int) -> float:
        seg = min(position // self._segment_length, self.segments - 1)
        return float(self._rates[seg])

    def improvements_in(
        self, begin: int, end: int, below: float
    ) -> List[Tuple[float, Any]]:
        found = [
            (cost, ("synthetic-solution", pos))
            for pos, cost in self._improvement_points
            if begin <= pos < end and cost < below
        ]
        found.sort(key=lambda t: -t[0])
        # keep only the strictly-improving ones in discovery order
        out: List[Tuple[float, Any]] = []
        best = below
        for cost, sol in sorted(found, key=lambda t: t[1][1]):
            if cost < best:
                best = cost
                out.append((cost, sol))
        return out

    def create_unit(self, interval: Interval, best_cost: float) -> WorkUnit:
        return _SyntheticUnit(self, interval, best_cost)


class _SyntheticUnit(WorkUnit):
    def __init__(self, workload: SyntheticWorkload, interval: Interval,
                 best_cost: float):
        full = Interval(0, workload.total_leaves())
        interval = interval.intersect(full)
        self.workload = workload
        self.position = max(0, interval.begin)
        self.end = max(self.position, interval.end)
        self.best_cost = best_cost

    def advance(self, budget_seconds: float, power: float) -> AdvanceReport:
        w = self.workload
        time_left = budget_seconds
        start_position = self.position
        elapsed = 0.0
        # repro-check: ignore[RC01] -- time_left is simulated seconds (derived via the node->time conversion below), not interval state
        while time_left > 1e-12 and self.position < self.end:
            seg_len = w._segment_length
            seg_end = min(((self.position // seg_len) + 1) * seg_len, self.end)
            rate = w.rate_at(self.position) * power
            # repro-check: ignore[RC01] -- node-count to simulated-seconds conversion; the quotient is time, not interval state
            needed = (seg_end - self.position) / rate
            if needed <= time_left:
                elapsed += needed
                time_left -= needed
                self.position = seg_end
            else:
                self.position += int(rate * time_left)
                self.position = min(self.position, seg_end)
                elapsed += time_left
                time_left = 0.0
        consumed = self.position - start_position
        improvements = w.improvements_in(start_position, self.position, self.best_cost)
        if improvements:
            self.best_cost = improvements[-1][0]
        nodes = int(elapsed * w.nodes_per_second * power)
        return AdvanceReport(
            elapsed=elapsed,
            nodes=nodes,
            consumed=consumed,
            improvements=improvements,
            finished=self.position >= self.end,
        )

    def remaining_interval(self) -> Interval:
        return Interval(self.position, self.end)

    def apply_interval(self, interval: Interval) -> None:
        merged = self.remaining_interval().intersect(interval)
        if merged.is_empty():
            self.end = self.position
        else:
            self.position = merged.begin
            self.end = merged.end

    def set_upper_bound(self, cost: float) -> None:
        if cost < self.best_cost:
            self.best_cost = cost

    def is_finished(self) -> bool:
        return self.position >= self.end
