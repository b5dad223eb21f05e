#!/usr/bin/env python
"""Parallel exact resolution with the farmer–worker runtime (Figure 5).

Spawns real worker processes coordinated through interval work units,
kills one mid-run to demonstrate the §4.1 fault tolerance, and prints
the coordinator-side statistics.

Run:  python examples/parallel_solve.py
"""

import time

from repro.core import solve
from repro.grid.runtime import RuntimeConfig, flowshop_spec, solve_parallel
from repro.problems.flowshop import FlowShopProblem, neh, random_instance


def main() -> None:
    instance = random_instance(jobs=10, machines=5, seed=7)
    _, upper_bound = neh(instance)  # every run below starts from it
    print(f"instance: {instance.name}, NEH upper bound {upper_bound}")

    # Sequential reference (the ground truth the parallel run must hit).
    t0 = time.perf_counter()
    reference = solve(FlowShopProblem(instance))
    sequential_seconds = time.perf_counter() - t0
    print(
        f"sequential optimum: {reference.cost} "
        f"({reference.stats.nodes_explored} nodes, "
        f"{sequential_seconds:.2f}s)\n"
    )

    spec = flowshop_spec(instance)

    # ---------------------------------------------------------------
    print("=== 4 workers, clean run (the Figure 5 architecture) ===")
    result = solve_parallel(
        spec,
        RuntimeConfig(workers=4, update_nodes=50),
    )
    assert result.cost == reference.cost, "parallel must match sequential"
    print(f"optimum {result.cost} proved={result.optimal} "
          f"in {result.wall_seconds:.2f}s")
    print(f"work allocations:      {result.work_allocations}")
    print(f"checkpoint operations: {result.checkpoint_operations}")
    print(f"nodes explored:        {result.nodes_explored}")
    print(f"redundant exploration: {result.redundant_rate:.2%}")

    # ---------------------------------------------------------------
    print("\n=== 3 workers, one crashes after 2 updates (§4.1) ===")
    result = solve_parallel(
        spec,
        RuntimeConfig(workers=3, update_nodes=50, crash_workers={0: 2}),
    )
    assert result.cost == reference.cost
    print(f"optimum {result.cost} proved={result.optimal} despite "
          f"crash of {result.crashed_workers}")
    print("the dead worker's interval was orphaned at the coordinator "
          "and re-assigned to the survivors.")


if __name__ == "__main__":
    main()
