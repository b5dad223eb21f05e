#!/usr/bin/env python
"""Quickstart: exactly solve a flow-shop instance with proof.

The 60-second tour of the library: build an instance, run the
interval-coded Branch and Bound from its warm start (NEH polished by
Iterated Greedy), and check the proof of optimality.

Run:  python examples/quickstart.py
"""

from repro.core import solve
from repro.problems.flowshop import (
    FlowShopProblem,
    makespan,
    random_instance,
)


def main() -> None:
    # A 10-job, 5-machine instance from Taillard's U[1, 99] distribution.
    instance = random_instance(jobs=10, machines=5, seed=2024)
    print(f"instance: {instance.name}")
    print(f"trivial lower bound: {instance.trivial_lower_bound()}")

    # The problem's warm start is NEH polished by a short Iterated
    # Greedy: solve() starts from its makespan (the paper seeded Ta056
    # with the best-known metaheuristic solution the same way).
    problem = FlowShopProblem(instance, bound="combined")
    upper_bound, schedule = problem.warm_start()
    print(f"warm-start schedule: {list(schedule)}  (makespan {upper_bound})")

    # Exact resolution: DFS B&B over the permutation tree with the
    # combined one-machine/two-machine lower bound.
    result = solve(problem)

    print(f"\noptimal makespan: {result.cost}  (proof: {result.optimal})")
    print(f"optimal schedule: {list(result.solution)}")
    print(f"nodes explored:   {result.stats.nodes_explored}")
    print(f"nodes pruned:     {result.stats.nodes_pruned}")
    gap = (upper_bound - result.cost) / result.cost
    print(f"warm-start optimality gap: {gap:.2%}")

    # sanity: re-evaluate the returned schedule
    assert makespan(instance, result.solution) == result.cost
    print("\nschedule re-evaluated: consistent ✓")


if __name__ == "__main__":
    main()
