#!/usr/bin/env python
"""Ta056 — the paper's challenge instance, regenerated and verified.

The paper solved Taillard's Ta056 (50 jobs x 20 machines) exactly for
the first time: optimum 3679, improving the best-known 3681.  This
example regenerates the instance from Taillard's published time seed,
verifies the paper's printed optimal schedule against it, computes the
root lower bounds and NEH upper bound, and exactly solves truncated
sub-instances to show the cost explosion that made the full instance a
22-CPU-year challenge.

Run:  python examples/challenge_ta056.py
"""

import time

from repro.core import solve
from repro.problems.flowshop import (
    FlowShopInstance,
    FlowShopProblem,
    makespan,
    neh,
    taillard_instance,
)

# §5.3 of the paper, 1-indexed jobs.
PAPER_SCHEDULE = [
    14, 37, 3, 18, 8, 33, 11, 21, 42, 5, 13, 49, 50, 20, 28, 45, 43,
    41, 46, 15, 24, 44, 40, 36, 39, 4, 16, 47, 17, 27, 1, 26, 10, 19,
    32, 25, 30, 7, 2, 31, 23, 6, 48, 22, 29, 34, 9, 35, 38, 12,
]


def main() -> None:
    ta056 = taillard_instance(50, 20, 6)
    print(f"{ta056.name}: {ta056.jobs} jobs x {ta056.machines} machines "
          f"(time seed 1923497586, Taillard 1993)")

    value = makespan(ta056, [j - 1 for j in PAPER_SCHEDULE])
    print(f"\npaper's printed optimal schedule evaluates to {value}")
    print("  paper claims 3679; the printed permutation gives 3680 on the")
    print("  genuine instance — within one unit, and < 3681 (the previous")
    print("  best known), so it still improves the record as claimed;")
    print("  see EXPERIMENTS.md for the likely-preprint-typo discussion.")

    seq, ub = neh(ta056)
    lb = ta056.trivial_lower_bound()
    print(f"\nroot bounds: trivial LB {lb}, NEH UB {ub} "
          f"(optimum 3679 sits in between)")

    print(f"\nsearch space: 50! = {ta056.jobs}! ≈ "
          f"{float(FlowShopProblem(ta056).total_leaves()):.2e} leaves")

    print("\nexactly solving truncations Ta056[:k] "
          "(first k jobs, all 20 machines):")
    print(f"{'k':>3} {'optimum':>8} {'NEH':>6} {'nodes':>10} {'seconds':>8}")
    for k in (6, 7, 8, 9):
        sub = FlowShopInstance(
            ta056.processing_times[:k], name=f"Ta056[:{k}]"
        )
        _, sub_ub = neh(sub)
        t0 = time.perf_counter()
        result = solve(FlowShopProblem(sub))  # starts from its warm start
        dt = time.perf_counter() - t0
        print(f"{k:>3} {result.cost:>8} {sub_ub:>6} "
              f"{result.stats.nodes_explored:>10} {dt:>8.2f}")
    print("\nnode counts grow ~k-fold per added job: the full 50-job proof")
    print("cost the paper 6.5e12 nodes and 22 CPU-years on ~1900 CPUs.")


if __name__ == "__main__":
    main()
