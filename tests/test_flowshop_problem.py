"""Integration tests: FlowShopProblem driven by the interval B&B engine."""

import itertools

import pytest

from repro.core import Interval, IntervalExplorer, solve
from repro.exceptions import ProblemError
from repro.problems.flowshop import (
    FlowShopProblem,
    makespan,
    neh,
    random_instance,
)


def brute_force_optimum(inst):
    return min(
        makespan(inst, p) for p in itertools.permutations(range(inst.jobs))
    )


class TestExactness:
    @pytest.mark.parametrize("bound", ["lb1", "lb2", "combined"])
    def test_optimum_matches_brute_force(self, bound):
        inst = random_instance(7, 3, seed=21)
        result = solve(FlowShopProblem(inst, bound=bound))
        assert result.cost == brute_force_optimum(inst)

    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_multiple_instances(self, seed):
        inst = random_instance(6, 4, seed=seed)
        result = solve(FlowShopProblem(inst))
        assert result.cost == brute_force_optimum(inst)
        assert makespan(inst, result.solution) == result.cost

    def test_solution_is_permutation(self):
        inst = random_instance(7, 4, seed=41)
        result = solve(FlowShopProblem(inst))
        assert sorted(result.solution) == list(range(7))

    def test_neh_warm_start_agrees(self):
        inst = random_instance(8, 4, seed=51)
        seq, ub = neh(inst)
        cold = IntervalExplorer(FlowShopProblem(inst))  # no warm start
        cold.run()
        warm = solve(FlowShopProblem(inst))
        explicit = solve(
            FlowShopProblem(inst), initial_upper_bound=ub, initial_solution=tuple(seq)
        )
        assert warm.cost == cold.incumbent.cost
        # solve() starts from its own warm start (never worse than NEH),
        # so an explicit NEH seed changes nothing; it prunes more for it.
        assert vars(warm.stats) == vars(explicit.stats)
        assert warm.stats.nodes_explored < cold.stats.nodes_explored


class TestBoundStrength:
    def test_stronger_bound_explores_fewer_nodes(self):
        inst = random_instance(8, 5, seed=61)
        weak = solve(FlowShopProblem(inst, bound="lb1")).stats.nodes_explored
        strong = solve(
            FlowShopProblem(inst, bound="combined", pair_strategy="all")
        ).stats.nodes_explored
        assert strong <= weak

    def test_unknown_bound_rejected(self):
        with pytest.raises(ProblemError):
            FlowShopProblem(random_instance(4, 2, seed=1), bound="nope")


class TestIntervalSemantics:
    def test_partitioned_exploration_finds_global_optimum(self):
        # Simulates two workers with disjoint intervals.
        inst = random_instance(7, 3, seed=71)
        prob = FlowShopProblem(inst)
        total = prob.total_leaves()
        expected = solve(prob).cost
        thirds = [
            Interval(0, total // 3),
            Interval(total // 3, 2 * total // 3),
            Interval(2 * total // 3, total),
        ]
        best = min(solve(prob, interval=iv).cost for iv in thirds)
        assert best == expected

    def test_resume_mid_instance(self):
        inst = random_instance(7, 3, seed=81)
        prob = FlowShopProblem(inst)
        explorer = IntervalExplorer(prob)
        explorer.step(200)
        checkpoint = explorer.remaining_interval()
        # Resume in a fresh explorer sharing the incumbent.
        resumed = IntervalExplorer(
            prob, checkpoint, incumbent=explorer.incumbent
        )
        resumed.run()
        assert resumed.incumbent.cost == solve(prob).cost

    def test_state_branching_is_deterministic(self):
        # Two independent walks must produce identical child orders.
        inst = random_instance(6, 3, seed=91)
        prob = FlowShopProblem(inst)
        a = prob.branch(prob.root_state(), 0)
        b = prob.branch(prob.root_state(), 0)
        assert [s.scheduled for s in a] == [s.scheduled for s in b]
        # rank order is ascending job id at the root
        assert [s.scheduled[0] for s in a] == list(range(6))
