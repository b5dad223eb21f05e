"""Tests for the TSP substrate."""

import itertools

import numpy as np
import pytest

from repro.core import Interval, solve
from repro.core.engine import iter_leaf_costs
from repro.exceptions import ProblemError
from repro.problems.tsp import (
    TSPInstance,
    TSPProblem,
    nearest_neighbour_tour,
    random_tsp,
)


class _ColdTSP(TSPProblem):
    """A TSP that starts every solve cold."""

    def warm_start(self, interval=None):
        return None


def brute_force_tour(inst):
    best = None
    for perm in itertools.permutations(range(1, inst.cities)):
        length = inst.tour_length([0] + list(perm))
        if best is None or length < best:
            best = length
    return best


class TestInstance:
    def test_tour_length_hand_computed(self):
        d = [[0, 1, 2], [1, 0, 3], [2, 3, 0]]
        inst = TSPInstance(d)
        assert inst.tour_length([0, 1, 2]) == 1 + 3 + 2

    def test_asymmetric_rejected(self):
        with pytest.raises(ProblemError):
            TSPInstance([[0, 1, 2], [9, 0, 3], [2, 3, 0]])

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ProblemError):
            TSPInstance([[1, 1, 2], [1, 0, 3], [2, 3, 0]])

    def test_too_few_cities_rejected(self):
        with pytest.raises(ProblemError):
            TSPInstance([[0, 1], [1, 0]])

    def test_invalid_tour_rejected(self):
        inst = random_tsp(5, seed=1)
        with pytest.raises(ProblemError):
            inst.tour_length([0, 1, 2])

    def test_random_tsp_properties(self):
        inst = random_tsp(8, seed=3)
        d = inst.distances
        assert np.array_equal(d, d.T)
        assert not np.diagonal(d).any()
        assert inst.cities == 8

    def test_random_tsp_deterministic(self):
        assert np.array_equal(
            random_tsp(6, seed=5).distances, random_tsp(6, seed=5).distances
        )


class TestProblem:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_optimum_matches_brute_force(self, seed):
        inst = random_tsp(7, seed=seed)
        result = solve(TSPProblem(inst))
        assert result.cost == brute_force_tour(inst)

    def test_solution_is_a_tour_from_zero(self):
        inst = random_tsp(7, seed=4)
        result = solve(TSPProblem(inst))
        assert result.solution[0] == 0
        assert sorted(result.solution) == list(range(7))
        assert inst.tour_length(list(result.solution)) == result.cost

    def test_bound_admissible_at_root(self):
        inst = random_tsp(7, seed=9)
        prob = TSPProblem(inst)
        assert prob.lower_bound(prob.root_state(), 0) <= brute_force_tour(inst)

    def test_tree_shape_excludes_fixed_start(self):
        inst = random_tsp(6, seed=1)
        assert TSPProblem(inst).tree_shape().leaf_depth == 5

    def test_warm_start_with_nearest_neighbour(self):
        inst = random_tsp(8, seed=6)
        tour, length = nearest_neighbour_tour(inst)
        assert sorted(tour) == list(range(8))
        assert TSPProblem(inst).warm_start() == (length, tuple(tour))
        result = solve(TSPProblem(inst))
        cold = solve(_ColdTSP(inst))
        assert result.cost == cold.cost
        assert result.stats.nodes_explored <= cold.stats.nodes_explored

    def test_a_warm_start_left_unbeaten_is_reported_as_a_tour(self):
        inst = random_tsp(7, seed=2)
        tour, length = nearest_neighbour_tour(inst)
        result = solve(TSPProblem(inst))
        assert result.cost == length == brute_force_tour(inst)  # premise
        assert result.stats.improvements == 0
        assert inst.tour_length(list(result.solution)) == result.cost

    def test_a_slice_proves_its_own_optimum(self):
        inst = random_tsp(7, seed=2)
        problem = TSPProblem(inst)
        piece = Interval(100, 300)
        best = min(c for n, c in iter_leaf_costs(problem) if n in piece)
        _, length = nearest_neighbour_tour(inst)
        assert length < best  # premise: the tour lies outside the slice
        assert problem.warm_start(piece) is None
        result = solve(TSPProblem(inst), interval=piece)
        assert result.optimal and result.cost == best
        assert inst.tour_length(list(result.solution)) == best

    def test_nearest_neighbour_at_least_optimum(self):
        inst = random_tsp(7, seed=12)
        _, length = nearest_neighbour_tour(inst)
        assert length >= brute_force_tour(inst)
