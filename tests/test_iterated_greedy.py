"""Tests for the Iterated Greedy metaheuristic (paper reference [9])."""

import itertools

import pytest

from repro.exceptions import ProblemError
from repro.problems.flowshop import makespan, neh, random_instance
from repro.problems.flowshop.iterated_greedy import IGResult, iterated_greedy


def brute_force_optimum(inst):
    return min(
        makespan(inst, p) for p in itertools.permutations(range(inst.jobs))
    )


class TestBasics:
    def test_result_is_valid_schedule(self):
        inst = random_instance(10, 5, seed=3)
        result = iterated_greedy(inst, iterations=50, seed=1)
        assert sorted(result.sequence) == list(range(10))
        assert makespan(inst, result.sequence) == result.cost

    def test_never_worse_than_neh(self):
        for seed in range(4):
            inst = random_instance(12, 5, seed=seed)
            _, neh_cost = neh(inst)
            result = iterated_greedy(inst, iterations=60, seed=seed)
            assert result.cost <= neh_cost
            assert result.initial_cost == neh_cost

    def test_deterministic_given_seed(self):
        inst = random_instance(10, 4, seed=5)
        a = iterated_greedy(inst, iterations=40, seed=9)
        b = iterated_greedy(inst, iterations=40, seed=9)
        assert a.sequence == b.sequence
        assert a.cost == b.cost

    def test_zero_iterations_returns_initial(self):
        inst = random_instance(8, 4, seed=2)
        _, neh_cost = neh(inst)
        result = iterated_greedy(inst, iterations=0, seed=1)
        assert result.cost == neh_cost

    def test_custom_initial_sequence(self):
        inst = random_instance(8, 4, seed=7)
        start = list(range(8))
        result = iterated_greedy(inst, iterations=30, seed=1, initial=start)
        assert result.initial_cost == makespan(inst, start)
        assert result.cost <= result.initial_cost


class TestQuality:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_reaches_optimum_on_small_instances(self, seed):
        inst = random_instance(7, 4, seed=seed)
        optimum = brute_force_optimum(inst)
        result = iterated_greedy(inst, iterations=150, seed=seed)
        assert result.cost == optimum

    def test_improves_with_more_iterations(self):
        inst = random_instance(14, 5, seed=11)
        short = iterated_greedy(inst, iterations=5, seed=4).cost
        long = iterated_greedy(inst, iterations=200, seed=4).cost
        assert long <= short

    def test_beats_or_matches_neh_on_taillard_class(self):
        from repro.problems.flowshop import known_optimum, taillard_instance

        inst = taillard_instance(20, 5, 1)
        _, neh_cost = neh(inst)
        result = iterated_greedy(inst, iterations=150, seed=3)
        assert result.cost <= neh_cost
        # never below the literature optimum (that would be a bug)
        assert result.cost >= known_optimum(20, 5, 1)


class TestPrefix:
    @pytest.mark.parametrize("prefix", [(), (4,), (2, 7), (9, 0, 5, 3)])
    def test_the_prefix_is_kept_verbatim(self, prefix):
        inst = random_instance(10, 4, seed=21)
        result = iterated_greedy(inst, iterations=30, destruction=3, seed=2, prefix=prefix)
        assert tuple(result.sequence[: len(prefix)]) == prefix
        assert sorted(result.sequence) == list(range(10))
        assert makespan(inst, result.sequence) == result.cost

    @pytest.mark.parametrize("seed", range(6))
    def test_never_worse_than_neh_after_the_same_prefix(self, seed):
        inst = random_instance(11, 5, seed=seed)
        prefix = [(seed + 3 * k) % 11 for k in range(seed % 4)]
        _, neh_cost = neh(inst, prefix)
        result = iterated_greedy(
            inst, iterations=20, destruction=3, temperature_factor=0.0,
            seed=seed, prefix=prefix,
        )
        assert result.initial_cost == neh_cost
        assert result.cost <= neh_cost

    @pytest.mark.parametrize("prefix", [(1, 1), (8,), (-1,)])
    def test_an_invalid_prefix_is_refused_as_neh_refuses_it(self, prefix):
        inst = random_instance(8, 3, seed=4)
        with pytest.raises(ProblemError):
            neh(inst, prefix)
        with pytest.raises(ProblemError):
            iterated_greedy(inst, iterations=5, destruction=1, prefix=prefix)

    def test_a_destruction_beyond_the_free_jobs_is_refused(self):
        inst = random_instance(8, 3, seed=4)
        prefix = (5, 1, 0, 7, 2, 6)  # two jobs left free
        with pytest.raises(ProblemError):
            iterated_greedy(inst, iterations=5, destruction=3, prefix=prefix)
        result = iterated_greedy(inst, iterations=5, destruction=2, prefix=prefix)
        assert tuple(result.sequence[:6]) == prefix

    def test_an_initial_that_does_not_start_with_the_prefix_is_refused(self):
        inst = random_instance(8, 3, seed=4)
        with pytest.raises(ProblemError):
            iterated_greedy(
                inst, iterations=5, destruction=2, initial=list(range(8)), prefix=(3,)
            )


class TestValidation:
    def test_invalid_destruction_size(self):
        inst = random_instance(5, 3, seed=1)
        with pytest.raises(ProblemError):
            iterated_greedy(inst, destruction=0)
        with pytest.raises(ProblemError):
            iterated_greedy(inst, destruction=6)

    def test_negative_iterations(self):
        with pytest.raises(ProblemError):
            iterated_greedy(random_instance(5, 3, seed=1), iterations=-1)

    def test_stats_consistency(self):
        inst = random_instance(10, 4, seed=13)
        result = iterated_greedy(inst, iterations=80, seed=2)
        assert isinstance(result, IGResult)
        assert result.iterations == 80
        assert result.improvements >= 0
        assert result.accepted_worse >= 0
