"""Tests for makespan evaluation, Johnson's algorithm, bounds and NEH."""

import hashlib
import itertools

import numpy as np
import pytest

from repro.exceptions import ProblemError
from repro.problems.flowshop import (
    BoundData,
    FlowShopInstance,
    completion_front,
    johnson_makespan,
    johnson_order,
    machine_pairs,
    makespan,
    neh,
    one_machine_bound,
    partial_makespan,
    random_instance,
    tails_matrix,
    two_machine_bound,
    two_machine_makespan,
)


def brute_force_optimum(inst):
    return min(
        makespan(inst, p) for p in itertools.permutations(range(inst.jobs))
    )


class TestMakespan:
    def test_single_job_single_machine(self):
        inst = FlowShopInstance([[7]])
        assert makespan(inst, [0]) == 7

    def test_hand_computed_two_jobs_two_machines(self):
        # job0: (3, 2), job1: (2, 5).
        inst = FlowShopInstance([[3, 2], [2, 5]])
        # order (0,1): m1 completes 3,5; m2: max(3,0)+2=5, max(5,5)+5=10
        assert makespan(inst, [0, 1]) == 10
        # order (1,0): m1: 2,5; m2: 2+5=7, max(5,7)+2=9
        assert makespan(inst, [1, 0]) == 9

    def test_completion_front_monotone_across_machines(self):
        inst = random_instance(6, 4, seed=3)
        front = completion_front(inst, [2, 0, 5])
        assert all(front[j] < front[j + 1] for j in range(3))

    def test_partial_makespan_empty(self):
        inst = random_instance(4, 3, seed=1)
        assert partial_makespan(inst, []) == 0

    def test_partial_prefix_never_exceeds_full(self):
        inst = random_instance(6, 3, seed=9)
        perm = [3, 1, 4, 0, 5, 2]
        values = [partial_makespan(inst, perm[:k]) for k in range(1, 7)]
        assert values == sorted(values)
        assert values[-1] == makespan(inst, perm)

    def test_non_permutation_rejected(self):
        inst = random_instance(4, 2, seed=1)
        with pytest.raises(ProblemError):
            makespan(inst, [0, 1, 2])
        with pytest.raises(ProblemError):
            makespan(inst, [0, 1, 2, 2])

    def test_repeated_jobs_rejected_in_partial(self):
        inst = random_instance(4, 2, seed=1)
        with pytest.raises(ProblemError):
            partial_makespan(inst, [1, 1])

    def test_tails_matrix_values(self):
        inst = FlowShopInstance([[3, 2, 4]])
        assert tails_matrix(inst).tolist() == [[6, 4, 0]]


class TestJohnson:
    def test_optimal_on_two_machines_exhaustive(self):
        for seed in range(8):
            inst = random_instance(7, 2, seed=seed)
            a = inst.processing_times[:, 0]
            b = inst.processing_times[:, 1]
            value, order = johnson_makespan(a, b)
            assert sorted(order) == list(range(7))
            assert value == brute_force_optimum(inst)

    def test_order_matches_makespan(self):
        a = [3, 5, 1, 6]
        b = [4, 2, 3, 6]
        value, order = johnson_makespan(a, b)
        assert two_machine_makespan(a, b, order) == value

    def test_rule_partition(self):
        # Jobs with a <= b precede jobs with a > b.
        a = [1, 9, 2, 8]
        b = [5, 2, 6, 1]
        order = johnson_order(a, b)
        boundary = [a[i] <= b[i] for i in order]
        assert boundary == sorted(boundary, reverse=True)

    def test_lags_delay_second_machine(self):
        a = [2, 2]
        b = [2, 2]
        no_lag = two_machine_makespan(a, b, [0, 1])
        lagged = two_machine_makespan(a, b, [0, 1], lags=[10, 0])
        assert lagged >= no_lag
        assert lagged == 2 + 10 + 2 + 2  # job0 path dominates

    def test_mismatched_vectors_rejected(self):
        with pytest.raises(ValueError):
            johnson_order([1, 2], [1, 2, 3])

    def test_with_lags_still_a_permutation(self):
        value, order = johnson_makespan([3, 1, 4], [2, 2, 2], lags=[5, 0, 1])
        assert sorted(order) == [0, 1, 2]


class TestBounds:
    @pytest.mark.parametrize("seed", range(6))
    def test_root_bounds_admissible(self, seed):
        inst = random_instance(6, 4, seed=seed)
        optimum = brute_force_optimum(inst)
        front = [0] * 4
        remaining = range(6)
        assert one_machine_bound(inst, front, remaining) <= optimum
        assert two_machine_bound(inst, front, remaining) <= optimum

    @pytest.mark.parametrize("seed", range(4))
    def test_bounds_admissible_at_every_node(self, seed):
        # At each partial schedule, LB must not exceed the best full
        # completion of that prefix.
        inst = random_instance(5, 3, seed=seed)
        data = BoundData(inst, pair_strategy="all")
        jobs = list(range(5))
        for prefix_len in range(5):
            for prefix in itertools.permutations(jobs, prefix_len):
                rest = [j for j in jobs if j not in prefix]
                best_completion = min(
                    makespan(inst, list(prefix) + list(tail))
                    for tail in itertools.permutations(rest)
                )
                front = completion_front(inst, prefix)
                rem = np.array(rest, dtype=np.intp)
                assert data.one_machine(front, rem) <= best_completion
                assert data.two_machine(front, rem) <= best_completion
                assert data.combined(front, rem) <= best_completion

    def test_two_machine_dominates_on_two_machines(self):
        # On an actual 2-machine instance LB2 at the root equals the
        # optimum (Johnson solves it exactly).
        inst = random_instance(6, 2, seed=11)
        optimum = brute_force_optimum(inst)
        assert two_machine_bound(inst, [0, 0], range(6)) == optimum

    def test_bound_with_empty_remaining_is_makespan(self):
        inst = random_instance(4, 3, seed=2)
        perm = [2, 0, 3, 1]
        front = completion_front(inst, perm)
        data = BoundData(inst)
        empty = np.array([], dtype=np.intp)
        assert data.one_machine(front, empty) == makespan(inst, perm)
        assert data.combined(front, empty) == makespan(inst, perm)

    def test_bounds_at_least_trivial(self):
        inst = random_instance(10, 5, seed=4)
        data = BoundData(inst, pair_strategy="all")
        front = np.zeros(5, dtype=np.int64)
        rem = np.arange(10, dtype=np.intp)
        assert data.one_machine(front, rem) >= inst.trivial_lower_bound()

    def test_machine_pairs_strategies(self):
        assert machine_pairs(4, "adjacent") == [(0, 1), (1, 2), (2, 3)]
        assert (0, 3) in machine_pairs(4, "adjacent+ends")
        assert len(machine_pairs(5, "all")) == 10
        assert machine_pairs(1) == []
        assert machine_pairs(2, "adjacent+ends") == [(0, 1)]

    def test_unknown_pair_strategy_rejected(self):
        with pytest.raises(ProblemError):
            machine_pairs(4, "bogus")


class TestNEH:
    def test_neh_is_a_permutation(self):
        inst = random_instance(9, 4, seed=5)
        seq, value = neh(inst)
        assert sorted(seq) == list(range(9))
        assert value == makespan(inst, seq)

    def test_neh_at_least_optimum(self):
        for seed in range(5):
            inst = random_instance(6, 3, seed=seed)
            _, value = neh(inst)
            assert value >= brute_force_optimum(inst)

    def test_neh_close_to_optimum_small(self):
        # NEH is typically within a few percent on small instances.
        gaps = []
        for seed in range(5):
            inst = random_instance(7, 4, seed=100 + seed)
            _, value = neh(inst)
            opt = brute_force_optimum(inst)
            gaps.append(value / opt)
        assert max(gaps) < 1.15

    def test_neh_single_job(self):
        inst = FlowShopInstance([[4, 5, 6]])
        seq, value = neh(inst)
        assert seq == [0]
        assert value == 15

    def test_the_empty_prefix_is_the_pinned_classic_neh(self):
        # Classic NEH's sequences and makespans over a 75-instance
        # sweep, pinned as a digest when NEH moved from numpy scalars
        # to Python ints: the empty prefix must not change them.
        sweep = [
            neh(random_instance(jobs, machines, seed=seed), prefix=())
            for jobs in (2, 5, 9, 14, 20)
            for machines in (1, 3, 5, 10, 20)
            for seed in range(3)
        ]
        assert hashlib.sha256(repr(sweep).encode()).hexdigest() == (
            "b2e78ed1c3134d5bdf87abbf15d948b13fc785861797fdc042ae244bec729d5b"
        )
        assert neh(random_instance(9, 5, seed=3)) == ([2, 4, 5, 8, 3, 7, 6, 1, 0], 670)
        assert neh(random_instance(12, 5, seed=7)) == (
            [10, 3, 4, 8, 5, 7, 6, 0, 2, 11, 9, 1], 916
        )

    @pytest.mark.parametrize("prefix", [(3,), (6, 0, 2), (5, 4, 3, 2, 1, 0, 6)])
    def test_a_prefix_is_kept_verbatim(self, prefix):
        inst = random_instance(7, 4, seed=11)
        seq, value = neh(inst, prefix=prefix)
        assert tuple(seq[: len(prefix)]) == prefix
        assert sorted(seq) == list(range(7))
        assert value == makespan(inst, seq)
        # No completion below the prefix beats the best one.
        rest = [job for job in range(7) if job not in prefix]
        assert value >= min(
            makespan(inst, prefix + tail) for tail in itertools.permutations(rest)
        )

    @pytest.mark.parametrize("prefix", [(1, 1), (7,), (-1,)])
    def test_a_prefix_that_is_not_a_partial_permutation_is_refused(self, prefix):
        with pytest.raises(ProblemError):
            neh(random_instance(7, 4, seed=11), prefix=prefix)

    def test_insertion_scan_matches_naive(self):
        from repro.problems.flowshop import insertion_best_position

        inst = random_instance(7, 3, seed=8)
        sequence = [4, 1, 6, 2]
        job = 0
        pos, value = insertion_best_position(inst, list(sequence), job)
        naive = min(
            (
                partial_makespan(
                    inst, sequence[:q] + [job] + sequence[q:]
                ),
                q,
            )
            for q in range(len(sequence) + 1)
        )
        assert (value, pos) == naive
