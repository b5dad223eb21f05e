"""Property tests: batched child kernels == scalar bounds, exactly.

The engine prunes children with bounds produced by the ``*_children``
batch kernels instead of per-node ``lower_bound`` calls.  Its
correctness argument rests on *exact* (not approximate) agreement
between the two, so these tests quantify over randomized instances and
partial schedules and require equality entry for entry.  The end-to-end
half (``solve()`` on both paths) is in ``tests/test_engine_conformance.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ProblemError
from repro.problems.flowshop import (
    BoundData,
    advance_fronts_batch,
    random_instance,
)
from repro.problems.flowshop.makespan import advance_front
from repro.problems.tsp import (
    one_tree_bound,
    one_tree_bound_networkx,
    outgoing_edge_bound,
    outgoing_edge_bound_children,
    random_tsp,
)

PAIR_STRATEGIES = ("adjacent", "adjacent+ends", "all")


@st.composite
def flowshop_node(draw):
    """A random instance plus a random internal node of its tree."""
    jobs = draw(st.integers(3, 9))
    machines = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 10_000))
    instance = random_instance(jobs, machines, seed=seed)
    prefix_len = draw(st.integers(0, jobs - 2))
    prefix = draw(st.permutations(range(jobs)))[:prefix_len]
    strategy = draw(st.sampled_from(PAIR_STRATEGIES))
    return instance, tuple(prefix), strategy


def _node_front_and_remaining(instance, prefix):
    front = np.zeros(instance.machines, dtype=np.int64)
    for job in prefix:
        advance_front(front, instance.processing_times[job], out=front)
    remaining = np.array(
        sorted(set(range(instance.jobs)) - set(prefix)), dtype=np.intp
    )
    return front, remaining


class TestFlowshopKernels:
    @given(flowshop_node())
    @settings(max_examples=60, deadline=None)
    def test_batched_equals_scalar_per_child(self, case):
        instance, prefix, strategy = case
        data = BoundData(instance, pair_strategy=strategy)
        front, remaining = _node_front_and_remaining(instance, prefix)
        fronts = advance_fronts_batch(
            front, instance.processing_times[remaining]
        )
        lb1 = data.one_machine_children(fronts, remaining)
        lb2 = data.two_machine_children(fronts, remaining)
        combined = data.combined_children(fronts, remaining)
        for c in range(remaining.size):
            child_remaining = np.delete(remaining, c)
            child_front = fronts[c]
            assert lb1[c] == data.one_machine(child_front, child_remaining)
            if child_remaining.size and data.pairs:
                assert lb2[c] == data.two_machine(
                    child_front, child_remaining
                )
            assert combined[c] == data.combined(child_front, child_remaining)

    @given(flowshop_node())
    @settings(max_examples=40, deadline=None)
    def test_combined_accepts_prebuilt_p_rem(self, case):
        instance, prefix, strategy = case
        data = BoundData(instance, pair_strategy=strategy)
        front, remaining = _node_front_and_remaining(instance, prefix)
        p_rem = instance.processing_times[remaining]
        fronts = advance_fronts_batch(front, p_rem)
        np.testing.assert_array_equal(
            data.combined_children(fronts, remaining),
            data.combined_children(fronts, remaining, p_rem=p_rem),
        )

    @given(flowshop_node())
    @settings(max_examples=40, deadline=None)
    def test_child_fronts_match_scalar_advance(self, case):
        instance, prefix, _ = case
        front, remaining = _node_front_and_remaining(instance, prefix)
        fronts = advance_fronts_batch(
            front, instance.processing_times[remaining]
        )
        for c, job in enumerate(remaining):
            expected = advance_front(front, instance.processing_times[job])
            np.testing.assert_array_equal(fronts[c], expected)

    def test_single_child_family(self):
        instance = random_instance(4, 3, seed=7)
        data = BoundData(instance)
        front, remaining = _node_front_and_remaining(instance, (0, 1, 2))
        assert remaining.size == 1
        fronts = advance_fronts_batch(
            front, instance.processing_times[remaining]
        )
        # The single child is a leaf-like state: bound == its Cmax.
        assert data.one_machine_children(fronts, remaining)[0] == fronts[0, -1]
        assert data.two_machine_children(fronts, remaining)[0] == fronts[0, -1]
        assert data.combined_children(fronts, remaining)[0] == fronts[0, -1]


class TestTSPKernels:
    @given(
        st.integers(4, 9),
        st.integers(0, 10_000),
        st.integers(0, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_batched_equals_scalar_per_child(self, cities, seed, prefix_len):
        instance = random_tsp(cities, seed=seed)
        prefix_len = min(prefix_len, cities - 3)
        rng = np.random.default_rng(seed)
        others = list(rng.permutation(np.arange(1, cities)))
        path = tuple([0] + [int(c) for c in others[:prefix_len]])
        remaining = tuple(sorted(int(c) for c in others[prefix_len:]))
        cost = sum(
            int(instance.distances[path[i], path[i + 1]])
            for i in range(len(path) - 1)
        )
        batched = outgoing_edge_bound_children(
            instance, path, cost, remaining
        )
        d = instance.distances
        for c, city in enumerate(remaining):
            child_path = path + (city,)
            child_cost = cost + int(d[path[-1], city])
            child_remaining = remaining[:c] + remaining[c + 1 :]
            assert batched[c] == outgoing_edge_bound(
                instance, child_path, child_cost, child_remaining
            )

    def test_rejects_leaf_children(self):
        instance = random_tsp(4, seed=0)
        with pytest.raises(ProblemError):
            outgoing_edge_bound_children(instance, (0, 1, 2), 10, (3,))

    @given(st.integers(5, 10), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_scipy_one_tree_matches_networkx_oracle(self, cities, seed):
        instance = random_tsp(cities, seed=seed)
        for special in range(min(cities, 3)):
            assert one_tree_bound(instance, special) == one_tree_bound_networkx(
                instance, special
            )
