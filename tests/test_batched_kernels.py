"""Property tests: batched child kernels == scalar bounds, exactly.

The engine prunes children with bounds produced by the ``*_children``
batch kernels instead of per-node ``lower_bound`` calls.  Its
correctness argument rests on *exact* (not approximate) agreement
between the two, so these tests quantify over randomized instances and
partial schedules and require equality entry for entry.  The end-to-end
half (``solve()`` on both paths) is in ``tests/test_engine_conformance.py``.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ProblemError
from repro.problems.flowshop import (
    BoundData,
    advance_fronts_batch,
    advance_fronts_pool,
    bounds,
    random_instance,
)
from repro.problems.flowshop.makespan import advance_front
from repro.problems.tsp import (
    one_tree_bound,
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


@st.composite
def edge_shaped_node(draw):
    """Nodes at the edges of the closed forms: one or two machines, a
    family of one or two children, processing times up to 10**6 (so a
    sentinel that overflowed would show)."""
    jobs = draw(st.integers(2, 8))
    machines = draw(st.sampled_from((1, 2, 3, 5, 12)))
    instance = random_instance(
        jobs,
        machines,
        seed=draw(st.integers(0, 10_000)),
        high=draw(st.sampled_from((9, 99, 10**6))),
    )
    children = draw(st.sampled_from((1, 2, jobs)))
    prefix = draw(st.permutations(range(jobs)))[: jobs - children]
    return instance, tuple(prefix)


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

    @given(edge_shaped_node())
    @settings(max_examples=60, deadline=None)
    def test_child_fronts_match_scalar_advance(self, case):
        """The closed-form fronts, per family and pooled (N = 1), are
        the scalar recurrence's integers."""
        instance, prefix = case
        front, remaining = _node_front_and_remaining(instance, prefix)
        p_rem = instance.processing_times[remaining]
        expected = np.stack([advance_front(front, row) for row in p_rem])
        fronts = advance_fronts_batch(front, p_rem)
        assert fronts.dtype == np.int64
        np.testing.assert_array_equal(fronts, expected)
        np.testing.assert_array_equal(
            advance_fronts_pool(front[np.newaxis], p_rem[np.newaxis])[0],
            expected,
        )

    @pytest.mark.parametrize("scan", (True, False))
    @given(case=edge_shaped_node())
    @settings(max_examples=60, deadline=None)
    def test_lb1_head_forms_match_scalar_oracle(self, scan, case):
        """Both bodies of ``_head_avail`` — the closed-form scan and the
        machine loop, each forced — give ``one_machine``'s value for
        every child, per family and pooled."""
        instance, prefix = case
        data = BoundData(instance)
        front, remaining = _node_front_and_remaining(instance, prefix)
        p_rem = instance.processing_times[remaining]
        fronts = advance_fronts_batch(front, p_rem)
        expected = [
            data.one_machine(fronts[c], np.delete(remaining, c))
            for c in range(remaining.size)
        ]
        with mock.patch.object(bounds, "_head_by_scan", lambda *shape: scan):
            family = data.one_machine_children(fronts, remaining)
            pooled = data.one_machine_children_pool(
                fronts[np.newaxis], remaining[np.newaxis]
            )
        assert family.tolist() == expected
        assert pooled.tolist() == [expected]

    def test_head_form_follows_the_array_about_to_be_built(self):
        assert bounds._head_by_scan(8, 5, 20)  # narrow deep wave: dispatch-bound
        assert not bounds._head_by_scan(64, 47, 20)  # 21 MB temporary
        assert not bounds._head_by_scan(64, 17, 5)  # loop is already short
        assert not any(
            bounds._head_by_scan(1, r, m) for r in (1, 2, 50) for m in (1, 2, 3, 4)
        )

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
    def test_scipy_one_tree_matches_prim_oracle(self, cities, seed):
        instance = random_tsp(cities, seed=seed)
        for special in range(min(cities, 3)):
            assert one_tree_bound(instance, special) == _prim_one_tree(
                instance, special
            )


def _prim_one_tree(instance, special):
    """Textbook 1-tree: Prim's spanning tree over the other cities plus
    the two cheapest edges of ``special``."""
    d = instance.distances
    first, *rest = [v for v in range(instance.cities) if v != special]
    cheapest = {v: int(d[first, v]) for v in rest}
    weight = 0
    while cheapest:
        nearest = min(cheapest, key=cheapest.__getitem__)
        weight += cheapest.pop(nearest)
        for v in cheapest:
            cheapest[v] = min(cheapest[v], int(d[nearest, v]))
    incident = sorted(int(d[special, v]) for v in [first, *rest])
    return weight + incident[0] + incident[1]
