"""Property suite: the pool bound kernels == scalar bounds, exactly.

The engine bounds every wave of parents — one parent or many — with
the problem's pool evaluator, and prunes children on the returned
bounds verbatim.  Its correctness argument rests on *exact* (not
approximate) agreement with the per-node scalar bounds, so these tests
quantify over random instances and waves of 1, 4 and 7 parents and
compare every row, entry for entry, with the scalar bound of the child
``branch`` builds.  With ``Problem.prune_at`` set, a staged evaluator
may stop at LB1 on families it has shown dead and nowhere else.  The
registry that finds an evaluator by problem type is exercised too.
The end-to-end half of the contract — ``solve()`` pooled x pool size
against the scalar oracle — lives in ``tests/test_engine_conformance.py``.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels import (
    pool_evaluator_for,
    pool_factory_for,
    register_pool_factory,
)
from repro.exceptions import EngineError, ProblemError
from repro.problems.flowshop import (
    FlowShopProblem,
    advance_fronts_batch,
    advance_fronts_pool,
    bounds,
    random_instance,
)
from repro.problems.flowshop.makespan import advance_front
from repro.problems.flowshop.pool import FlowShopNumpyPool
from repro.problems.tsp import (
    TSPProblem,
    one_tree_bound,
    outgoing_edge_bound,
    outgoing_edge_bound_children_pool,
    random_tsp,
)
from repro.problems.tsp.pool import TSPNumpyPool

PAIR_STRATEGIES = ("adjacent", "adjacent+ends", "all")
BOUNDS = ("lb1", "lb2", "combined")
WIDTHS = (1, 4, 7)


def _wave(problem, depth, count):
    """The first ``count`` nodes at ``depth``, left to right (fewer
    when the level holds fewer)."""
    level = [problem.root_state()]
    for d in range(depth):
        level = [child for state in level for child in problem.branch(state, d)]
        del level[count:]
    return level


def _scalar(problem):
    """The scalar bound the problem's pool rows must reproduce."""
    data = problem.bound_data
    return {
        "lb1": data.one_machine,
        "lb2": data.two_machine,
        "combined": data.combined,
    }[problem.bound]


def _assert_rows_match_scalar(problem, states, depth, rows):
    """Row ``n`` is the scalar bound of every child ``branch`` builds
    for ``states[n]`` (branching consumes the fronts the evaluator
    parked, so the handoff is checked as well)."""
    scalar = _scalar(problem)
    assert rows is not None and len(rows) == len(states)
    for state, row in zip(states, rows):
        children = problem.branch(state, depth)
        expected = [scalar(child.front, child.remaining) for child in children]
        assert np.asarray(row).tolist() == expected


def _assert_tsp_rows_match_scalar(problem, states, depth, rows):
    """Row ``n`` is :func:`outgoing_edge_bound` of every child
    ``branch`` builds for ``states[n]``."""
    assert len(rows) == len(states)
    for state, row in zip(states, rows):
        expected = [
            outgoing_edge_bound(
                problem.instance, child.path, child.cost, child.remaining
            )
            for child in problem.branch(state, depth)
        ]
        assert row.tolist() == expected


@st.composite
def flowshop_wave(draw):
    """A random instance plus a depth and a wave width."""
    jobs = draw(st.integers(3, 8))
    machines = draw(st.integers(1, 5))
    instance = random_instance(jobs, machines, seed=draw(st.integers(0, 10_000)))
    depth = draw(st.integers(0, jobs - 2))
    return instance, draw(st.sampled_from(PAIR_STRATEGIES)), depth, draw(
        st.sampled_from(WIDTHS)
    )


@st.composite
def edge_shaped_wave(draw):
    """Waves at the edges of the closed forms: one or two machines, a
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
    return instance, jobs - children, draw(st.sampled_from(WIDTHS))


def _pool_arrays(problem, states):
    """``(fronts, remaining, p_rem)`` of a wave, as the evaluator builds them."""
    remaining = np.stack([state.remaining for state in states])
    p_rem = problem.bound_data.p[remaining]
    fronts = advance_fronts_pool(
        np.stack([state.front for state in states]), p_rem
    )
    return fronts, remaining, p_rem


class TestFlowshopKernels:
    @given(case=flowshop_wave())
    @settings(max_examples=60, deadline=None)
    def test_batched_equals_scalar_per_child(self, case):
        instance, strategy, depth, width = case
        for bound in BOUNDS:
            problem = FlowShopProblem(instance, bound=bound, pair_strategy=strategy)
            states = _wave(problem, depth, width)
            rows = FlowShopNumpyPool(problem)(states, depth)
            _assert_rows_match_scalar(problem, states, depth, rows)

    @given(case=flowshop_wave())
    @settings(max_examples=40, deadline=None)
    def test_combined_accepts_prebuilt_p_rem(self, case):
        instance, strategy, depth, width = case
        problem = FlowShopProblem(instance, pair_strategy=strategy)
        fronts, remaining, p_rem = _pool_arrays(
            problem, _wave(problem, depth, width)
        )
        data = problem.bound_data
        np.testing.assert_array_equal(
            data.combined_children_pool(fronts, remaining),
            data.combined_children_pool(fronts, remaining, p_rem=p_rem),
        )

    @given(case=edge_shaped_wave())
    @settings(max_examples=60, deadline=None)
    def test_child_fronts_match_scalar_advance(self, case):
        """The closed-form fronts, per family and pooled, are the
        scalar recurrence's integers."""
        instance, depth, width = case
        problem = FlowShopProblem(instance)
        states = _wave(problem, depth, width)
        fronts, _, p_rem = _pool_arrays(problem, states)
        for n, state in enumerate(states):
            expected = np.stack(
                [advance_front(state.front, row) for row in p_rem[n]]
            )
            family = advance_fronts_batch(state.front, p_rem[n])
            assert family.dtype == fronts.dtype == np.int64
            np.testing.assert_array_equal(family, expected)
            np.testing.assert_array_equal(fronts[n], expected)

    @pytest.mark.parametrize("scan", (True, False))
    @given(case=edge_shaped_wave())
    @settings(max_examples=60, deadline=None)
    def test_lb1_head_forms_match_scalar_oracle(self, scan, case):
        """Both bodies of ``_head_avail`` — the closed-form scan and the
        machine loop, each forced — give ``one_machine``'s value for
        every child of every parent."""
        instance, depth, width = case
        problem = FlowShopProblem(instance, bound="lb1")
        states = _wave(problem, depth, width)
        with mock.patch.object(bounds, "_head_by_scan", lambda *shape: scan):
            rows = FlowShopNumpyPool(problem)(states, depth)
        _assert_rows_match_scalar(problem, states, depth, rows)

    def test_head_form_follows_the_array_about_to_be_built(self):
        assert bounds._head_by_scan(8, 5, 20)  # narrow deep wave: dispatch-bound
        assert not bounds._head_by_scan(64, 47, 20)  # 21 MB temporary
        assert not bounds._head_by_scan(64, 17, 5)  # loop is already short
        assert not any(
            bounds._head_by_scan(1, r, m) for r in (1, 2, 50) for m in (1, 2, 3, 4)
        )

    def test_single_child_family(self):
        instance = random_instance(4, 3, seed=7)
        problem = FlowShopProblem(instance)
        data = problem.bound_data
        for width in WIDTHS:
            fronts, remaining, p_rem = _pool_arrays(problem, _wave(problem, 3, width))
            assert remaining.shape == (width, 1)
            # The single child is a leaf-like state: bound == its Cmax.
            cmax = fronts[:, :, -1]
            np.testing.assert_array_equal(
                data.one_machine_children_pool(fronts, remaining, p_rem), cmax
            )
            np.testing.assert_array_equal(
                data.two_machine_children_pool(fronts, remaining), cmax
            )
            np.testing.assert_array_equal(
                data.combined_children_pool(fronts, remaining, p_rem), cmax
            )


class TestPoolBoundaries:
    """The evaluators at pool widths of one, a handful, a ragged tail."""

    @pytest.mark.parametrize("n_pool", WIDTHS)
    @pytest.mark.parametrize("bound", BOUNDS)
    def test_flowshop_evaluator_widths(self, n_pool, bound):
        problem = FlowShopProblem(random_instance(7, 3, seed=5), bound=bound)
        states = _wave(problem, 2, n_pool)
        assert len(states) == n_pool
        rows = FlowShopNumpyPool(problem)(states, depth=2)
        _assert_rows_match_scalar(problem, states, 2, rows)

    @pytest.mark.parametrize("n_pool", (1, 3, 6))
    def test_tsp_evaluator_widths(self, n_pool):
        instance = random_tsp(7, seed=9)
        problem = TSPProblem(instance)
        states = _wave(problem, 1, n_pool)
        assert len(states) == n_pool
        rows = TSPNumpyPool(problem)(states, depth=1)
        _assert_tsp_rows_match_scalar(problem, states, 1, rows)


class TestTSPKernels:
    @given(
        st.integers(4, 9),
        st.integers(0, 10_000),
        st.integers(0, 6),
        st.sampled_from(WIDTHS),
    )
    @settings(max_examples=60, deadline=None)
    def test_batched_equals_scalar_per_child(self, cities, seed, depth, width):
        instance = random_tsp(cities, seed=seed)
        problem = TSPProblem(instance)
        depth = min(depth, cities - 3)  # children that are not leaves
        states = _wave(problem, depth, width)
        rows = TSPNumpyPool(problem)(states, depth)
        _assert_tsp_rows_match_scalar(problem, states, depth, rows)

    def test_rejects_leaf_children(self):
        instance = random_tsp(4, seed=0)
        with pytest.raises(ProblemError):
            outgoing_edge_bound_children_pool(
                instance, [2], [10], [0], np.array([[3]])
            )

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


# ----------------------------------------------------------------------
# Staged ``combined``: LB2 only for parents LB1 left a child below
# ``Problem.prune_at``.  Whatever the hint, prune decisions are the
# exact bound's, and every family with a survivor is exact throughout.
# ----------------------------------------------------------------------


@st.composite
def pool_case(draw):
    jobs = draw(st.integers(4, 7))
    # 12 machines puts these pools on the closed-form LB1 scan, the
    # rest on the machine loop (bounds._head_by_scan).
    machines = draw(st.sampled_from((2, 3, 4, 12)))
    seed = draw(st.integers(0, 10_000))
    strategy = draw(st.sampled_from(PAIR_STRATEGIES))
    depth = draw(st.integers(1, jobs - 2))
    n_pool = draw(st.integers(1, 5))
    return jobs, machines, seed, strategy, depth, n_pool


class TestStagedCombinedBound:
    @given(pool_case(), st.integers(0, 10_000), st.integers(-1, 1))
    @settings(max_examples=60, deadline=None)
    def test_every_evaluator_only_weakens_dead_families(self, case, pick, nudge):
        jobs, machines, seed, strategy, depth, n_pool = case
        instance = random_instance(jobs, machines, seed=seed)
        problem = FlowShopProblem(instance, pair_strategy=strategy)
        states = _wave(problem, depth, n_pool)
        numpy_pool = FlowShopNumpyPool(problem)
        assert problem.prune_at == math.inf  # no hint yet: exact everywhere
        exact = np.asarray(numpy_pool(states, depth))
        # A threshold at, just below or just above some child's bound.
        problem.prune_at = int(exact.flat[pick % exact.size]) + nudge
        staged_rows = {
            "numpy pool": numpy_pool(states, depth),
            "numpy singleton": [numpy_pool([s], depth)[0] for s in states],
        }
        live = (exact < problem.prune_at).any(axis=1)
        for name, rows in staged_rows.items():
            staged = np.asarray(rows)
            np.testing.assert_array_equal(
                staged >= problem.prune_at, exact >= problem.prune_at, name
            )
            np.testing.assert_array_equal(staged[live], exact[live], name)
            assert (staged <= exact).all(), name  # still admissible


# ----------------------------------------------------------------------
# Registry behaviour.
# ----------------------------------------------------------------------


class TestRegistry:
    def test_unknown_backend_raises(self):
        # numpy is the one kernel tier; a factory filed under any other
        # name would never be found, so registering one is an error.
        with pytest.raises(EngineError, match="unknown kernel tier"):
            register_pool_factory("numba", FlowShopProblem, FlowShopNumpyPool)
        with pytest.raises(EngineError, match="unknown kernel tier"):
            pool_factory_for("jax", FlowShopProblem)

    def test_numpy_always_available(self):
        # Importing a problem package files its numpy kernels: nothing
        # to install, no fallback to take.
        flowshop = FlowShopProblem(random_instance(4, 2, seed=0))
        tsp = TSPProblem(random_tsp(4, seed=0))
        assert isinstance(pool_evaluator_for(flowshop), FlowShopNumpyPool)
        assert isinstance(pool_evaluator_for(tsp), TSPNumpyPool)

    def test_mro_lookup_covers_subclasses(self):
        class Narrowed(FlowShopProblem):
            pass

        problem = Narrowed(random_instance(4, 2, seed=0))
        evaluator = pool_evaluator_for(problem)
        assert isinstance(evaluator, FlowShopNumpyPool)

    def test_unregistered_problem_pools_nothing(self):
        # No factory: the engine stays on its exact per-node path.
        assert pool_factory_for("numpy", object) is None
        assert pool_evaluator_for(object()) is None
