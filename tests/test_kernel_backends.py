"""Property suite: the pool bound kernels == scalar bounds, bitwise.

With no prune hint every pool evaluator must return rows
*bit-identical* to the per-node scalar bounds for every pool width,
because the engine's pruning decisions ride on the returned bounds
verbatim; with ``Problem.prune_at`` set, a staged evaluator may stop
at LB1 on families it has shown dead and nowhere else.  These tests
quantify both at the evaluator level over random instances and
exercise the registry that finds an evaluator by problem type.  The
end-to-end half of the contract — ``solve()`` pooled and unpooled x
pool size against the scalar oracle — lives in
``tests/test_engine_conformance.py``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels import (
    pool_evaluator_for,
    pool_factory_for,
    register_pool_factory,
)
from repro.exceptions import EngineError
from repro.problems.flowshop import FlowShopProblem, random_instance
from repro.problems.flowshop.makespan import advance_front, advance_fronts_pool
from repro.problems.flowshop.pool import FlowShopNumpyPool
from repro.problems.tsp import TSPProblem, random_tsp
from repro.problems.tsp.pool import TSPNumpyPool

PAIR_STRATEGIES = ("adjacent", "adjacent+ends", "all")
BOUNDS = ("lb1", "lb2", "combined")


# ----------------------------------------------------------------------
# Pool boundaries at the evaluator: width 1 (the singleton fast path),
# a handful, a ragged tail.
# ----------------------------------------------------------------------


def _pool_parents(instance, depth, count):
    """``count`` distinct same-depth (front, remaining) parents."""
    import itertools

    fronts, remainings = [], []
    for prefix in itertools.permutations(range(instance.jobs), depth):
        front = np.zeros(instance.machines, dtype=np.int64)
        for job in prefix:
            advance_front(front, instance.processing_times[job], out=front)
        fronts.append(front)
        remainings.append(
            np.array(
                sorted(set(range(instance.jobs)) - set(prefix)),
                dtype=np.intp,
            )
        )
        if len(fronts) == count:
            break
    assert len(fronts) == count
    return np.stack(fronts), np.stack(remainings)


class _FrontState:
    """Just enough state surface for the flowshop pool evaluators."""

    def __init__(self, front, remaining):
        self.front = front
        self.remaining = remaining


class TestPoolBoundaries:
    @pytest.mark.parametrize("n_pool", (1, 4, 7))
    @pytest.mark.parametrize("bound", BOUNDS)
    def test_flowshop_evaluator_widths(self, n_pool, bound):
        instance = random_instance(7, 3, seed=5)
        problem = FlowShopProblem(instance, bound=bound)
        parent_fronts, remainings = _pool_parents(instance, 2, n_pool)
        states = [
            _FrontState(parent_fronts[i], remainings[i])
            for i in range(n_pool)
        ]
        rows = FlowShopNumpyPool(problem)(states, depth=2)
        assert rows is not None and len(rows) == n_pool
        data = problem.bound_data
        for i, state in enumerate(states):
            p_rem = instance.processing_times[state.remaining]
            fronts = advance_fronts_pool(
                state.front[np.newaxis], p_rem[np.newaxis]
            )[0]
            expected = {
                "lb1": data.one_machine_children,
                "lb2": data.two_machine_children,
                "combined": data.combined_children,
            }[bound](fronts, state.remaining)
            np.testing.assert_array_equal(np.asarray(rows[i]), expected)

    @pytest.mark.parametrize("n_pool", (1, 3, 6))
    def test_tsp_evaluator_widths(self, n_pool):
        from repro.problems.tsp.bounds import outgoing_edge_bound_children

        instance = random_tsp(7, seed=9)
        problem = TSPProblem(instance)
        cities = instance.cities
        states = []
        for first in range(1, n_pool + 1):
            path = (0, first)
            remaining = tuple(
                c for c in range(1, cities) if c != first
            )
            cost = int(instance.distances[0, first])
            states.append(
                type(
                    "S",
                    (),
                    {"path": path, "cost": cost, "remaining": remaining},
                )()
            )
        rows = TSPNumpyPool(problem)(states, depth=1)
        assert rows is not None and len(rows) == n_pool
        for i, state in enumerate(states):
            expected = outgoing_edge_bound_children(
                instance, state.path, state.cost, state.remaining
            )
            np.testing.assert_array_equal(np.asarray(rows[i]), expected)


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
        n_pool = min(n_pool, math.perm(jobs, depth))
        parent_fronts, remainings = _pool_parents(instance, depth, n_pool)
        states = [
            _FrontState(parent_fronts[i], remainings[i]) for i in range(n_pool)
        ]
        numpy_pool = FlowShopNumpyPool(problem)
        assert problem.prune_at == math.inf  # no hint yet: exact everywhere
        exact = np.asarray(numpy_pool(states, depth))
        # A threshold at, just below or just above some child's bound.
        problem.prune_at = int(exact.flat[pick % exact.size]) + nudge
        staged_rows = {
            "numpy pool": numpy_pool(states, depth),
            "numpy singleton": [numpy_pool([s], depth)[0] for s in states],
            "per-family": [problem.bound_children(s, depth) for s in states],
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
        # No factory: the engine stays on its exact pre-pool paths.
        assert pool_factory_for("numpy", object) is None
        assert pool_evaluator_for(object()) is None
