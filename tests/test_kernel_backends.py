"""Property suite: pool bound-kernel backends == scalar bounds, bitwise.

With no prune hint every pool evaluator must return rows
*bit-identical* to the per-node scalar bounds for every pool width,
because the engine's pruning decisions ride on the returned bounds
verbatim; with ``Problem.prune_at`` set, a staged evaluator may stop
at LB1 on families it has shown dead and nowhere else.  These tests
quantify both at the evaluator level over random instances and
exercise the registry and the optional-dependency fallback, with and
without numba installed.  The end-to-end half of the contract —
``solve()`` under every backend x pool size against the scalar oracle
— lives in ``tests/test_engine_conformance.py``.
"""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import solve
from repro.core.kernels import (
    KERNEL_BACKEND_CHOICES,
    available_backends,
    backend_names,
    get_backend,
    pool_evaluator_for,
    pool_factory_for,
    register_pool_factory,
)
from repro.core.kernels.numba_backend import NumbaKernel
from repro.exceptions import EngineError
from repro.problems.flowshop import (
    BoundData,
    FlowShopProblem,
    kernels_numba,
    random_instance,
)
from repro.problems.flowshop.makespan import advance_front, advance_fronts_pool
from repro.problems.flowshop.pool import FlowShopNumbaPool, FlowShopNumpyPool
from repro.problems.tsp import TSPProblem, random_tsp
from repro.problems.tsp.pool import TSPNumpyPool

NUMBA_AVAILABLE = get_backend("numba").available()

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
# The plain-Python loop kernels (numba's source of truth) against the
# vectorised numpy pool kernels — runs even where numba is absent, so
# a broken loop cannot hide behind a missing dependency.
# ----------------------------------------------------------------------


@st.composite
def loop_kernel_case(draw):
    jobs = draw(st.integers(4, 7))
    # 12 machines puts these pools on the closed-form LB1 scan, the
    # rest on the machine loop (bounds._head_by_scan).
    machines = draw(st.sampled_from((2, 3, 4, 12)))
    seed = draw(st.integers(0, 10_000))
    strategy = draw(st.sampled_from(PAIR_STRATEGIES))
    depth = draw(st.integers(1, jobs - 2))
    n_pool = draw(st.integers(1, 5))
    return jobs, machines, seed, strategy, depth, n_pool


class TestLoopKernelsMatchNumpy:
    @given(loop_kernel_case())
    @settings(max_examples=40, deadline=None)
    def test_lb1_and_lb2_pools(self, case):
        jobs, machines, seed, strategy, depth, n_pool = case
        instance = random_instance(jobs, machines, seed=seed)
        data = BoundData(instance, pair_strategy=strategy)
        n_pool = min(n_pool, math.perm(jobs, depth))
        parent_fronts, remaining = _pool_parents(instance, depth, n_pool)
        p_rem = instance.processing_times[remaining]
        fronts = advance_fronts_pool(parent_fronts, p_rem)
        r = remaining.shape[1]
        tails_rem = data.tails[remaining]

        out1 = np.empty((n_pool, r), dtype=np.int64)
        kernels_numba.lb1_pool(fronts, p_rem, tails_rem, out1)
        np.testing.assert_array_equal(
            out1, data.one_machine_children_pool(fronts, remaining, p_rem)
        )

        if r >= 2 and data.pairs:
            out2 = np.empty((n_pool, r), dtype=np.int64)
            kernels_numba.lb2_pool(
                fronts,
                remaining,
                data._order_all,
                data._a_all,
                data._b_all,
                data._lag_all,
                data._j_idx,
                data._k_idx,
                tails_rem,
                out2,
            )
            np.testing.assert_array_equal(
                out2, data.two_machine_children_pool(fronts, remaining)
            )

    @pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed")
    @pytest.mark.parametrize("bound", BOUNDS)
    def test_jitted_pool_equals_numpy_pool(self, bound):
        instance = random_instance(7, 4, seed=21)
        problem = FlowShopProblem(instance, bound=bound)
        parent_fronts, remainings = _pool_parents(instance, 2, 5)
        states = [
            _FrontState(parent_fronts[i], remainings[i]) for i in range(5)
        ]
        numpy_rows = FlowShopNumpyPool(problem)(states, depth=2)
        numba_rows = FlowShopNumbaPool(problem)(states, depth=2)
        np.testing.assert_array_equal(
            np.asarray(numpy_rows), np.asarray(numba_rows)
        )


# ----------------------------------------------------------------------
# Staged ``combined``: LB2 only for parents LB1 left a child below
# ``Problem.prune_at``.  Whatever the hint, prune decisions are the
# exact bound's, and every family with a survivor is exact throughout.
# ----------------------------------------------------------------------


def _python_loop_kernels():
    return kernels_numba.PoolKernels(
        kernels_numba.lb1_pool, kernels_numba.lb2_pool
    )


class TestStagedCombinedBound:
    @given(loop_kernel_case(), st.integers(0, 10_000), st.integers(-1, 1))
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
        with mock.patch.object(kernels_numba, "jit_kernels", _python_loop_kernels):
            loop_pool = FlowShopNumbaPool(problem)
        assert problem.prune_at == math.inf  # no hint yet: exact everywhere
        exact = np.asarray(numpy_pool(states, depth))
        # A threshold at, just below or just above some child's bound.
        problem.prune_at = int(exact.flat[pick % exact.size]) + nudge
        staged_rows = {
            "numpy pool": numpy_pool(states, depth),
            "numpy singleton": [numpy_pool([s], depth)[0] for s in states],
            "per-family": [problem.bound_children(s, depth) for s in states],
            "loop kernels": loop_pool(states, depth),
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
        with pytest.raises(EngineError, match="unknown kernel backend"):
            get_backend("jax")

    def test_builtin_names(self):
        assert backend_names() == ["numba", "numpy"]
        assert set(KERNEL_BACKEND_CHOICES) == set(backend_names())

    def test_numpy_always_available(self):
        assert "numpy" in available_backends()

    def test_mro_lookup_covers_subclasses(self):
        class Narrowed(FlowShopProblem):
            pass

        problem = Narrowed(random_instance(4, 2, seed=0))
        evaluator = pool_evaluator_for(problem, "numpy")
        assert isinstance(evaluator, FlowShopNumpyPool)

    def test_unregistered_problem_pools_nothing(self):
        # No factory, no bound_children override: auto mode must leave
        # the engine on its exact pre-pool paths, and the numpy backend
        # must decline rather than invent a per-parent loop.
        assert pool_factory_for("numpy", object) is None
        assert pool_evaluator_for(object(), None) is None
        assert get_backend("numpy").evaluator_for(object()) is None

    def test_engine_rejects_unknown_backend(self):
        instance = random_instance(4, 2, seed=0)
        with pytest.raises(EngineError, match="unknown kernel backend"):
            solve(FlowShopProblem(instance), kernel_backend="jax")


# ----------------------------------------------------------------------
# Optional-dependency fallback: selecting numba must never break a run
# — one RuntimeWarning per process, then the numpy evaluator.
# ----------------------------------------------------------------------


class TestOptionalBackendFallback:
    def _problem(self):
        return FlowShopProblem(random_instance(5, 3, seed=1))

    def test_numba_missing_warns_once_then_numpy(self):
        backend = NumbaKernel()
        backend._probed = False  # force the missing-dep path everywhere
        with pytest.warns(RuntimeWarning, match="numba is not"):
            evaluator = backend.evaluator_for(self._problem())
        assert isinstance(evaluator, FlowShopNumpyPool)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # second resolve stays silent
            backend.evaluator_for(self._problem())

    def test_numba_setup_failure_warns_and_falls_back(self):
        class Boom(FlowShopProblem):
            pass

        def exploding_factory(problem):
            raise RuntimeError("boom")

        register_pool_factory("numba", Boom, exploding_factory)
        backend = NumbaKernel()
        backend._probed = True  # pretend the import side is fine
        with pytest.warns(RuntimeWarning, match="setup failed"):
            evaluator = backend.evaluator_for(
                Boom(random_instance(5, 3, seed=1))
            )
        # Fallback resolves through the numpy registry entry, which the
        # subclass inherits via MRO lookup.
        assert isinstance(evaluator, FlowShopNumpyPool)

    @pytest.mark.skipif(NUMBA_AVAILABLE, reason="numba is installed here")
    def test_jit_kernels_raises_without_numba(self):
        with pytest.raises(RuntimeError, match="numba is not installed"):
            kernels_numba.jit_kernels()
        with pytest.raises(RuntimeError):
            FlowShopNumbaPool(self._problem())
