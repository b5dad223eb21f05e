"""Property tests for the PR 3 coordination hot-path machinery.

Two pieces get pinned down here, independently of any OS process:

* :class:`~repro.grid.runtime.bbprocess.AdaptiveSlicer` must converge
  toward its wall-clock period target under any (steady) throughput,
  re-converge after a throughput shift, and never move faster than its
  growth cap or outside its clamp range.
* The engine's ``bound_provider`` hook must tighten pruning mid-slice
  without ever changing the proved optimum, and end a slice only when
  asked to, only at a poll.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Interval, solve
from repro.core.engine import IntervalExplorer
from repro.grid.runtime import AdaptiveSlicer
from repro.problems.flowshop import FlowShopProblem, random_instance


class TestAdaptiveSlicer:
    @given(
        rate=st.floats(1e2, 1e6),
        target=st.floats(0.05, 1.0),
        initial=st.integers(1, 10_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_converges_to_period_target(self, rate, target, initial):
        """With steady throughput the slice settles at rate × target."""
        slicer = AdaptiveSlicer(
            initial, target_period=target, min_nodes=1, max_nodes=1 << 40
        )
        for _ in range(60):
            nodes = slicer.next_slice()
            slicer.observe(nodes, nodes / rate)
        period = slicer.next_slice() / rate
        # converged: the implied update period is within 10% of target
        # (int truncation costs at most one node = 1/rate seconds)
        assert abs(period - target) <= 0.1 * target + 1.0 / rate

    @given(
        rate=st.floats(1e3, 1e5),
        shift=st.floats(0.1, 10.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_reconverges_after_throughput_shift(self, rate, shift):
        """A worker that speeds up or slows down re-finds the cadence."""
        target = 0.2
        slicer = AdaptiveSlicer(
            500, target_period=target, min_nodes=1, max_nodes=1 << 40
        )
        for _ in range(40):
            nodes = slicer.next_slice()
            slicer.observe(nodes, nodes / rate)
        new_rate = rate * shift
        for _ in range(60):
            nodes = slicer.next_slice()
            slicer.observe(nodes, nodes / new_rate)
        period = slicer.next_slice() / new_rate
        assert abs(period - target) <= 0.1 * target + 1.0 / new_rate

    @given(
        observations=st.lists(
            st.tuples(st.integers(1, 10_000), st.floats(1e-6, 10.0)),
            max_size=50,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_growth_cap_and_clamps_always_hold(self, observations):
        """No single observation moves the budget more than 2× (_MAX_GROWTH)."""
        slicer = AdaptiveSlicer(
            200, target_period=0.25, min_nodes=64, max_nodes=4096
        )
        for nodes, seconds in observations:
            before = slicer.next_slice()
            slicer.observe(nodes, seconds)
            after = slicer.next_slice()
            assert 64 <= after <= 4096
            assert after <= math.ceil(before * 2.0)
            assert after >= math.floor(before / 2.0)

    def test_no_target_means_fixed_slices(self):
        slicer = AdaptiveSlicer(300, target_period=None)
        for _ in range(10):
            slicer.observe(300, 1e-4)  # blazing fast: would grow if adaptive
        assert slicer.next_slice() == 300

    def test_fixed_mode_honors_sizes_below_min_nodes(self):
        # The [min_nodes, max_nodes] clamp only bounds adaptive steps;
        # a fixed-size slicer must run exactly the requested count, so
        # e.g. chaos configs with update_nodes=50 keep their fault
        # schedules keyed on update counts.
        slicer = AdaptiveSlicer(50, target_period=None, min_nodes=64)
        slicer.observe(50, 1e-4)
        assert slicer.next_slice() == 50

    def test_degenerate_observations_ignored(self):
        slicer = AdaptiveSlicer(200, target_period=0.25, min_nodes=64)
        slicer.observe(0, 1.0)
        slicer.observe(100, 0.0)
        assert slicer.next_slice() == 200
        assert slicer.rate is None


def _cold_run(instance):
    """A whole-tree run with no warm start, as the explorers below make."""
    explorer = IntervalExplorer(FlowShopProblem(instance))
    explorer.run()
    return explorer


class TestEngineBoundProvider:
    def test_mid_slice_refresh_prunes_but_preserves_optimum(self):
        instance = random_instance(7, 3, seed=5)
        problem = FlowShopProblem(instance)
        baseline = _cold_run(instance)
        optimum = baseline.incumbent.cost

        # An oracle bound that becomes available mid-exploration: the
        # provider serves the true optimum from the start.
        polls = {"count": 0}

        def provider():
            polls["count"] += 1
            return optimum

        explorer = IntervalExplorer(
            FlowShopProblem(instance),
            Interval(0, problem.total_leaves()),
            bound_provider=provider,
            bound_poll_nodes=16,
        )
        explorer.run()
        assert polls["count"] > 0
        assert explorer.incumbent.cost == optimum
        # pruning can only get tighter with the oracle bound installed
        assert (
            explorer.stats.nodes_explored <= baseline.stats.nodes_explored
        )

    def test_provider_with_inf_changes_nothing(self):
        instance = random_instance(6, 3, seed=9)
        plain = _cold_run(instance)
        explorer = IntervalExplorer(
            FlowShopProblem(instance),
            bound_provider=lambda: math.inf,
            bound_poll_nodes=1,
        )
        explorer.run()
        assert explorer.incumbent.cost == plain.incumbent.cost
        assert vars(explorer.stats) == vars(plain.stats)

    def test_yield_request_is_honoured_only_at_poll_points(self):
        instance = random_instance(8, 3, seed=5)
        polled_at = []
        improved_at = []

        def provider():
            polled_at.append(explorer.stats.nodes_explored)
            return math.inf

        def on_improvement(cost, solution):
            # Asked for between two polls: the slice runs on to the next.
            improved_at.append(explorer.stats.nodes_explored)
            explorer.yield_at_poll()

        explorer = IntervalExplorer(
            FlowShopProblem(instance),
            on_improvement=on_improvement,
            bound_provider=provider,
            bound_poll_nodes=16,
            pool_size=1,
        )
        assert explorer.step(0).nodes_processed == 0  # no poll, no nodes
        report = explorer.step(10_000)
        assert improved_at and not report.finished
        # It returned at a poll, the first one after the request ...
        assert explorer.stats.nodes_explored == polled_at[-1]
        assert polled_at[-2] < improved_at[0] <= polled_at[-1]
        # ... which is one poll period (plus at most one family) later.
        assert polled_at[-1] - polled_at[-2] <= 16 + instance.jobs
        # The request is spent: the next step runs to its own end.
        assert polled_at[0] == 0  # a step polls on entry
        before = len(polled_at)
        explorer.step(40)
        assert len(polled_at) > before + 1

    def test_provider_that_yields_ends_the_slice_at_that_poll(self):
        instance = random_instance(8, 3, seed=5)
        calls = {"n": 0}

        def provider():
            calls["n"] += 1
            if calls["n"] == 3:
                explorer.yield_at_poll()
            return math.inf

        explorer = IntervalExplorer(
            FlowShopProblem(instance),
            bound_provider=provider,
            bound_poll_nodes=32,
        )
        report = explorer.step(10_000)
        assert calls["n"] == 3 and not report.finished
        assert 64 <= report.nodes_processed <= 64 + 2 * 8 * 64
        plain = solve(FlowShopProblem(instance))
        explorer.run()
        assert explorer.incumbent.cost == plain.cost
