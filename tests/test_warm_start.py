"""``Problem.warm_start()``: heuristic incumbents never change the proof.

B&B prunes a subtree only when an *admissible* lower bound reaches the
incumbent, so seeding the incumbent with the exact cost of any feasible
solution can change how fast the optimum is reached but never which
cost is proved optimal.  These tests quantify that over random
instances and random (valid and adversarially tight) warm starts, for
``solve()``, the :class:`ResumableSolver`, and the multi-tenant
service path that seeds per-job coordinators.

A flow shop starts from NEH completed inside the run's interval and
polished by Iterated Greedy below the same node, so a slice starts
warm too; its result is still the optimum over that slice, because the
warm start's leaf lies inside it.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Incumbent,
    Interval,
    ResumableSolver,
    seed_incumbent,
    solve,
)
from repro.core.engine import iter_leaf_costs
from repro.core.numbering import node_number
from repro.core.unfold import unfold
from repro.grid.net.serve import run_worker
from repro.grid.runtime import (
    CoordinatorCrash,
    FaultPlan,
    RuntimeConfig,
    flowshop_spec,
    solve_parallel,
)
from repro.grid.service.server import ServiceConfig, SolveService
from repro.problems.flowshop import (
    FlowShopProblem,
    makespan,
    neh,
    random_instance,
)


def leaf_number(problem: FlowShopProblem, permutation) -> int:
    """The leaf number of ``permutation`` in the permutation tree."""
    remaining = list(range(problem.instance.jobs))
    ranks = []
    for job in permutation:
        ranks.append(remaining.index(job))
        remaining.remove(job)
    return node_number(problem.tree_shape(), ranks)


class WarmStartedFlowShop(FlowShopProblem):
    """A flow shop whose warm start is a fixed feasible permutation."""

    def __init__(self, instance, permutation):
        super().__init__(instance)
        self._permutation = tuple(permutation)

    def warm_start(self, interval=None) -> Optional[Tuple[float, Any]]:
        if interval is not None and leaf_number(self, self._permutation) not in interval:
            return None
        return (
            makespan(self.instance, self._permutation),
            self._permutation,
        )


class ColdFlowShop(FlowShopProblem):
    """A flow shop that starts every solve cold: the baseline."""

    def warm_start(self, interval=None) -> None:
        return None


@st.composite
def instance_and_permutation(draw):
    jobs = draw(st.integers(4, 6))
    machines = draw(st.integers(2, 4))
    seed = draw(st.integers(0, 10_000))
    permutation = draw(st.permutations(list(range(jobs))))
    return random_instance(jobs, machines, seed), tuple(permutation)


def test_flowshop_warm_start_never_worse_than_neh_same_pair_every_call(monkeypatch):
    instance = random_instance(12, 5, seed=0)
    _, neh_cost = neh(instance)
    problem = FlowShopProblem(instance)
    cost, solution = problem.warm_start()
    assert cost < neh_cost  # the polish is on: NEH is beaten here
    assert makespan(instance, solution) == cost
    # No clock: the same pair on every call, from any instance object.
    for clock in ("time", "monotonic", "perf_counter", "process_time"):
        monkeypatch.setattr(time, clock, lambda: pytest.fail("warm_start read a clock"))
    assert problem.warm_start() == (cost, solution)
    assert FlowShopProblem(instance).warm_start() == (cost, solution)


@settings(max_examples=25, deadline=None)
@given(instance_and_permutation())
def test_warm_start_never_changes_the_proved_optimum(case):
    instance, permutation = case
    cold = solve(ColdFlowShop(instance))
    for problem in (FlowShopProblem(instance), WarmStartedFlowShop(instance, permutation)):
        warm = solve(problem)
        assert warm.cost == cold.cost
        assert warm.optimal
        # Whatever solution is reported must achieve the proved optimum
        # — including when the warm start itself *is* an optimal
        # schedule that nothing in the tree strictly beats.
        assert makespan(instance, tuple(warm.solution)) == cold.cost


@settings(max_examples=10, deadline=None)
@given(instance_and_permutation())
def test_warm_start_prunes_but_counts_stay_sane(case):
    instance, permutation = case
    cold = solve(ColdFlowShop(instance))
    for problem in (FlowShopProblem(instance), WarmStartedFlowShop(instance, permutation)):
        # A (valid) incumbent can only shrink the explored tree, never
        # the other way — pruning is monotone in the upper bound.
        assert solve(problem).stats.nodes_explored <= cold.stats.nodes_explored


def test_resumable_solver_seeds_the_warm_start(tmp_path):
    instance = random_instance(6, 3, seed=9)
    permutation = tuple(range(6))
    cold = solve(FlowShopProblem(instance))
    solver = ResumableSolver(
        WarmStartedFlowShop(instance, permutation),
        tmp_path,
        checkpoint_nodes=50,
    )
    # The warm start is already durable before the first step.
    assert solver.explorer.incumbent.cost <= makespan(instance, permutation)
    result = solver.run()
    assert result.cost == cold.cost
    assert result.optimal


def test_resumable_solver_keeps_a_better_checkpointed_bound(tmp_path):
    instance = random_instance(6, 3, seed=9)
    optimal = solve(FlowShopProblem(instance))
    # First run to completion: the checkpoint holds the true optimum.
    ResumableSolver(
        FlowShopProblem(instance), tmp_path, checkpoint_nodes=50
    ).run()
    # A resume with a *worse* warm start must not loosen the incumbent:
    # the update is monotonic-min.
    worst = max(
        (
            makespan(instance, p)
            for p in [tuple(range(6)), tuple(reversed(range(6)))]
        ),
    )
    resumed = ResumableSolver(
        WarmStartedFlowShop(instance, tuple(range(6))),
        tmp_path,
        checkpoint_nodes=50,
    )
    assert resumed.explorer.incumbent.cost <= min(optimal.cost, worst)
    assert resumed.run().cost == optimal.cost


# ----------------------------------------------------------------------
# Slices: a warm start from inside the slice


SLICE_INSTANCE = random_instance(6, 3, seed=2)
SLICE = Interval(100, 500)


def _slice_optimum():
    """Brute force over SLICE, and a check of the premise: NEH beats it."""
    best = min(
        cost
        for number, cost in iter_leaf_costs(FlowShopProblem(SLICE_INSTANCE))
        if number in SLICE
    )
    _, neh_cost = neh(SLICE_INSTANCE)
    assert neh_cost < best
    return best


@st.composite
def instance_and_slice(draw):
    instance = random_instance(
        draw(st.integers(4, 7)), draw(st.integers(2, 4)), draw(st.integers(0, 10_000))
    )
    leaves = FlowShopProblem(instance).total_leaves()
    begin = draw(st.integers(0, leaves - 1))
    return instance, Interval(begin, draw(st.integers(begin + 1, leaves)))


@settings(max_examples=40, deadline=None)
@given(instance_and_slice())
def test_a_slice_warm_start_lies_inside_it_and_keeps_its_optimum(case):
    instance, piece = case
    problem = FlowShopProblem(instance)
    cost, solution = problem.warm_start(piece)
    assert leaf_number(problem, solution) in piece
    assert cost == makespan(instance, solution)
    assert seed_incumbent(problem, Incumbent(), piece).cost == cost
    best = min(c for n, c in iter_leaf_costs(problem) if n in piece)
    result = solve(FlowShopProblem(instance), interval=piece)
    assert result.optimal and result.cost == best
    assert makespan(instance, tuple(result.solution)) == best


def boundary_neh(problem: FlowShopProblem, interval: Interval) -> int:
    """The best NEH completion of the first and last active node per depth."""
    ends = {}
    for node in unfold(problem.tree_shape(), interval):
        ends.setdefault(node.depth, []).append(node)
    costs = []
    for nodes in ends.values():
        for node in (nodes[0], nodes[-1]):
            remaining = list(range(problem.instance.jobs))
            prefix = [remaining.pop(rank) for rank in node.ranks]
            costs.append(neh(problem.instance, prefix)[1])
    return min(costs)


@st.composite
def larger_instance_and_slice(draw):
    instance = random_instance(
        draw(st.integers(6, 10)), draw(st.integers(2, 6)), draw(st.integers(0, 10_000))
    )
    leaves = FlowShopProblem(instance).total_leaves()
    begin = draw(st.integers(0, leaves - 1))
    return instance, Interval(begin, draw(st.integers(begin + 1, leaves)))


@settings(max_examples=60, deadline=None)
@given(larger_instance_and_slice())
def test_a_polished_slice_warm_start_is_never_worse_than_its_best_neh(case):
    instance, piece = case
    problem = FlowShopProblem(instance)
    cost, solution = problem.warm_start(piece)
    assert cost <= boundary_neh(problem, piece)
    assert leaf_number(problem, solution) in piece
    assert cost == makespan(instance, solution)


def test_whole_tree_warm_start_never_worse_than_neh_held_incumbent_survives():
    problem = FlowShopProblem(SLICE_INSTANCE)
    warm_cost, _ = problem.warm_start()
    assert warm_cost <= neh(SLICE_INSTANCE)[1]
    whole = Interval(0, problem.total_leaves())
    assert problem.warm_start(whole) == problem.warm_start()
    for interval in (None, whole):
        assert seed_incumbent(problem, Incumbent(), interval).cost == warm_cost
    assert problem.warm_start(Interval(5, 5)) is None
    # Monotonic: a better incumbent already held survives.
    assert seed_incumbent(problem, Incumbent(1.0, "held")).solution == "held"


def test_a_slice_returns_its_own_optimum_serially_and_in_parallel():
    best = _slice_optimum()
    result = solve(FlowShopProblem(SLICE_INSTANCE), interval=SLICE)
    assert result.cost == best
    parallel = solve_parallel(
        flowshop_spec(SLICE_INSTANCE),
        RuntimeConfig(workers=1, root_interval=SLICE.as_tuple(), deadline=60.0),
    )
    assert parallel.optimal and parallel.cost == best
    assert makespan(SLICE_INSTANCE, tuple(parallel.solution)) == best


def test_a_farmer_crash_before_the_first_snapshot_keeps_the_warm_start(tmp_path):
    instance = random_instance(7, 3, seed=71)
    serial = solve(FlowShopProblem(instance))
    assert serial.stats.improvements == 0  # premise: no worker will Push
    result = solve_parallel(
        flowshop_spec(instance),
        RuntimeConfig(
            workers=1,
            checkpoint_dir=tmp_path,
            checkpoint_period=3600.0,  # no snapshot: the journal alone
            deadline=60.0,
            reply_timeout=0.4,  # retry into the recovered farmer soon
            max_retries=6,
            fault_plan=FaultPlan(
                # After the Update that explored the whole tree.
                coordinator_crashes=[CoordinatorCrash(after_messages=2, downtime=0.1)]
            ),
        ),
    )
    assert result.coordinator_restarts == 1
    assert result.optimal and result.cost == serial.cost
    assert makespan(instance, tuple(result.solution)) == serial.cost


def _serve_with_one_worker(service):
    host, port = service.address
    outcome = {}
    thread = threading.Thread(
        target=lambda: outcome.update(report=service.serve_forever()), daemon=True
    )
    thread.start()
    run_worker(host, port, "w0", update_nodes=200, reply_timeout=2.0)
    thread.join(timeout=60)
    return outcome["report"]


def test_a_served_slice_returns_its_own_optimum(tmp_path):
    best = _slice_optimum()
    wire = flowshop_spec(SLICE_INSTANCE)

    def config(name, **overrides):
        return ServiceConfig(
            port=0, deadline=60, linger_seconds=5.0, drain_when_idle=True,
            checkpoint_dir=tmp_path / name, **overrides,
        )

    warm_cost, _ = FlowShopProblem(SLICE_INSTANCE).warm_start(SLICE)
    fresh = SolveService(config("fresh"))
    job = fresh.admit(wire, root=SLICE.as_tuple()).job
    assert fresh.coordinators[job].solution.cost == warm_cost
    doc = _serve_with_one_worker(fresh).jobs[job]
    assert doc["status"] == "done" and doc["cost"] == best

    # Abort before any worker came, then --resume: the slice is read
    # back from the job's meta record, and the resumed job starts from the
    # slice's own warm start too.
    crashed = SolveService(config("crash"))
    job = crashed.admit(wire, root=SLICE.as_tuple()).job
    crashed.abort()
    crashed.serve_forever()
    resumed = SolveService(config("crash", resume=True))
    coordinator = resumed.coordinators[job]
    assert coordinator.intervals.to_payload() == [SLICE.as_tuple()]
    assert coordinator.solution.cost == warm_cost
    doc = _serve_with_one_worker(resumed).jobs[job]
    assert doc["status"] == "done" and doc["cost"] == best
