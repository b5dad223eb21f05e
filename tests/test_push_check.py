"""The farmer costs every pushed solution before it believes it.

A believed incumbent prunes every holder's tree (notices carry its
cost), so one wrong Push used to end a job ``done`` with a false
"proof".  ``Problem.solution_cost`` recomputes a solution's cost from
the instance alone; the coordinator refuses, as a protocol error, a
solution that is not one of the job's or that costs something else
than it says, and a resume replays journalled pushes through the same
check.
"""

from __future__ import annotations

import pytest

from repro.core import Incumbent, Interval, solve
from repro.core.checkpoint import MultiJobStore
from repro.exceptions import ProblemError, RuntimeProtocolError
from repro.grid.runtime import Coordinator, flowshop_spec, tsp_spec
from repro.grid.runtime.protocol import (
    Ack,
    GrantWork,
    Push,
    Reconciled,
    Request,
    Update,
    build_problem,
)
from repro.grid.service.core import ServiceConfig, ServiceCore
from repro.problems.flowshop import FlowShopProblem, random_instance
from repro.problems.tsp import TSPProblem, random_tsp
from tests.helpers import PermutationCostProblem, exchange, one_job_core, toy_cost_matrix

# A job whose warm start (652) the optimum (646) beats: a true Push lowers it.
instance = random_instance(8, 4, seed=6)
WARM_COST, WARM_SOLUTION = FlowShopProblem(instance).warm_start()
optimum = solve(FlowShopProblem(instance))


def test_the_premise_the_warm_start_is_beaten():
    assert optimum.cost < WARM_COST


def one_job(checkpoint_dir=None, resume=False):
    """A service core running ``instance``'s job; (core, job id)."""
    core = ServiceCore(
        ServiceConfig(checkpoint_dir=checkpoint_dir, resume=resume, lease_seconds=None)
    )
    if resume:
        (job,) = core.coordinators
        return core, job
    return core, core.admit(flowshop_spec(instance), owner="alice").job


def granted(core, job):
    grant, _ = exchange(core, Request("w0", seq=1))
    assert isinstance(grant, GrantWork) and grant.job == job
    return grant


def test_a_garbage_push_does_not_end_the_job_with_its_cost():
    """Submit, Request, ``Push("w0", 1.0, "garbage")``, an emptying
    Update: the job settles with its warm start, not with 1.0."""
    core, job = one_job()
    grant = granted(core, job)
    reply, notices = exchange(core, Push("w0", 1.0, "garbage", seq=2, job=job))
    assert reply is None and notices == []
    assert core.protocol_errors == 1
    end = grant.interval[1]
    reply, _ = exchange(
        core, Update("w0", (end, end), nodes=9, consumed=end, seq=3, job=job)
    )
    assert isinstance(reply, Reconciled) and reply.best_cost == WARM_COST
    record = core.jobs.get(job)
    assert record.status == "done"
    assert (record.cost, tuple(record.solution)) == (WARM_COST, WARM_SOLUTION)


@pytest.mark.parametrize(
    "cost, solution",
    [
        (1.0, "garbage"),
        (optimum.cost, optimum.solution[:-1]),  # a permutation of too few jobs
        (optimum.cost - 1, optimum.solution),  # a true schedule, understated
        (optimum.cost, [float(job) for job in optimum.solution]),  # not job numbers
        (optimum.cost, [True] + list(optimum.solution[1:])),
    ],
    ids=["garbage", "too-few-jobs", "understated", "floats", "a-bool"],
)
def test_a_push_that_is_not_what_it_says_is_refused(cost, solution):
    core, job = one_job()
    granted(core, job)
    reply, notices = exchange(core, Push("w0", cost, solution, seq=2, job=job))
    assert reply is None and notices == []
    assert core.protocol_errors == 1
    assert core.coordinators[job].solution.cost == WARM_COST


def test_a_true_push_is_believed_and_costed_by_the_farmer():
    core, job = one_job()
    granted(core, job)
    # The wire may carry an integral cost as a float: the farmer keeps
    # its own figure.
    pushed = list(optimum.solution)
    reply, _ = exchange(core, Push("w0", float(optimum.cost), pushed, seq=2, job=job))
    assert reply == Ack(optimum.cost, seq=2)
    solution = core.coordinators[job].solution
    assert (solution.cost, type(solution.cost)) == (optimum.cost, int)
    assert core.protocol_errors == 0


def test_a_push_that_lowers_nothing_is_not_costed():
    """Only a Push the farmer would believe is checked: one at or above
    SOLUTION changes nothing and costs no makespan."""
    core, job = one_job()
    granted(core, job)
    reply, _ = exchange(core, Push("w0", WARM_COST + 5, "garbage", seq=2, job=job))
    assert reply == Ack(WARM_COST, seq=2)
    assert core.protocol_errors == 0


def test_a_resume_replays_only_the_pushes_that_pass_the_check(tmp_path):
    core, job = one_job(tmp_path)
    granted(core, job)
    exchange(core, Push("w0", optimum.cost, optimum.solution, seq=2, job=job))
    core.jobs.close()
    # A checkpoint directory is input too: records nobody checked.
    log = MultiJobStore(tmp_path)
    store = log.job_store(job)
    store.journal_push(1.0, "garbage")
    store.journal_push(optimum.cost - 1, optimum.solution)
    log.close()
    resumed, job = one_job(tmp_path, resume=True)
    solution = resumed.coordinators[job].solution
    assert (solution.cost, solution.solution) == (optimum.cost, optimum.solution)
    resumed.jobs.close()


def test_recover_with_no_problem_replays_every_push(tmp_path):
    """The simulator's coordinator holds no problem: nothing to check with."""
    store = MultiJobStore(tmp_path).job_store("")
    store.journal_push(1.0, ("synthetic-solution", 7))
    coordinator = Coordinator.recover(store, Interval(0, 100))
    assert coordinator.solution.cost == 1.0
    store.log.close()


def test_the_simulated_farmer_takes_synthetic_pushes_unchecked():
    core = one_job_core(1000)
    assert core.coordinators[""].problem is None
    exchange(core, Request("w0", seq=1))
    reply, _ = exchange(core, Push("w0", 5.0, ("synthetic-solution", 3), seq=2, job=""))
    assert reply == Ack(5.0, seq=2)


def test_the_solution_cost_of_each_problem():
    flowshop = FlowShopProblem(instance)
    assert flowshop.solution_cost(optimum.solution) == optimum.cost
    assert flowshop.solution_cost(list(optimum.solution)) == optimum.cost
    tsp = TSPProblem(random_tsp(8, seed=2))
    tour = solve(tsp)
    assert tsp.solution_cost(tour.solution) == tour.cost
    for bad in ("garbage", tour.solution[:-1], tour.solution + (0,), None, {0: 1}):
        with pytest.raises(ProblemError):
            tsp.solution_cost(bad)
    # A problem that cannot cost a solution has none believed.
    with pytest.raises(ProblemError, match="cannot check"):
        PermutationCostProblem(toy_cost_matrix(4)).solution_cost((0, 1, 2, 3))


def test_a_tsp_job_checks_its_pushes_too():
    spec = tsp_spec(random_tsp(8, seed=2))
    problem = build_problem(spec)
    tour = solve(problem)
    coordinator = Coordinator(
        Interval(0, problem.total_leaves()), initial_best=Incumbent(), problem=problem
    )
    with pytest.raises(RuntimeProtocolError, match="push refused"):
        coordinator.handle(Push("w0", tour.cost - 1, list(tour.solution)))
    assert coordinator.handle(Push("w0", tour.cost, list(tour.solution))) == Ack(tour.cost)
