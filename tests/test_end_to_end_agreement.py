"""Capstone: every execution path proves the same optimum.

One instance, five resolutions — sequential, checkpoint-resumed,
real multiprocessing farmer–worker, simulated grid (real B&B under
churn), and peer-to-peer — all built on the same interval coding.
Any divergence anywhere in the stack fails here.
"""

import pytest

from repro.core import solve
from repro.core.resumable import ResumableSolver
from repro.grid.p2p import P2PConfig, P2PSimulation
from repro.grid.runtime import RuntimeConfig, flowshop_spec, solve_parallel
from repro.grid.simulator import (
    AvailabilityModel,
    FarmerConfig,
    GridSimulation,
    RealBBWorkload,
    SimulationConfig,
    WorkerConfig,
    small_platform,
)
from repro.problems.flowshop import FlowShopProblem, makespan, random_instance


@pytest.fixture(scope="module")
def instance():
    return random_instance(8, 4, seed=2027)  # 77 nodes from its warm start's bound


@pytest.fixture(scope="module")
def expected(instance):
    return solve(FlowShopProblem(instance)).cost


def test_all_execution_paths_agree(instance, expected, tmp_path_factory):
    problem = FlowShopProblem(instance)
    results = {}

    # 1. sequential (already the reference, re-derive via fresh solve)
    results["sequential"] = solve(problem).cost

    # 2. checkpoint/resume: interrupt twice, finish on the third life
    # (a step of 20 of the 77 nodes: neither of the first two finishes)
    ckpt = tmp_path_factory.mktemp("ckpt")
    solver = ResumableSolver(problem, ckpt, checkpoint_nodes=20)
    assert solver.step()  # stopped short: work left
    solver = ResumableSolver(problem, ckpt, checkpoint_nodes=20)
    assert solver.step()
    results["resumable"] = ResumableSolver(
        problem, ckpt, checkpoint_nodes=20
    ).run().cost

    # 3. real multiprocessing farmer-worker, with a crash
    parallel = solve_parallel(
        flowshop_spec(instance),
        RuntimeConfig(workers=3, update_nodes=300, deadline=120,
                      crash_workers={1: 2}),
    )
    assert parallel.optimal
    results["multiprocessing"] = parallel.cost

    # 4. simulated grid under churn
    sim = GridSimulation(SimulationConfig(
        platform=small_platform(workers=5, dedicated=False),
        workload=RealBBWorkload(problem, nodes_per_second=5.0),
        horizon=400 * 86400.0,
        seed=4,
        availability=AvailabilityModel(
            mean_up=600.0, mean_down=300.0, diurnal_amplitude=0.0
        ),
        farmer=FarmerConfig(duplication_threshold=300),
        worker=WorkerConfig(update_period=10.0),
    )).run()
    assert sim.finished
    results["simulated-grid"] = sim.best_cost

    # 5. peer-to-peer with Safra termination
    p2p = P2PSimulation(P2PConfig(
        platform=small_platform(workers=4),
        workload=RealBBWorkload(problem, nodes_per_second=50.0),
        horizon=60 * 86400.0,
        seed=5,
        update_period=2.0,
        steal_backoff=1.0,
    )).run()
    assert p2p.finished
    results["peer-to-peer"] = p2p.best_cost

    assert all(cost == expected for cost in results.values()), results


def test_solutions_are_valid_schedules(instance, expected):
    # the concrete schedules, not just the costs, must check out
    problem = FlowShopProblem(instance)
    result = solve(problem)
    assert makespan(instance, result.solution) == expected
    parallel = solve_parallel(
        flowshop_spec(instance), RuntimeConfig(workers=2, deadline=120)
    )
    assert makespan(instance, parallel.solution) == expected
