"""Ablation — fault tolerance (§4.1): proof survives every crash mode.

Three scenarios on a real-B&B workload, each required to terminate
with the true optimum: (a) heavy worker churn with no death detection
(recovery purely through duplication), (b) repeated farmer outages
with checkpoint recovery, (c) real OS-process crashes in the
multiprocessing runtime.  Also quantifies what the crashes cost in
re-explored work.
"""

from benchmarks.conftest import run_once
from repro.analysis import render_table
from repro.core import solve
from repro.grid.runtime import RuntimeConfig, flowshop_spec, solve_parallel
from repro.grid.simulator import (
    AvailabilityModel,
    FarmerConfig,
    FarmerFailurePlan,
    GridSimulation,
    RealBBWorkload,
    SimulationConfig,
    WorkerConfig,
    small_platform,
)
from repro.problems.flowshop import FlowShopProblem, random_instance


def test_fault_tolerance_matrix(benchmark):
    instance = random_instance(8, 4, seed=3)
    problem = FlowShopProblem(instance)
    expected = solve(problem).cost
    rows = []

    def scenario_worker_churn():
        config = SimulationConfig(
            platform=small_platform(workers=6, dedicated=False),
            workload=RealBBWorkload(problem, nodes_per_second=0.2),
            horizon=3000 * 86400.0,
            seed=31,
            # the proof takes ~10 virtual minutes: up-periods must be
            # shorter than that for a host to leave mid-unit at all
            availability=AvailabilityModel(
                mean_up=300.0, mean_down=150.0, diurnal_amplitude=0.0
            ),
            farmer=FarmerConfig(duplication_threshold=300),
            worker=WorkerConfig(update_period=10.0),
        )
        return GridSimulation(config).run()

    def scenario_farmer_outages():
        config = SimulationConfig(
            platform=small_platform(workers=4),
            workload=RealBBWorkload(problem, nodes_per_second=2.0),
            horizon=3000 * 86400.0,
            always_on=True,
            seed=32,
            farmer=FarmerConfig(
                checkpoint_period=20.0, duplication_threshold=300
            ),
            worker=WorkerConfig(update_period=5.0),
            farmer_failures=FarmerFailurePlan(
                [(20.0, 15.0), (60.0, 20.0), (110.0, 15.0)]
            ),
        )
        return GridSimulation(config).run()

    def scenario_real_process_crashes():
        return solve_parallel(
            flowshop_spec(instance),
            RuntimeConfig(
                workers=4,
                update_nodes=200,
                deadline=180,
                crash_workers={0: 2, 1: 5},
            ),
        )

    def all_scenarios():
        return (
            scenario_worker_churn(),
            scenario_farmer_outages(),
            scenario_real_process_crashes(),
        )

    churn, outages, real = run_once(benchmark, all_scenarios)

    rows.append((
        "worker churn (sim)", churn.best_cost == expected and churn.finished,
        f"{churn.worker_crashes} crashes",
        f"{churn.table2.redundant_node_rate:.2%} redundant",
    ))
    rows.append((
        "farmer outages (sim)",
        outages.best_cost == expected and outages.finished,
        f"{outages.farmer_recoveries} recoveries",
        f"{outages.table2.redundant_node_rate:.2%} redundant",
    ))
    rows.append((
        "process crashes (real)",
        real.cost == expected and real.optimal,
        f"{len(real.crashed_workers)} killed",
        f"{real.redundant_rate:.2%} redundant",
    ))
    print("\n" + render_table(
        ["scenario", "optimum proved", "failures", "re-exploration"],
        rows,
        title="Fault tolerance: proof survives every crash mode",
    ))
    assert all(ok for _, ok, _, _ in rows)
    assert churn.worker_crashes > 0
    assert outages.farmer_recoveries == 3
    assert real.crashed_workers
