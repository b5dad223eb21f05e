"""Simulation orchestrator: wire platform + workload + protocol, run, report.

``GridSimulation`` builds the farmer, one worker per processor (with
its availability trace), runs the virtual clock until the termination
condition of §4.3 (``INTERVALS`` empty) or the horizon, and reduces
the metrics into the paper's Table 2 statistics plus the Figure 7
series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.interval import Interval
from repro.exceptions import SimulationError
from repro.grid.simulator.availability import AvailabilityModel
from repro.grid.simulator.events import SimClock
from repro.grid.simulator.failures import FarmerFailurePlan
from repro.grid.simulator.farmer import FarmerConfig, SimFarmer
from repro.grid.simulator.metrics import MetricsCollector, Table2Stats
from repro.grid.simulator.network import frame_sizes
from repro.grid.simulator.platform import PlatformSpec
from repro.grid.simulator.rng import RngRegistry
from repro.grid.simulator.worker import SimWorker, WorkerConfig
from repro.grid.simulator.workload import Workload

__all__ = ["SimulationConfig", "SimulationReport", "GridSimulation"]


@dataclass
class SimulationConfig:
    """Everything one run needs."""

    platform: PlatformSpec
    workload: Workload
    horizon: float  # virtual seconds to give up after
    seed: int = 0
    availability: AvailabilityModel = field(default_factory=AvailabilityModel)
    farmer: FarmerConfig = field(default_factory=FarmerConfig)
    worker: WorkerConfig = field(default_factory=WorkerConfig)
    farmer_failures: FarmerFailurePlan = field(default_factory=FarmerFailurePlan)
    always_on: bool = False  # skip churn: every host up for the horizon
    max_events: Optional[int] = None  # livelock guard


@dataclass
class SimulationReport:
    """Outcome of a run."""

    table2: Table2Stats
    series: List[Tuple[float, int]]  # Figure 7
    finished: bool  # INTERVALS drained before the horizon
    best_cost: float
    best_solution: object
    wall_clock: float
    farmer_checkpoints: int
    farmer_recoveries: int
    messages: int
    message_bytes: int
    worker_crashes: int
    improvements: List[Tuple[float, float]]


class GridSimulation:
    """Build and run one simulated resolution."""

    def __init__(self, config: SimulationConfig):
        if config.horizon <= 0:
            raise SimulationError("horizon must be positive")
        self.config = config
        self.clock = SimClock()
        self.rng = RngRegistry(config.seed)
        self.metrics = MetricsCollector(config.workload.total_leaves())
        root = Interval(0, config.workload.total_leaves())
        self.farmer = SimFarmer(
            self.clock,
            config.workload,
            self.metrics,
            config.farmer,
            config.farmer_failures,
        )
        if config.worker.retry_timeout is None and config.farmer_failures.outages:
            # Messages are dropped while the farmer is down; without a
            # retry the whole grid would stall on the first outage.
            config.worker.retry_timeout = max(
                60.0, 2 * config.farmer.service_time + 1.0
            )
        self.workers = self._build_workers(root)

    def _build_workers(self, root: Interval) -> List[SimWorker]:
        cfg = self.config
        workers = []
        from repro.grid.simulator.availability import AvailabilityTrace

        hosts = cfg.platform.all_hosts()
        # one measured frame per message type, shared by every worker
        frame_bytes = frame_sizes(root, hosts[0].host_id) if hosts else {}
        for host in hosts:
            if cfg.always_on:
                trace = AvailabilityTrace(host.host_id, [(0.0, cfg.horizon)])
            else:
                trace = cfg.availability.trace(
                    host, cfg.horizon, self.rng.stream("availability", host.host_id)
                )
            worker = SimWorker(
                clock=self.clock,
                host=host,
                trace=trace,
                farmer=self.farmer,
                farmer_cluster=cfg.platform.farmer_cluster,
                network=cfg.platform.network,
                workload=cfg.workload,
                metrics=self.metrics,
                frame_bytes=frame_bytes,
                config=cfg.worker,
            )
            workers.append(worker)
        return workers

    def run(self) -> SimulationReport:
        for worker in self.workers:
            worker.start()
        self.clock.run(
            until=self.config.horizon,
            stop_when=lambda: self.farmer.terminated,
            max_events=self.config.max_events,
        )
        for worker in self.workers:
            worker.flush_accounting()
        self.farmer.flush_accounting()
        wall = self.clock.now
        coordinator = self.farmer.coordinator
        finished = self.farmer.terminated or coordinator.intervals.is_empty()
        best = coordinator.solution
        table2 = self.metrics.table2(wall, best.cost, finished)
        return SimulationReport(
            table2=table2,
            series=self.metrics.series,
            finished=finished,
            best_cost=best.cost,
            best_solution=best.solution,
            wall_clock=wall,
            farmer_checkpoints=self.farmer.checkpoints_taken,
            farmer_recoveries=self.farmer.recoveries,
            messages=self.metrics.messages,
            message_bytes=self.metrics.message_bytes,
            worker_crashes=sum(w.crash_count for w in self.workers),
            improvements=list(self.metrics.improvements),
        )
