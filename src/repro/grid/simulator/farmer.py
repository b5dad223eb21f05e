"""The simulated farmer: a virtual-clock driver of the service core.

The farmer is :class:`~repro.grid.service.core.ServiceCore`, the one
every production run executes, holding the workload as its one job
(the single-job id ``""``, drained when idle, started from the
workload's warm start); that job's
:class:`~repro.grid.runtime.coordinator.Coordinator` is the protocol.
What lives here is only what is *simulated*:

* a single-server FIFO queue: each message takes ``service_time`` of
  farmer CPU (the 1.7 % coordinator exploitation of Table 2) and is
  handed to ``ServiceCore.handle`` when its service completes;
* the two files of §4.1 as in-memory snapshots, taken every
  ``checkpoint_period`` and once more at termination;
* the outage plan: a crash drops the queue, a recovery builds a fresh
  core around the same job id from the snapshots — ownership, powers,
  leases and the retry cache are lost, as in a service restart;
* ``death_timeout`` as the job's lease, expired by the core's ``tick``
  at every checkpoint.

The simulated grid is the paper's firewalled, pull-only one: of the
core's outbox only the reply travels; notices have nobody to reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from repro.core.interval_set import IntervalSet
from repro.core.stats import Incumbent
from repro.grid.runtime.protocol import Notice
from repro.grid.service.core import ServiceConfig, ServiceCore
from repro.grid.simulator.events import SimClock
from repro.grid.simulator.failures import FarmerFailurePlan
from repro.grid.simulator.metrics import MetricsCollector
from repro.grid.simulator.workload import Workload

__all__ = ["FarmerConfig", "SimFarmer"]

#: The simulated job's id: the protocol's single-job id, so grants
#: carry no spec and the frames are those of a one-job run.
JOB = ""


@dataclass
class FarmerConfig:
    """Knobs of the coordinator."""

    service_time: float = 1e-3  # seconds of farmer CPU per message
    checkpoint_period: float = 1800.0  # "every 30 minutes" (§5.3)
    checkpoint_service_time: float = 0.2
    duplication_threshold: int = 1
    death_timeout: Optional[float] = None  # None: rely on duplication


class SimFarmer:
    """Queue, clock, snapshots and outages around one ``ServiceCore``."""

    def __init__(
        self,
        clock: SimClock,
        workload: Workload,
        metrics: MetricsCollector,
        config: Optional[FarmerConfig] = None,
        failure_plan: Optional[FarmerFailurePlan] = None,
    ) -> None:
        self.clock = clock
        self.workload = workload
        self.metrics = metrics
        self.config = config or FarmerConfig()
        self.failure_plan = failure_plan or FarmerFailurePlan()
        self._start(None)
        self.terminated = False
        self.down = False
        self._epoch = 0  # bumped on crash: stale queued work is dropped
        self._next_free = 0.0
        self.checkpoints_taken = 0
        self.recoveries = 0
        self.messages_dropped = 0
        self._snapshot()
        for crash, downtime in self.failure_plan.outages:
            clock.schedule_at(crash, self._crash)
            clock.schedule_at(crash + downtime, self._recover)
        clock.schedule(self.config.checkpoint_period, self._checkpoint_tick)

    def _start(self, solution: Optional[Incumbent]) -> None:
        """A fresh core holding the one job, starting from ``solution``."""
        config = self.config
        self.core = ServiceCore(
            ServiceConfig(
                duplication_threshold=config.duplication_threshold,
                lease_seconds=config.death_timeout,
                drain_when_idle=True,
            ),
            now=self.clock.now,
        )
        self.core.admit({}, incumbent=solution, problem=self.workload, job_id=JOB)
        self.coordinator = self.core.coordinators[JOB]

    # ------------------------------------------------------------------
    # the two files, and the outages that need them
    # ------------------------------------------------------------------
    def _snapshot(self) -> None:
        self._intervals_snapshot = self.coordinator.intervals.to_payload()
        self._solution_snapshot = self.coordinator.solution.copy()

    def _crash(self) -> None:
        self.down = True
        self._epoch += 1  # queued-but-unserved messages die with us

    def _recover(self) -> None:
        """Restart: a fresh core over the two files."""
        self.down = False
        self.recoveries += 1
        self.flush_accounting()
        self._start(self._solution_snapshot)
        self.coordinator.intervals = IntervalSet.from_payload(
            self._intervals_snapshot, self.config.duplication_threshold
        )
        self._next_free = self.clock.now

    def _checkpoint_tick(self) -> None:
        if self.terminated:
            return
        if not self.down:
            self._snapshot()
            self.checkpoints_taken += 1
            self.metrics.add_farmer_busy(self.config.checkpoint_service_time)
            self.core.tick(self.clock.now, ())  # nothing parks: it drains when idle
        self.clock.schedule(self.config.checkpoint_period, self._checkpoint_tick)

    def flush_accounting(self) -> None:
        """Fold the coordinator's counters into the metrics — once per
        coordinator: before a recovery replaces it, and at the end."""
        self.metrics.work_allocations += self.coordinator.work_allocations
        self.metrics.worker_checkpoint_ops += self.coordinator.worker_checkpoint_ops

    # ------------------------------------------------------------------
    # message intake (single-server queue)
    # ------------------------------------------------------------------
    def deliver(
        self, message: Any, respond: Callable[..., None], *context: Any
    ) -> None:
        """A message arrives (network delay already elapsed).

        ``respond(reply, *context)`` is invoked at service completion
        time; the caller adds the return-path network delay.
        """
        if self.down:
            self.messages_dropped += 1
            return
        start = max(self.clock.now, self._next_free)
        finish = start + self.config.service_time
        self._next_free = finish
        self.metrics.add_farmer_busy(self.config.service_time)
        self.clock.schedule_at(
            finish, self._serve, message, respond, context, self._epoch
        )

    def _serve(
        self,
        message: Any,
        respond: Callable[..., None],
        context: Tuple[Any, ...],
        epoch: int,
    ) -> None:
        if epoch != self._epoch or self.down:
            self.messages_dropped += 1
            return
        coordinator = self.coordinator
        improvements = coordinator.improvements
        outbox = self.core.handle(message, self.clock.now)
        if coordinator.improvements != improvements:
            self.metrics.solution_improved(
                self.clock.now, coordinator.solution.cost
            )
        if self.core.draining and not self.terminated:
            # The job settled.  Persist the terminal state first: a
            # crash after this point must not recover a stale non-empty
            # INTERVALS with every worker already dismissed.
            self.terminated = True
            self._snapshot()
        for _, reply in outbox:
            if not isinstance(reply, Notice):  # pull-only grid: nobody to tell
                respond(reply, *context)
