"""The simulated farmer: a virtual-clock driver of the runtime coordinator.

The protocol — ``INTERVALS``, ``SOLUTION``, eq. 14, the §4.2 operators —
is :class:`~repro.grid.runtime.coordinator.Coordinator`, the class every
production run executes.  What lives here is only what is *simulated*:

* a single-server FIFO queue: each message takes ``service_time`` of
  farmer CPU (that is what the 1.7 % coordinator exploitation of
  Table 2 measures) and is handed to ``Coordinator.handle`` when its
  service completes;
* the two files of §4.1 as in-memory snapshots, taken every
  ``checkpoint_period`` and once more at termination;
* the outage plan: a crash drops the queue, a recovery builds a fresh
  coordinator from the snapshots — ownership, powers and leases are
  lost, as in ``Coordinator.recover``, and workers re-claim their
  intervals at their next update;
* ``death_timeout`` as the coordinator's lease, checked at every
  checkpoint tick.

The simulated grid is the paper's firewalled, pull-only one: the
notices the coordinator would send unasked are taken and dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from repro.core.interval import Interval
from repro.core.interval_set import IntervalSet
from repro.core.stats import Incumbent
from repro.grid.runtime.coordinator import Coordinator
from repro.grid.simulator.events import SimClock
from repro.grid.simulator.failures import FarmerFailurePlan
from repro.grid.simulator.metrics import MetricsCollector

__all__ = ["FarmerConfig", "SimFarmer"]


@dataclass
class FarmerConfig:
    """Knobs of the coordinator."""

    service_time: float = 1e-3  # seconds of farmer CPU per message
    checkpoint_period: float = 1800.0  # "every 30 minutes" (§5.3)
    checkpoint_service_time: float = 0.2
    duplication_threshold: int = 1
    death_timeout: Optional[float] = None  # None: rely on duplication


class SimFarmer:
    """Queue, clock, snapshots and outages around one ``Coordinator``."""

    def __init__(
        self,
        clock: SimClock,
        root_interval: Interval,
        metrics: MetricsCollector,
        config: Optional[FarmerConfig] = None,
        failure_plan: Optional[FarmerFailurePlan] = None,
        initial_best: Optional[Incumbent] = None,
    ) -> None:
        self.clock = clock
        self.metrics = metrics
        self.config = config or FarmerConfig()
        self.failure_plan = failure_plan or FarmerFailurePlan()
        self._root = root_interval
        self.coordinator = self._coordinator(initial_best)
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

    def _coordinator(self, solution: Optional[Incumbent]) -> Coordinator:
        return Coordinator(
            self._root,
            self.config.duplication_threshold,
            initial_best=solution,
            lease_seconds=self.config.death_timeout,
            clock=lambda: self.clock.now,
        )

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
        """Restart: a fresh coordinator over the two files."""
        self.down = False
        self.recoveries += 1
        self.flush_accounting()
        self.coordinator = self._coordinator(self._solution_snapshot)
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
            self.coordinator.check_leases(self.clock.now)
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
        reply = coordinator.handle(message)
        coordinator.take_notices()  # pull-only grid: nobody to tell
        if coordinator.improvements != improvements:
            self.metrics.solution_improved(
                self.clock.now, coordinator.solution.cost
            )
        if coordinator.terminated and not self.terminated:
            # Persist the terminal state first: a crash after this
            # point must not recover a stale non-empty INTERVALS with
            # every worker already dismissed.
            self.terminated = True
            self._snapshot()
        if reply is not None:
            respond(reply, *context)
