"""The simulated B&B process: a virtual-clock driver of the worker core.

Every decision — pull work, push the slice's best improvement before
the Update, apply eq. 14, re-inform a coordinator that lost a solution
— is :class:`~repro.grid.runtime.worker.WorkerCore`, the class every
production worker runs.  What lives here is only what is *simulated*:

* the host's cycle-stealing availability trace: each up-period is a
  *session*, and a down-transition is a crash — no goodbye, the unit is
  dropped, the coordinator's copy lingers until reassigned;
* slices of ``update_period`` virtual seconds, explored by the
  workload's ``WorkUnit.advance``;
* the network: each message costs the link its real frame, and
  ``retry_timeout`` re-sends one whose reply never came.

The simulated grid is pull-only: each exchange blocks the worker for
one round trip (the wait counts against the 97 % exploitation figure),
so every count repeats exactly from the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.core.interval import Interval
from repro.grid.net.framing import encode_frame
from repro.grid.runtime.protocol import Terminate
from repro.grid.runtime.worker import WorkerCore
from repro.grid.simulator.availability import AvailabilityTrace
from repro.grid.simulator.events import SimClock
from repro.grid.simulator.farmer import SimFarmer
from repro.grid.simulator.metrics import MetricsCollector
from repro.grid.simulator.network import NetworkModel
from repro.grid.simulator.platform import HostSpec
from repro.grid.simulator.workload import AdvanceReport, Workload, WorkUnit

__all__ = ["WorkerConfig", "SimWorker"]


@dataclass
class WorkerConfig:
    """Knobs of a B&B process."""

    update_period: float = 30.0  # seconds between interval updates
    retry_timeout: Optional[float] = None  # resend if no reply (farmer down)


def _drop(reply: Any) -> None:
    """A re-inform Push is not waited for, and its Ack is not applied."""


class SimWorker:
    """One B&B process bound to one (volatile) host."""

    def __init__(
        self,
        clock: SimClock,
        host: HostSpec,
        trace: AvailabilityTrace,
        farmer: SimFarmer,
        farmer_cluster: str,
        network: NetworkModel,
        workload: Workload,
        metrics: MetricsCollector,
        frame_bytes: Dict[type, int],
        config: Optional[WorkerConfig] = None,
    ) -> None:
        self.clock = clock
        self.trace = trace
        self.farmer = farmer
        self.workload = workload
        self.metrics = metrics
        self._frame_bytes = frame_bytes
        # the platform's wiring does not change under a run: look the
        # two directions up once, not twice per message
        self._uplink = network.link(host.cluster, farmer_cluster)
        self._downlink = network.link(farmer_cluster, host.cluster)
        self.config = config or WorkerConfig()
        self.id = host.host_id
        self.power = host.relative_power
        # One core per host: its local best outlives a session.
        self._core = WorkerCore(self.id, self.power)
        self._unit: Optional[WorkUnit] = None
        self._epoch = 0  # bumped at session start and end; stale callbacks no-op
        self._in_session = False
        self._session_started = 0.0
        self._leave_time = 0.0
        self.terminated = False
        self.crash_count = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule all join/leave transitions from the trace."""
        for join, leave in self.trace.periods:
            self.clock.schedule_at(join, self._join, leave)

    def _join(self, leave_time: float) -> None:
        if self.terminated:
            return
        self._epoch += 1
        self._in_session = True
        self._session_started = self.clock.now
        self._leave_time = leave_time
        self.metrics.worker_joined(self.clock.now)
        self.clock.schedule_at(leave_time, self._leave, self._epoch)
        self._send(self._core.request(), self._on_work_reply)

    def _leave(self, epoch: int) -> None:
        if epoch != self._epoch or not self._in_session:
            return
        self._close_session()
        if self._core.exploring:
            self.crash_count += 1

    def _close_session(self) -> None:
        self._in_session = False
        self._epoch += 1
        self.metrics.worker_left(self.clock.now)
        self.metrics.add_available(
            self.id, self.clock.now - self._session_started
        )

    def flush_accounting(self) -> None:
        """Account the in-progress session (simulation ended mid-run)."""
        if self._in_session:
            self.metrics.add_available(
                self.id, self.clock.now - self._session_started
            )
            self._session_started = self.clock.now

    # ------------------------------------------------------------------
    # messaging (pull model with optional retry)
    # ------------------------------------------------------------------
    def _send(self, message: Any, on_reply: Callable[[Any], None]) -> None:
        # ``call`` is emptied by whichever comes first: the reply, or
        # the retry that gives up on this attempt and sends afresh.
        call = [on_reply]
        size = self._frame_bytes.get(type(message)) or len(encode_frame(message))
        self.metrics.message_sent(size)
        self.clock.schedule(
            self._uplink.delay(size),
            self.farmer.deliver, message, self._reply_leaves, self._epoch, call,
        )
        if self.config.retry_timeout is not None:
            self.clock.schedule(
                self.config.retry_timeout, self._retry, message, self._epoch, call
            )

    def _reply_leaves(self, reply: Any, epoch: int, call: List[Any]) -> None:
        """Service done at the farmer: the reply starts its way back."""
        self.clock.schedule(
            self._downlink.delay(self._frame_bytes[type(reply)]),
            self._reply_arrives, reply, epoch, call,
        )

    def _reply_arrives(self, reply: Any, epoch: int, call: List[Any]) -> None:
        if epoch == self._epoch and call:  # else: session over, or a retry won
            call.pop()(reply)

    def _retry(self, message: Any, epoch: int, call: List[Any]) -> None:
        if epoch == self._epoch and call:
            self._send(message, call.pop())

    def _send_in_turn(self, messages: List[Any]) -> None:
        """Each of the core's messages once the previous one's reply came."""
        if len(messages) == 1:
            self._send(messages[0], self._on_update_reply)
            return

        def acked(ack: Any) -> None:
            self._core.acked(ack)
            self._send_in_turn(messages[1:])

        self._send(messages[0], acked)

    # ------------------------------------------------------------------
    # protocol: request -> explore slices -> update -> ...
    # ------------------------------------------------------------------
    def _on_work_reply(self, reply: Any) -> None:
        if isinstance(reply, Terminate):
            self.terminated = True
            self._close_session()
            return
        push = self._core.grant(reply)
        if push is not None:
            self._send(push, _drop)
        self._unit = self._core.unit = self.workload.create_unit(
            Interval.from_tuple(reply.interval), self._core.start_bound
        )
        self._explore_slice()

    def _explore_slice(self) -> None:
        assert self._unit is not None
        budget = min(
            self.config.update_period, self._leave_time - self.clock.now
        )
        if budget <= 0:
            return  # the leave event will fire at this instant
        report = self._unit.advance(budget, self.power)
        self.metrics.add_busy(self.id, report.elapsed)
        self.metrics.add_exploration(report.nodes, report.consumed)
        # The slice conceptually occupies [now, now + elapsed].
        self.clock.schedule(report.elapsed, self._after_slice, report, self._epoch)

    def _after_slice(self, report: AdvanceReport, epoch: int) -> None:
        if epoch != self._epoch:
            return
        for cost, solution in report.improvements:
            self._core.found(cost, solution)
        # nodes / consumed stay 0 on the wire: the collector counts
        # exploration at the slice, where a host that leaves mid-unit
        # still counts.
        messages, _ = self._core.slice_done(0, 0)
        self._send_in_turn(messages)

    def _on_update_reply(self, reply: Any) -> None:
        push = self._core.reconciled(reply)
        if push is not None:
            self._send(push, _drop)
        if self._core.exploring:
            self._explore_slice()
        else:
            self._send(self._core.request(), self._on_work_reply)
