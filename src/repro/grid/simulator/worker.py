"""The simulated B&B process (worker) — paper §4.

Lifecycle follows the cycle-stealing availability trace of its host:
each up-period is a *session*.  Inside a session the worker pulls work
(``Request``), explores its interval in slices of ``update_period``
virtual seconds, pushes solution improvements immediately (``Push``),
and reports its remaining interval at each slice boundary (``Update``,
the worker-side checkpoint of §4.1) — the messages of
:mod:`repro.grid.runtime.protocol`, unsequenced.  A down-transition is
a crash: no goodbye, the unit is dropped, the coordinator's copy
lingers until reassigned.

Every exchange blocks the worker for one round trip (pull model); the
time spent waiting counts against the 97 % exploitation figure.  Each
message costs the network what its real frame weighs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Union

from repro.core.interval import Interval
from repro.grid.net.framing import encode_frame
from repro.grid.runtime.protocol import (
    Ack,
    GrantWork,
    Push,
    Reconciled,
    Request,
    Terminate,
    Update,
)
from repro.grid.simulator.availability import AvailabilityTrace
from repro.grid.simulator.events import SimClock
from repro.grid.simulator.farmer import SimFarmer
from repro.grid.simulator.metrics import MetricsCollector
from repro.grid.simulator.network import NetworkModel
from repro.grid.simulator.platform import HostSpec
from repro.grid.simulator.workload import Workload, WorkUnit

__all__ = ["WorkerConfig", "SimWorker"]


@dataclass
class WorkerConfig:
    """Knobs of a B&B process."""

    update_period: float = 30.0  # seconds between interval updates
    retry_timeout: Optional[float] = None  # resend if no reply (farmer down)


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
    ):
        self.clock = clock
        self.host = host
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
        self._epoch = 0  # bumped at session end; stale callbacks no-op
        self._in_session = False
        self._session_started = 0.0
        self._leave_time = 0.0
        self._unit: Optional[WorkUnit] = None
        self._terminated = False
        self.sessions = 0
        self.crash_count = 0
        # Local best (sharing rules 1-3, §4.4).  Kept so a worker that
        # observes a *stale* global SOLUTION — the farmer recovered
        # from a checkpoint taken before our push — re-informs the
        # coordinator instead of silently letting the value be lost.
        self._best_cost = float("inf")
        self._best_solution = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule all join/leave transitions from the trace."""
        for join, leave in self.trace.periods:
            self.clock.schedule_at(join, self._join, leave)

    def _join(self, leave_time: float) -> None:
        if self._terminated:
            return
        self._epoch += 1
        self._in_session = True
        self._session_started = self.clock.now
        self._leave_time = leave_time
        self.sessions += 1
        self.metrics.worker_joined(self.clock.now)
        self.clock.schedule_at(leave_time, self._leave, self._epoch)
        self._request_work()

    def _leave(self, epoch: int) -> None:
        if epoch != self._epoch or not self._in_session:
            return
        self._close_session()
        if self._unit is not None and not self._unit.is_finished():
            self.crash_count += 1
        self._unit = None

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

    # ------------------------------------------------------------------
    # protocol: request -> explore slices -> update -> ...
    # ------------------------------------------------------------------
    def _request_work(self) -> None:
        if not self._in_session:
            return
        self._send(Request(self.id, self.power), self._on_work_reply)

    def _on_work_reply(self, reply: Union[GrantWork, Terminate]) -> None:
        if isinstance(reply, Terminate):
            self._terminated = True
            self._close_session()
            return
        self._reinform_if_stale(reply.best_cost)
        self._unit = self.workload.create_unit(
            Interval.from_tuple(reply.interval),
            min(reply.best_cost, self._best_cost),
        )
        self._explore_slice()

    def _explore_slice(self) -> None:
        if not self._in_session or self._unit is None:
            return
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

    def _after_slice(self, report, epoch: int) -> None:
        if epoch != self._epoch or self._unit is None:
            return
        if report.improvements:
            cost, solution = report.improvements[-1]  # best of the slice
            if cost < self._best_cost:
                self._best_cost = cost
                self._best_solution = solution

            def after_push(ack: Ack) -> None:
                if self._unit is not None:
                    self._unit.set_upper_bound(ack.best_cost)
                self._send_update()

            self._send(Push(self.id, cost, solution), after_push)
        else:
            self._send_update()

    def _reinform_if_stale(self, global_best: float) -> None:
        """Sharing repair: the coordinator believes something worse
        than our local best (it recovered from an old checkpoint) —
        push our solution again."""
        if self._best_solution is not None and global_best > self._best_cost:
            self._send(
                Push(self.id, self._best_cost, self._best_solution),
                lambda ack: None,
            )

    def _send_update(self) -> None:
        if self._unit is None:
            return
        # nodes / consumed stay 0: the collector counts exploration at
        # the slice, where a host that leaves mid-unit still counts.
        remaining = self._unit.remaining_interval().as_tuple()
        self._send(Update(self.id, remaining, 0, 0), self._on_update_reply)

    def _on_update_reply(self, reply: Reconciled) -> None:
        if self._unit is None:
            return
        self._reinform_if_stale(reply.best_cost)
        self._unit.apply_interval(Interval.from_tuple(reply.interval))
        self._unit.set_upper_bound(reply.best_cost)
        if self._unit.is_finished():
            self._unit = None
            self._request_work()
        else:
            self._explore_slice()

    # ------------------------------------------------------------------
    @property
    def terminated(self) -> bool:
        return self._terminated
