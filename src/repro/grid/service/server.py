"""The solve server: the TCP pump around the one farmer.

:class:`SolveService` is a :class:`~repro.grid.service.core.ServiceCore`
plus a listener (its own :class:`~repro.grid.net.tcp.TcpListener` unless
handed one) and the loop that drives it: recv → ``handle`` → send, with
a ``tick`` before each wait.  ``repro grid serve`` and
``solve_parallel`` are this service with one job, admitted in process
through ``admit``, that drains once the job settles.  The service epoch
rides the Welcome, so workers that survive a restart resync.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.exceptions import RuntimeProtocolError
from repro.grid.net.tcp import TcpListener
from repro.grid.net.transport import Listener, TransportTimeout
from repro.grid.service.core import ServiceConfig, ServiceCore

__all__ = ["ServiceConfig", "ServiceReport", "SolveService"]


@dataclass
class ServiceReport:
    """What one service incarnation did before exiting."""

    jobs: Dict[str, Dict[str, Any]]
    wall_seconds: float
    epoch: int
    jobs_completed: int = 0
    jobs_failed: int = 0
    jobs_cancelled: int = 0
    work_allocations: int = 0
    grants_per_job: float = 0.0  # over the jobs that were granted at all
    requests_idled: int = 0
    protocol_errors: int = 0
    notices_sent: int = 0
    duplicates_ignored: int = 0  # retries and channel duplicates answered from the cache
    leases_expired: List[str] = field(default_factory=list)
    early_yields: int = 0  # summed over the workers that said goodbye
    worker_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)
    aborted: bool = False


class SolveService(ServiceCore):
    """A job-queue front door over the shared worker fleet."""

    def __init__(
        self, config: Optional[ServiceConfig] = None, listener: Optional[Listener] = None
    ):
        """``listener``, if given, replaces a TCP listener on
        ``config.host:port``; its owner closes it."""
        now = time.monotonic()
        super().__init__(config, now=now, wall_offset=time.time() - now)
        self._owns_listener = listener is None
        self.listener: Listener = listener or TcpListener(
            self.config.host,
            self.config.port,
            peer_timeout=self.config.peer_timeout,
            epoch=self.epoch,
        )
        self._shutdown = False
        self._abort = False

    @property
    def address(self) -> Optional[Tuple[str, int]]:
        """The bound ``(host, port)`` — useful with ``port=0``."""
        return self.listener.address

    def shutdown(self) -> None:
        """Ask ``serve_forever`` to return after its current iteration."""
        self._shutdown = True

    def abort(self) -> None:
        """Stop without final checkpoints — the in-process ``kill -9``."""
        self._abort = True
        self._shutdown = True

    def serve_forever(
        self, tick: Optional[Callable[[Any], None]] = None
    ) -> ServiceReport:
        """Serve until shutdown (or, when draining, until the fleet left).

        ``tick``, if given, is called with every message the pump
        handled, right after it, and with ``None`` whenever a wait ran
        out on a drained inbox: ``solve_parallel`` hangs its process
        sentinels and its farmer-crash schedule there.
        """
        config = self.config
        listener = self.listener
        started = time.monotonic()
        drained_since: Optional[float] = None
        try:
            while not self._shutdown:
                now = time.monotonic()
                if (
                    config.deadline is not None
                    and now - started > config.deadline
                ):
                    raise RuntimeProtocolError(
                        f"service exceeded the {config.deadline}s deadline"
                    )
                # Only a parked reply asks who can hear it.
                connected = listener.connected_workers() if self._parked else ()
                for peer, reply in self.tick(now, connected):
                    listener.send(peer, reply)
                if self.draining:
                    drained_since = now if drained_since is None else drained_since
                    remaining = set(listener.connected_workers()) - self._clients
                    if remaining <= self._departed or now - drained_since > config.linger_seconds:
                        break
                try:
                    message = listener.recv(timeout=config.poll_interval)
                except TransportTimeout:
                    listener.flush()  # a delayed reply must not strand its peer
                    if tick is not None:
                        tick(None)
                    continue
                for peer, reply in self.handle(message, time.monotonic()):
                    listener.send(peer, reply)
                if tick is not None:
                    tick(message)
        finally:
            if not self._abort:
                for coordinator in self.coordinators.values():
                    coordinator.maybe_checkpoint(time.monotonic(), force=True)
                listener.flush()
            if self._owns_listener:
                listener.close()
            self.jobs.close()
        return self._report(time.monotonic() - started)

    def _report(self, wall_seconds: float) -> ServiceReport:
        jobs: Dict[str, Dict[str, Any]] = {}
        for record in self.jobs.records():
            doc = record.summary()
            doc["queue_wait_seconds"] = record.queue_wait_seconds
            doc["work_allocations"] = record.work_allocations
            doc["updates"] = record.updates
            doc["redundant_rate"] = record.redundant_rate
            doc["solution"] = record.solution
            jobs[record.job_id] = doc
        grants = [doc["work_allocations"] for doc in jobs.values()]
        granted = [count for count in grants if count]
        return ServiceReport(
            jobs=jobs,
            wall_seconds=wall_seconds,
            epoch=self.epoch,
            jobs_completed=self.jobs_completed,
            jobs_failed=self.jobs_failed,
            jobs_cancelled=self.jobs_cancelled,
            work_allocations=self.work_allocations,
            grants_per_job=sum(granted) / max(1, len(granted)),
            requests_idled=self.requests_idled,
            protocol_errors=self.protocol_errors,
            notices_sent=self.notices_sent,
            duplicates_ignored=self.duplicates_ignored,
            leases_expired=list(self.leases_expired),
            early_yields=int(
                sum(s.get("early_yields", 0) for s in self.byes.values())
            ),
            worker_stats=dict(self.byes),
            aborted=self._abort,
        )
