"""The B&B process's decisions (paper §4), with no I/O and no clock.

:class:`WorkerCore` is the worker side of the protocol: it builds every
message a worker sends and applies every reply to the *unit* exploring
the current grant.  It never sends, waits or reads a clock, so two
drivers run the same decisions (docs/protocol.md, "Worker"):
:func:`repro.grid.runtime.bbprocess.worker_main` over a
:class:`~repro.grid.net.transport.Connection`, and
:class:`repro.grid.simulator.worker.SimWorker` under the virtual clock.

A unit is whatever explores one grant (:class:`Unit`):
:class:`~repro.core.engine.IntervalExplorer` in the runtime, a
``WorkUnit`` in the simulator.
"""

from __future__ import annotations

import math
from abc import abstractmethod
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Protocol, Tuple

from repro.core.interval import Interval
from repro.core.problem import Problem
from repro.grid.runtime.protocol import (
    Ack,
    Bye,
    GrantWork,
    Notice,
    Push,
    Reconciled,
    Request,
    Update,
    build_problem,
)

__all__ = ["Unit", "WorkerCore"]

#: Jobs whose built problem and local best a worker keeps.  The service
#: streams jobs through a worker without end, but a worker only
#: alternates between the few running at once: the least recently
#: granted job beyond this many is forgotten (its next grant, should
#: one ever come, carries the spec to rebuild it from).
_JOB_CACHE_SIZE = 8


class Unit(Protocol):
    """What explores one grant."""

    @abstractmethod
    def remaining_interval(self) -> Interval:
        """Fold of the current frontier (what an update reports)."""

    @abstractmethod
    def apply_interval(self, interval: Interval) -> None:
        """Adopt the coordinator's reconciled interval (eq. 14)."""

    @abstractmethod
    def set_upper_bound(self, cost: float) -> object:
        """Adopt a shared global best (sharing rule 3)."""

    @abstractmethod
    def is_finished(self) -> bool: ...


@dataclass
class _Job:
    """What a worker remembers of one job: its problem and local best.

    ``shared`` turns true with the first notice heard for the job:
    somebody else holds a part of it.  A bound proved for one job never
    prunes another job's tree.
    """

    problem: Optional[Problem]
    cost: float = math.inf
    solution: Any = None
    shared: bool = False


class WorkerCore:
    """One B&B process's state machine, driven by message outcomes.

    Every grant carries its job's spec, built the first time the job is
    met (the simulator's grants carry none: its units need no problem).
    ``stats`` is the ``Bye`` counters dict; a driver adds its measured
    ``explore_seconds`` and ``rpc_wait_seconds`` to it.
    """

    def __init__(self, worker_id: str, power: float = 1.0) -> None:
        self.worker_id = worker_id
        self.power = power
        self.stats: Dict[str, float] = {
            "nodes": 0,
            "updates": 0,
            "allocations": 0,
            "improvements": 0,
            "idles": 0,
            "epoch_resyncs": 0,
            "notices": 0,
            "early_yields": 0,
            "explore_seconds": 0.0,
            "rpc_wait_seconds": 0.0,
        }
        self._jobs: Dict[str, _Job] = {}  # least recently granted first
        self.job = ""  # the current grant's job id
        self._current = _Job(None)
        #: Incumbent cost to explore the current grant from.
        self.start_bound = math.inf
        self.unit: Optional[Unit] = None  # what explores the current grant
        self._found: Optional[Tuple[float, Any]] = None  # not pushed yet
        self._cut = False
        self._in_flight = 0  # nodes of the Update awaiting its reply
        self._acknowledged = 0  # nodes this coordinator incarnation answered

    # ------------------------------------------------------------------
    # work requests and grants
    # ------------------------------------------------------------------
    def request(self) -> Request:
        """Ask for work; the last grant's unit is done with."""
        self.unit = None
        return Request(self.worker_id, self.power)

    def idle(self) -> None:
        """An Idle reply: no job had work yet, so the driver asks again."""
        self.stats["idles"] += 1

    def grant(self, reply: GrantWork) -> Optional[Any]:
        """Take on a grant; the re-inform Push to send first, if any.

        The driver then sets :attr:`unit` to the grant's unit, built on
        :attr:`problem` from :attr:`start_bound`.
        """
        self.job = reply.job
        job = self._jobs.pop(reply.job, None)
        if job is None:
            spec = reply.spec
            job = _Job(None if spec is None else build_problem(spec))
        self._jobs[reply.job] = job  # (re)inserted last: most recent
        if len(self._jobs) > _JOB_CACHE_SIZE:
            del self._jobs[next(iter(self._jobs))]
        self._current = job
        self.stats["allocations"] += 1
        self.start_bound = min(reply.best_cost, job.cost)
        self._found = None
        self._cut = False
        return self._reinform(reply.best_cost)

    @property
    def problem(self) -> Optional[Problem]:
        """The current grant's problem (None: no spec ever came)."""
        return self._current.problem

    @property
    def exploring(self) -> bool:
        """Whether the current grant has work left (else: Request)."""
        return self.unit is not None and not self.unit.is_finished()

    # ------------------------------------------------------------------
    # inside a slice
    # ------------------------------------------------------------------
    def found(self, cost: float, solution: Any) -> None:
        """The unit improved on its incumbent (the engine's callback)."""
        self._found = (cost, solution)

    def hear(self, notices: Iterable[Notice]) -> Tuple[float, bool]:
        """The mid-slice poll: the cost to adopt, and whether to yield."""
        cost = math.inf
        job = self._current
        for notice in notices:
            if notice.job != self.job:
                continue  # a job this worker has moved on from
            self.stats["notices"] += 1
            job.shared = True
            cost = min(cost, notice.best_cost)
            self._cut = self._cut or notice.cut
        yield_now = self._cut or (self._found is not None and job.shared)
        if yield_now:
            self.stats["early_yields"] += 1
        return cost, yield_now

    # ------------------------------------------------------------------
    # slice boundaries
    # ------------------------------------------------------------------
    def slice_done(
        self, nodes: int, consumed: int, resync: bool = False
    ) -> Tuple[List[Any], bool]:
        """A slice ended (any earlier Update's reply already applied).

        Returns the messages to send in order, each once the previous
        one's reply came: Pushes, whose replies go to :meth:`acked` —
        the local best again on ``resync`` (a new coordinator
        incarnation, whose SOLUTION may predate it), then the slice's
        best improvement — and last the Update, whose reply goes to
        :meth:`reconciled`.  The flag says that reply must be applied
        before another node is explored (after a resync or a cut).
        """
        assert self.unit is not None, "slice_done() without a unit"
        job = self._current
        self.stats["nodes"] += nodes
        self._in_flight = nodes
        messages: List[Any] = []
        if resync:
            self.stats["epoch_resyncs"] += 1
            if job.solution is not None:
                messages.append(self._push(job.cost, job.solution))
        if self._found is not None:
            cost, solution = self._found
            self._found = None
            self.stats["improvements"] += 1
            if cost < job.cost:
                job.cost, job.solution = cost, solution
            messages.append(self._push(cost, solution))
        interval = self.unit.remaining_interval().as_tuple()
        messages.append(
            Update(self.worker_id, interval, nodes, consumed, job=self.job)
        )
        reconcile_now = resync or self._cut
        self._cut = False
        return messages, reconcile_now

    def acked(self, reply: Any) -> None:
        """A Push's reply: its cost bounds the unit."""
        if isinstance(reply, Ack) and self.unit is not None:
            self.unit.set_upper_bound(reply.best_cost)

    def reconciled(self, reply: Any) -> Optional[Any]:
        """An Update's reply: eq. 14 applied; the re-inform Push, if any."""
        self.stats["updates"] += 1
        self._acknowledged += self._in_flight
        self._in_flight = 0
        if not isinstance(reply, Reconciled) or self.unit is None:
            return None  # Terminate: nothing left to apply
        self.unit.apply_interval(Interval.from_tuple(reply.interval))
        self.unit.set_upper_bound(reply.best_cost)
        return self._reinform(reply.best_cost)

    def new_incarnation(self) -> None:
        """The next reply comes from a coordinator restarted from a checkpoint.

        It counts nodes from zero, so the nodes its predecessor already
        answered for leave ``stats["nodes"]``: the ``Bye`` reconciles
        with the ledger of the incarnation that hears it.  An Update
        still awaiting its reply counts for the new incarnation.
        """
        self.stats["nodes"] -= self._acknowledged
        self._acknowledged = 0

    def bye(self) -> Bye:
        return Bye(self.worker_id, dict(self.stats))

    # ------------------------------------------------------------------
    def _reinform(self, global_best: float) -> Optional[Any]:
        job = self._current
        if job.solution is not None and global_best > job.cost:
            return self._push(job.cost, job.solution)
        return None

    def _push(self, cost: float, solution: Any) -> Push:
        return Push(self.worker_id, cost, solution, job=self.job)
