"""The one farmer: the job queue and N per-job coordinators, sans IO.

:class:`ServiceCore` decides everything the solve service does and
does none of it: it reads no clock and touches no socket.  A driver
calls ``handle(message, now)`` for each message and ``tick(now,
connected)`` between messages; both return an **outbox** of
``(peer, message)`` pairs to send, notices before the reply.  Two
drivers run it: the TCP pump (:class:`~repro.grid.service.server.
SolveService`, behind ``solve_parallel`` and every ``repro grid`` front
door) and the grid simulator (``simulator/farmer.py``, virtual clock).

The core keeps one :class:`~repro.grid.runtime.coordinator.Coordinator`
per running job; the :class:`~repro.grid.service.scheduler.Scheduler`
picks the job that answers an untagged ``Request``, whose grant is
stamped with the job id and spec, and each ``Update``/``Push`` goes to
the coordinator its ``job`` names.  A job settles on the Update that
empties its INTERVALS; promotion runs when a job is admitted or
settles.  Job metadata goes through the durable
:class:`~repro.grid.service.store.JobStore`, each job checkpoints
through its coordinator into the same ``service.log``, and
``resume=True`` rebuilds the queue from that log (crash-only).

The core is the one at-least-once layer: its per-peer reply cache
answers every retry and channel duplicate, so none reaches a
coordinator, not even after its job settled.  An RPC it cannot answer
usefully yet — a ``Request`` while no job has work, a
``JobStatusRequest`` with ``wait`` > 0 for an unsettled job — is
**parked** and re-evaluated at every ``tick``, for at most
:data:`KEEPALIVE_SECONDS` (see docs/service.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Collection, Dict, List, Optional, Set, Tuple

from repro.core.interval import Interval
from repro.core.problem import Problem, seed_incumbent
from repro.core.stats import Incumbent
from repro.exceptions import RuntimeProtocolError
from repro.grid.runtime.coordinator import Coordinator, check_power
from repro.grid.runtime.protocol import (
    Ack,
    Bye,
    CancelJob,
    Idle,
    JobAccepted,
    JobList,
    JobRefused,
    JobStatus,
    JobStatusRequest,
    ListJobs,
    Push,
    Reconciled,
    Request,
    SubmitJob,
    Terminate,
    Update,
    build_problem,
)
from repro.grid.service.scheduler import Scheduler, SchedulerConfig
from repro.grid.service.store import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    JobRecord,
    JobStore,
)

__all__ = ["KEEPALIVE_SECONDS", "ServiceConfig", "ServiceCore"]

#: Longest a reply stays parked before the peer hears ``Idle`` / the
#: current status and asks again: far inside any workable
#: ``reply_timeout``, so a healthy server never looks like a dead one.
KEEPALIVE_SECONDS = 1.0

#: Built problems kept between admission and promotion, at most.
_BUILT_STASH = 64

#: What the core owes the network: ``(peer, message)`` pairs, in order.
Outbox = List[Tuple[str, Any]]


@dataclass
class ServiceConfig:
    """Tuning of the multi-tenant solve server."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = let the OS pick; see SolveService.address
    duplication_threshold: int = 64
    checkpoint_dir: Optional[Path] = None
    checkpoint_period: float = 2.0
    deadline: Optional[float] = None  # wall-clock cap; None serves forever
    poll_interval: float = 0.05
    lease_seconds: Optional[float] = 30.0
    peer_timeout: Optional[float] = 30.0
    linger_seconds: float = 10.0  # grace for Byes once draining
    resume: bool = False  # rebuild the job table from checkpoint_dir
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    drain_when_idle: bool = False  # exit once every seen job settled


def _job_root(problem: Any, root: Optional[Tuple[int, int]]) -> Interval:
    """The job's root interval: ``root`` clipped to the tree, or all of it."""
    whole = Interval(0, problem.total_leaves())
    if root is None:
        return whole
    clipped = Interval.from_tuple(root).intersect(whole)
    if clipped.is_empty():
        raise ValueError(f"interval {root} does not overlap {whole}")
    return clipped


class ServiceCore:
    """The job queue, the scheduler and the per-job coordinators — no IO.

    ``now`` is the driver's clock, in seconds, at construction and at
    every call; ``now + wall_offset`` is the Unix time stamped on a job
    record (``submitted_at``, read back across restarts).
    """

    def __init__(
        self, config: Optional[ServiceConfig] = None, now: float = 0.0, wall_offset: float = 0.0
    ):
        self.config = config or ServiceConfig()
        if self.config.resume and self.config.checkpoint_dir is None:
            raise RuntimeProtocolError("--resume requires a checkpoint directory")
        self._now = now  # the latest time a driver gave
        self.wall_offset = wall_offset
        self.jobs = JobStore(self.config.checkpoint_dir)
        self.scheduler = Scheduler(self.config.scheduler)
        self.coordinators: Dict[str, Coordinator] = {}  # the running jobs
        # Problems built at admission, awaiting promotion (job id -> it).
        self._built: Dict[str, Any] = {}
        # At-least-once cache, one entry per peer: its last seq and reply.
        self._last_seq: Dict[str, int] = {}
        self._last_reply: Dict[str, Any] = {}
        # Parked RPCs: sender -> (message, deadline), oldest first.  A
        # peer has one RPC in flight, so one entry each.
        self._parked: Dict[str, Tuple[Any, float]] = {}
        self._outbox: Outbox = []
        self._clients: Set[str] = set()
        self.byes: Dict[str, Dict[str, float]] = {}
        self._departed: Set[str] = set()  # said Bye, or were released
        self.work_allocations = 0
        self.requests_idled = 0
        self.notices_sent = 0
        self.duplicates_ignored = 0
        self.leases_expired: List[str] = []
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.jobs_cancelled = 0
        self.protocol_errors = 0
        self.draining = False  # every job settled: Requests hear Terminate
        if self.config.resume:
            self.jobs.recover()
        self.epoch = self.jobs.bump_epoch()
        if self.config.resume:
            # Jobs that were mid-flight when the previous incarnation
            # died resume from their own snapshot+journal (a replay may
            # prove one outright); queued jobs wait for promotion again.
            for record in self.jobs.in_status(RUNNING):
                if self._start_job(record, recover=True):
                    self._settle_if_proved(record.job_id)
        self._promote()

    # ------------------------------------------------------------------
    # the two entry points
    # ------------------------------------------------------------------
    def handle(self, message: Any, now: float) -> Outbox:
        """Handle one message heard at ``now``: notices, then the reply."""
        self._now = now
        outbox = self._outbox = []
        try:
            reply = self._dispatch(message)
        except RuntimeProtocolError:
            # One bad peer must not take the service down.
            self.protocol_errors += 1
            return outbox
        if reply is not None:
            outbox.append((message.worker, reply))
        return outbox

    def tick(self, now: float, connected: Collection[str]) -> Outbox:
        """Between messages: answer what parked replies exist by ``now``
        (only to the ``connected`` peers), checkpoint, expire leases."""
        self._now = now
        outbox = self._outbox = []
        if self._parked:
            self._flush_parked(now, set(connected))
        for coordinator in self.coordinators.values():
            coordinator.maybe_checkpoint(now)
            self.leases_expired.extend(coordinator.check_leases(now))
        return outbox

    # ------------------------------------------------------------------
    # job lifecycle
    # ------------------------------------------------------------------
    def _start_job(self, record: JobRecord, recover: bool = False) -> bool:
        """Promote ``record`` to running (or fail it durably)."""
        try:
            problem = self._built.pop(record.job_id, None)
            if problem is None:  # --resume, or it outlived the stash
                problem = build_problem(record.spec_wire)
            root = _job_root(problem, record.root)
        except Exception as exc:  # noqa: BLE001 - tenant input, not ours
            record.status = FAILED
            record.error = f"spec failed to build: {exc}"
            self.jobs.persist(record)
            self.jobs_failed += 1
            return False
        store = self.jobs.checkpoint_store(record.job_id)
        config = self.config
        # What the farmer costs pushed solutions with: a spec's problem.
        # The simulator's workload is no Problem, and its synthetic
        # solutions cannot be checked (Coordinator).
        checkable = problem if isinstance(problem, Problem) else None
        if recover and store is not None:
            coordinator = Coordinator.recover(
                store,
                root,
                duplication_threshold=config.duplication_threshold,
                checkpoint_period=config.checkpoint_period,
                lease_seconds=config.lease_seconds,
                problem=checkable,
            )
            # A job's grants and nodes count one incarnation, the one
            # that settles it: both restart with the coordinator.
            record.work_allocations = 0
        else:
            coordinator = Coordinator(
                root,
                duplication_threshold=config.duplication_threshold,
                store=store,
                checkpoint_period=config.checkpoint_period,
                initial_best=Incumbent(),
                lease_seconds=config.lease_seconds,
                problem=checkable,
            )
        if record.cost is not None:  # the admitting caller's incumbent
            coordinator.solution.update(record.cost, record.solution)
        seed_incumbent(problem, coordinator.solution, root)
        self.coordinators[record.job_id] = coordinator
        if record.status != RUNNING:
            record.status = RUNNING
            if record.submitted_at:
                record.queue_wait_seconds = max(
                    0.0, self._now + self.wall_offset - record.submitted_at
                )
            self.jobs.persist(record)
        return True

    def _settle_if_proved(self, job_id: str) -> None:
        """Settle ``job_id`` as done if its INTERVALS emptied (§4.3)."""
        if self.coordinators[job_id].intervals.is_empty():
            record = self.jobs.get(job_id)
            assert record is not None  # records outlive coordinators
            self.jobs_completed += 1
            self._settle(record, DONE, self.coordinators.pop(job_id))

    def _cancel_job(self, record: JobRecord) -> None:
        self._built.pop(record.job_id, None)
        self.jobs_cancelled += 1
        self._settle(record, CANCELLED, self.coordinators.pop(record.job_id, None))

    def _settle(self, record: JobRecord, status: str, coordinator: Optional[Coordinator]) -> None:
        """Write the one thing recovery reads of a settled job: its meta.

        No final snapshot: if the crash beats this write the job is still
        ``running`` and snapshot + journal replay re-derive its ledger.
        The write settles the job's checkpoint records, and the job
        forgets its spec.  Its slot then goes to the next queued job.
        """
        record.status = status
        record.forget_spec()
        if coordinator is not None:
            record.cost = coordinator.solution.cost
            record.solution = coordinator.solution.solution
            record.nodes_explored = coordinator.nodes_explored
            record.updates = coordinator.worker_checkpoint_ops
            record.redundant_rate = coordinator.redundant_rate(coordinator.root.length)
        self.jobs.persist(record)
        self._promote()

    def _promote(self) -> None:
        """Fill free running slots; a drain-when-idle core with every job
        settled starts draining."""
        while True:
            candidate = self.scheduler.next_promotion(
                self.jobs.in_status(QUEUED), self.jobs.in_status(RUNNING)
            )
            if candidate is None:
                break
            self._start_job(candidate)
        if (
            self.config.drain_when_idle
            and len(self.jobs) > 0
            and not self.jobs.in_status(QUEUED, RUNNING)
        ):
            self.draining = True

    # ------------------------------------------------------------------
    # message handling
    # ------------------------------------------------------------------
    def _dedup(self, sender: str, seq: int) -> Tuple[bool, Any]:
        """The at-least-once cache: is this a retry, and what was said."""
        if seq > 0:
            last = self._last_seq.get(sender, 0)
            parked = self._parked.get(sender)
            if seq <= last or (parked is not None and parked[0].seq == seq):
                # A retry or a duplicate: the reply already sent, or none
                # (a stale seq; a retry of the parked RPC stays parked).
                self.duplicates_ignored += 1
                return True, self._last_reply.get(sender) if seq == last else None
        self._parked.pop(sender, None)  # a newer RPC abandons the parked one
        return False, None

    def _remember(self, sender: str, seq: int, reply: Any) -> Any:
        if seq > 0:
            if reply is not None:
                reply.seq = seq
            self._last_seq[sender] = seq
            self._last_reply[sender] = reply
        return reply

    def _dispatch(self, message: Any) -> Optional[Any]:
        if isinstance(message, (Update, Push)):  # the common ones first
            return self._on_work(message)
        if isinstance(message, Request):
            return self._on_request(message)
        if isinstance(message, Bye):
            return self._on_bye(message)
        if isinstance(message, SubmitJob):
            return self._on_client(
                message, lambda m: self.admit(m.spec, m.owner, m.priority)
            )
        if isinstance(message, JobStatusRequest):
            return self._on_client(message, self._on_status)
        if isinstance(message, CancelJob):
            return self._on_client(message, self._on_cancel)
        if isinstance(message, ListJobs):
            return self._on_client(message, self._on_list)
        raise RuntimeProtocolError(
            f"service cannot handle {type(message).__name__}"
        )

    # -- workers -------------------------------------------------------
    def _on_request(self, msg: Request) -> Any:
        check_power(msg)  # before it can park: the flush would grant it
        cached, reply = self._dedup(msg.worker, msg.seq)
        if cached:
            return reply
        reply = self._grant_for(msg)
        if reply is None:
            self.requests_idled += 1
            self._park(msg, KEEPALIVE_SECONDS)
            return None
        return self._remember(msg.worker, msg.seq, reply)

    def _grant_for(self, msg: Request) -> Any:
        """A job's GrantWork (Terminate when draining); None: no job has work."""
        while not self.draining:
            runnable: List[Tuple[JobRecord, int]] = []
            gated: List[Tuple[JobRecord, int]] = []
            for record in self.jobs.in_status(RUNNING):
                coordinator = self.coordinators.get(record.job_id)
                if coordinator is None:
                    continue
                # A job that fits inside its holder's first slice is
                # not worth a second grant: can_use_requester().
                entry = (record, len(coordinator.intervals.owners()))
                if coordinator.can_use_requester():
                    runnable.append(entry)
                else:
                    gated.append(entry)
            if not runnable and self.config.drain_when_idle:
                # No later job will come to use the worker parking would
                # idle: a one-shot service grants into a gated job.
                runnable = gated
            record = self.scheduler.pick_grant(runnable)
            if record is None:
                return None
            coordinator = self.coordinators[record.job_id]
            grant = coordinator.handle(msg, self._now)
            if isinstance(grant, Terminate):
                # That job just proved empty; settle it and pick again.
                self._settle_if_proved(record.job_id)
                continue
            self._send_notices(record.job_id, coordinator)
            self.work_allocations += 1
            record.work_allocations += 1
            grant.job = record.job_id
            grant.spec = record.spec_wire or None  # a caller-built job has none
            return grant
        return Terminate(float("inf"))

    def _on_work(self, msg: Any) -> Any:
        """An Update or Push, handed to the coordinator of ``msg.job``."""
        cached, reply = self._dedup(msg.worker, msg.seq)
        if cached:
            return reply
        coordinator = self.coordinators.get(msg.job)
        if coordinator is None:
            # The job settled (done/cancelled/failed) while the worker
            # explored, or was never ours: report the slice withdrawn so
            # the explorer folds at once and asks for new work.
            reply = Ack(float("inf"))
            if isinstance(msg, Update):
                record = self.jobs.get(msg.job)
                cost = float("inf")
                if record is not None:
                    # A cut twin's last slice is still the job's work:
                    # its nodes count, so the job's ledger matches the Byes.
                    record.nodes_explored += msg.nodes
                    record.updates += 1
                    if record.cost is not None:
                        cost = record.cost
                begin = msg.interval[0]
                reply = Reconciled((begin, begin), cost)
        else:
            reply = coordinator.handle(msg, self._now)
            self._send_notices(msg.job, coordinator)
            if isinstance(msg, Update):
                self._settle_if_proved(msg.job)
        return self._remember(msg.worker, msg.seq, reply)

    def _send_notices(self, job_id: str, coordinator: Coordinator) -> None:
        """Tell the job's other holders of a cut or a lower bound.

        A notice is no reply — it waits for nothing and may overtake the
        reply to the message that caused it, which goes to someone else.
        """
        for worker, notice in coordinator.take_notices():
            notice.job = job_id
            self.notices_sent += 1
            self._outbox.append((worker, notice))

    def _on_bye(self, msg: Bye) -> Any:
        self.byes[msg.worker] = msg.stats
        self.release_worker(msg.worker)
        reply: Any = Ack(float("inf"))
        reply.seq = msg.seq
        return reply

    def release_worker(self, worker: str) -> None:
        """``worker`` is gone — it said Bye, or its process exited without
        one (``solve_parallel``'s sentinel): its copies go back to every
        job's INTERVALS, and a draining service stops waiting for it."""
        self._departed.add(worker)
        self._parked.pop(worker, None)
        for coordinator in self.coordinators.values():
            coordinator.release_worker(worker)

    # -- clients -------------------------------------------------------
    def _on_client(self, msg: Any, handler: Any) -> Any:
        self._clients.add(msg.worker)
        cached, reply = self._dedup(msg.worker, msg.seq)
        if cached:
            return reply
        reply = handler(msg)
        if reply is None:  # parked
            return None
        return self._remember(msg.worker, msg.seq, reply)

    def admit(
        self,
        spec_wire: Dict[str, Any],
        owner: str = "anonymous",
        priority: int = 1,
        root: Optional[Tuple[int, int]] = None,
        incumbent: Optional[Incumbent] = None,
        problem: Any = None,
        job_id: Optional[str] = None,
    ) -> Any:
        """Admit one job: ``JobAccepted`` with its id, or ``JobRefused``.

        Every ``SubmitJob`` lands here, and so do the one job of
        ``repro grid serve``, of ``solve_parallel`` and of the
        simulator: the callers that pass a ``root`` — a leaf-number
        slice of the tree to solve instead of all of it — or an
        ``incumbent`` to start from (kept in the job's record, so a
        resumed job starts from it too).  The simulator passes its own
        ``problem`` (anything with ``total_leaves`` and ``warm_start``)
        under an empty spec, so its grants carry none, and the
        ``job_id`` ``""`` the protocol keeps for a single-job run.
        """
        if self.draining:
            return JobRefused("service is draining")
        refusal = self.scheduler.admission_error(
            self.jobs.in_status(QUEUED), priority
        )
        if refusal is not None:
            return JobRefused(refusal)
        try:
            # Build once to validate: a spec that cannot produce a
            # problem must bounce at the front door, not fail the job
            # minutes later in the scheduler.
            if problem is None:
                problem = build_problem(spec_wire)
            _job_root(problem, root)
        except Exception as exc:  # noqa: BLE001 - tenant input
            return JobRefused(f"spec rejected: {exc}")
        record = self.jobs.create(
            spec_wire,
            owner=owner,
            priority=priority,
            job_id=job_id,
            persist=False,
            root=root,
            submitted_at=self._now + self.wall_offset,
        )
        if incumbent is not None and incumbent.cost < float("inf"):
            record.cost, record.solution = incumbent.cost, incumbent.solution
        # Popped by promotion; one pushed out of the stash is rebuilt.
        self._built[record.job_id] = problem
        if len(self._built) > _BUILT_STASH:
            del self._built[next(iter(self._built))]
        # A free running slot is taken here and now, so the record is
        # written once (as running) — either way before the ack leaves.
        self._promote()
        if record.status == QUEUED:
            self.jobs.persist(record)
        return JobAccepted(record.job_id)

    def _job_status(self, record: JobRecord) -> JobStatus:
        coordinator = self.coordinators.get(record.job_id)
        if coordinator is not None:
            best_cost = coordinator.solution.cost
            nodes = coordinator.nodes_explored
        else:
            best_cost = (
                record.cost if record.cost is not None else float("inf")
            )
            nodes = record.nodes_explored
        return JobStatus(
            job=record.job_id,
            status=record.status,
            best_cost=best_cost,
            solution=record.solution if record.status == DONE else None,
            owner=record.owner,
            priority=record.priority,
            nodes=nodes,
            error=record.error,
        )

    def _on_status(self, msg: JobStatusRequest) -> Any:
        record = self.jobs.get(msg.job)
        if record is None:
            return JobStatus(job=msg.job, status="unknown")
        if msg.wait > 0 and not record.is_terminal():
            self._park(msg, msg.wait)
            return None
        return self._job_status(record)

    def _on_cancel(self, msg: CancelJob) -> Any:
        record = self.jobs.get(msg.job)
        if record is None:
            return JobStatus(job=msg.job, status="unknown")
        if record.status in (QUEUED, RUNNING):
            self._cancel_job(record)
        return self._job_status(record)

    def _on_list(self, msg: ListJobs) -> Any:
        summaries = [
            record.summary()
            for record in self.jobs.records()
            if not msg.owner or record.owner == msg.owner
        ]
        return JobList(summaries)

    # -- parked replies ------------------------------------------------
    def _park(self, msg: Any, wait: float) -> None:
        """Hold ``msg``'s reply back ``wait`` s, at most the keep-alive."""
        self._parked[msg.worker] = (msg, self._now + min(wait, KEEPALIVE_SECONDS))

    def _flush_parked(self, now: float, connected: Set[str]) -> None:
        """Answer every parked RPC whose reply exists by now, oldest first."""
        starved = False  # a Request already found no job with work
        for sender, (msg, deadline) in list(self._parked.items()):
            expired = now >= deadline
            reply: Any = None
            if sender not in connected:
                # Never grant to a peer that cannot hear it (the slice
                # would idle until its lease ran out).  The entry goes
                # at its keep-alive; a peer that returns re-sends.
                if expired:
                    del self._parked[sender]
                continue
            if isinstance(msg, Request):
                if not starved:
                    reply = self._grant_for(msg)
                    starved = reply is None
                if reply is None and expired:
                    reply = Idle()
            else:
                record = self.jobs.get(msg.job)
                assert record is not None  # parked for a known job
                if expired or record.is_terminal():
                    reply = self._job_status(record)
            if reply is not None:
                del self._parked[sender]
                self._outbox.append(
                    (sender, self._remember(sender, msg.seq, reply))
                )
