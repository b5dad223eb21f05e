"""The solve server: N farmers behind one listener — the only farmer pump.

:class:`SolveService` pumps one listener (its own
:class:`~repro.grid.net.tcp.TcpListener` unless handed one) and keeps
**one :class:`~repro.grid.runtime.coordinator.Coordinator` per running
job**, letting the
:class:`~repro.grid.service.scheduler.Scheduler` decide which job feeds
each hungry worker.  Workers stay dumb interval-explorers: a
``Request`` comes in untagged, the service picks a job, hands the
Request to that job's coordinator, and stamps the job id and the job's
spec on the ``GrantWork`` it returns; the worker then stamps the same
id on its ``Update``/``Push`` and the service passes each one to that
job's coordinator unchanged.

``repro grid serve`` and ``solve_parallel`` are this service with one
job: each admits its job in process through :meth:`SolveService.admit`
(the path every ``SubmitJob`` takes) and drains once that job settles.
A service that drains when idle never parks a worker while a job runs
(:meth:`SolveService._grant_for`).

Crash-only by construction: job metadata transitions go through the
durable :class:`~repro.grid.service.store.JobStore`, per-job
INTERVALS/SOLUTION pairs checkpoint through each coordinator's own
:class:`~repro.core.checkpoint.CheckpointStore` (journal included),
and a restart with ``resume=True`` rebuilds the queue from
``jobs/*/meta.json``, recovering every job that was mid-flight.  The
service epoch rides the Welcome, so workers that survive a restart
resync their interval copies.

Per-job coordinators keep their own at-least-once dedup caches — a
worker's global sequence counter interleaves across jobs, but each
coordinator still sees a strictly increasing subsequence, so retry
detection is intact.  The service layer keeps one more cache, over
every sequenced RPC it answers: Requests and client RPCs, whose
replies (job choice, scheduling) are composed *above* any one
coordinator, and Updates/Pushes, whose retry can arrive after the
job's coordinator is gone.

A worker that moves between jobs may let an old job's lease expire;
the §4.1 interval invariant turns that into redundant exploration,
never lost work — same guarantee as a worker crash.

No peer naps or polls: an RPC the service cannot answer usefully yet —
a ``Request`` while no job has work, a ``JobStatusRequest`` with
``wait`` > 0 while its job is unsettled — is **parked**, and the pump
re-evaluates the parked table on every iteration, right after it has
settled finished jobs and promoted queued ones.  Nothing stays parked
past :data:`KEEPALIVE_SECONDS` (see docs/service.md).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.interval import Interval
from repro.core.problem import seed_incumbent
from repro.core.stats import Incumbent
from repro.exceptions import RuntimeProtocolError
from repro.grid.net.tcp import TcpListener
from repro.grid.net.transport import Listener, TransportTimeout
from repro.grid.runtime.coordinator import Coordinator
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
    spec_from_wire,
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

__all__ = ["ServiceConfig", "ServiceReport", "SolveService"]

#: Longest a reply stays parked before the peer hears ``Idle`` / the
#: current status and asks again: far inside any workable
#: ``reply_timeout``, so a healthy server never looks like a dead one.
KEEPALIVE_SECONDS = 1.0

#: Built problems kept between admission and promotion, at most.
_BUILT_STASH = 64


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
    journal: bool = True
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    drain_when_idle: bool = False  # exit once every seen job settled


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


def _job_root(problem: Any, root: Optional[Tuple[int, int]]) -> Interval:
    """The job's root interval: ``root`` clipped to the tree, or all of it."""
    whole = Interval(0, problem.total_leaves())
    if root is None:
        return whole
    clipped = Interval.from_tuple(root).intersect(whole)
    if clipped.is_empty():
        raise ValueError(f"interval {root} does not overlap {whole}")
    return clipped


class SolveService:
    """A job-queue front door over the shared worker fleet."""

    def __init__(
        self, config: Optional[ServiceConfig] = None, listener: Optional[Listener] = None
    ):
        """``listener``, if given, replaces a TCP listener on
        ``config.host:port``; its owner closes it."""
        self.config = config or ServiceConfig()
        if self.config.resume and self.config.checkpoint_dir is None:
            raise RuntimeProtocolError(
                "--resume requires a checkpoint directory"
            )
        self.jobs = JobStore(self.config.checkpoint_dir)
        self.scheduler = Scheduler(self.config.scheduler)
        self._coordinators: Dict[str, Coordinator] = {}
        # Problems built at admission, awaiting promotion (job id -> it).
        self._built: Dict[str, Any] = {}
        if self.config.resume:
            self.jobs.recover()
        self.epoch = self.jobs.bump_epoch()
        if self.config.resume:
            # Jobs that were mid-flight when the previous incarnation
            # died resume from their own snapshot+journal; queued jobs
            # just wait for promotion again.
            for record in self.jobs.in_status(RUNNING):
                self._start_job(record, recover=True)
        self._owns_listener = listener is None
        self.listener: Listener = listener or TcpListener(
            self.config.host,
            self.config.port,
            peer_timeout=self.config.peer_timeout,
            epoch=self.epoch,
        )
        # Service-layer at-least-once caches, one entry per peer; each
        # job's coordinator also dedups the Updates/Pushes it sees.
        self._last_seq: Dict[str, int] = {}
        self._last_reply: Dict[str, Any] = {}
        # Parked RPCs: sender -> (message, monotonic deadline), oldest
        # first.  A peer has one RPC in flight, so one entry each.
        self._parked: Dict[str, Tuple[Any, float]] = {}
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
        self._jobs_seen = len(self.jobs)
        self._draining = False
        self._shutdown = False
        self._abort = False

    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
    # job lifecycle
    # ------------------------------------------------------------------
    def _start_job(self, record: JobRecord, recover: bool = False) -> bool:
        """Promote ``record`` to running (or fail it durably)."""
        try:
            problem = self._built.pop(record.job_id, None)
            if problem is None:  # --resume, or it outlived the stash
                problem = spec_from_wire(record.spec_wire).build()
            root = _job_root(problem, record.root)
        except Exception as exc:  # noqa: BLE001 - tenant input, not ours
            record.status = FAILED
            record.error = f"spec failed to build: {exc}"
            self.jobs.persist(record)
            self.jobs_failed += 1
            return False
        store = self.jobs.checkpoint_store(record.job_id)
        config = self.config
        if recover and store is not None:
            coordinator = Coordinator.recover(
                store,
                root,
                duplication_threshold=config.duplication_threshold,
                checkpoint_period=config.checkpoint_period,
                lease_seconds=config.lease_seconds,
                journal=config.journal,
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
                journal=config.journal,
            )
        if record.cost is not None:  # the admitting caller's incumbent
            coordinator.solution.update(record.cost, record.solution)
        seed_incumbent(problem, coordinator.solution, root)
        self._coordinators[record.job_id] = coordinator
        if record.status != RUNNING:
            record.status = RUNNING
            if record.submitted_at:
                record.queue_wait_seconds = max(
                    0.0, time.time() - record.submitted_at
                )
            self.jobs.persist(record)
        return True

    def _finalize_job(self, record: JobRecord) -> None:
        """A job's interval set emptied: persist the proof, free the slot."""
        coordinator = self._coordinators.pop(record.job_id, None)
        if coordinator is None:
            return
        self._settle(record, DONE, coordinator)
        self.jobs_completed += 1

    def _cancel_job(self, record: JobRecord) -> None:
        self._built.pop(record.job_id, None)
        self._settle(
            record, CANCELLED, self._coordinators.pop(record.job_id, None)
        )
        self.jobs_cancelled += 1

    def _settle(
        self, record: JobRecord, status: str, coordinator: Optional[Coordinator]
    ) -> None:
        """Write the one thing recovery reads of a settled job: its meta.

        No final snapshot: if the crash beats this write the job is still
        ``running`` and snapshot + journal replay re-derive its ledger.
        """
        record.status = status
        if coordinator is not None:
            record.cost = coordinator.solution.cost
            record.solution = coordinator.solution.solution
            record.nodes_explored = coordinator.nodes_explored
            record.updates = coordinator.worker_checkpoint_ops
            record.redundant_rate = coordinator.redundant_rate(
                coordinator.root.length
            )
        self.jobs.persist(record)
        self.jobs.drop_checkpoint(record.job_id)

    def _sweep_finished(self) -> None:
        for job_id in list(self._coordinators):
            if self._coordinators[job_id].intervals.is_empty():
                record = self.jobs.get(job_id)
                if record is not None:
                    self._finalize_job(record)
                else:  # pragma: no cover - records outlive coordinators
                    self._coordinators.pop(job_id, None)

    def _promote(self) -> None:
        while True:
            candidate = self.scheduler.next_promotion(
                self.jobs.in_status(QUEUED), self.jobs.in_status(RUNNING)
            )
            if candidate is None:
                return
            self._start_job(candidate)

    # ------------------------------------------------------------------
    # message handling
    # ------------------------------------------------------------------
    def _dedup(self, sender: str, seq: int) -> Tuple[bool, Any]:
        """Service-layer retry cache (same discipline as the coordinator)."""
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

    def _handle(self, message: Any) -> Optional[Any]:
        if isinstance(message, Request):
            return self._on_request(message)
        if isinstance(message, (Update, Push)):
            return self._on_work(message)
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
        if self._draining:
            return Terminate(float("inf"))
        while True:
            runnable: List[Tuple[JobRecord, int]] = []
            gated: List[Tuple[JobRecord, int]] = []
            for record in self.jobs.in_status(RUNNING):
                coordinator = self._coordinators.get(record.job_id)
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
            coordinator = self._coordinators[record.job_id]
            # The coordinator caches its reply under the worker's seq
            # too; harmless, but the authoritative cache for Requests is
            # the service layer's, since the job choice is made here.
            grant = coordinator.handle(msg)
            if isinstance(grant, Terminate):
                # That job just proved empty; settle it and pick again.
                self._finalize_job(record)
                continue
            if grant is None:  # pragma: no cover - seq cached upstream
                return None
            self._send_notices(record.job_id, coordinator)
            self.work_allocations += 1
            record.work_allocations += 1
            grant.job = record.job_id
            grant.spec = record.spec_wire
            return grant

    def _on_work(self, msg: Any) -> Any:
        """An Update or Push, handed to the coordinator of ``msg.job``."""
        # A retry can outlive its job's coordinator (and its cache), so
        # the service remembers these replies too: nothing counts twice.
        cached, reply = self._dedup(msg.worker, msg.seq)
        if cached:
            return reply
        coordinator = self._coordinators.get(msg.job)
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
            reply = coordinator.handle(msg)
            self._send_notices(msg.job, coordinator)
        return self._remember(msg.worker, msg.seq, reply)

    def _send_notices(self, job_id: str, coordinator: Coordinator) -> None:
        """Tell the job's other holders of a cut or a lower bound.

        A notice is no reply — it waits for nothing and may overtake the
        reply to the message that caused it, which goes to someone else.
        """
        for worker, notice in coordinator.take_notices():
            notice.job = job_id
            self.notices_sent += 1
            self.listener.send(worker, notice)

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
        for coordinator in self._coordinators.values():
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
    ) -> Any:
        """Admit one job: ``JobAccepted`` with its id, or ``JobRefused``.

        Every ``SubmitJob`` lands here, and so do the one job of
        ``repro grid serve`` and of ``solve_parallel``, the callers that
        pass a ``root`` — a leaf-number slice of the tree to solve
        instead of all of it — or an ``incumbent`` to start from (kept
        in the job's record, so a resumed job starts from it too).
        """
        if self._draining:
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
            problem = spec_from_wire(spec_wire).build()
            _job_root(problem, root)
        except Exception as exc:  # noqa: BLE001 - tenant input
            return JobRefused(f"spec rejected: {exc}")
        record = self.jobs.create(
            spec_wire, owner=owner, priority=priority, persist=False, root=root
        )
        if incumbent is not None and incumbent.cost < float("inf"):
            record.cost, record.solution = incumbent.cost, incumbent.solution
        self._jobs_seen += 1
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
        coordinator = self._coordinators.get(record.job_id)
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
        deadline = time.monotonic() + min(wait, KEEPALIVE_SECONDS)
        self._parked[msg.worker] = (msg, deadline)

    def _flush_parked(self, now: float) -> None:
        """Send every parked reply that exists by now, oldest first."""
        if not self._parked:
            return
        connected = set(self.listener.connected_workers())
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
                self.listener.send(
                    sender, self._remember(sender, msg.seq, reply)
                )

    # ------------------------------------------------------------------
    # the pump
    # ------------------------------------------------------------------
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
                self._sweep_finished()
                self._promote()
                if (
                    config.drain_when_idle
                    and self._jobs_seen > 0
                    and not self.jobs.in_status(QUEUED, RUNNING)
                ):
                    self._draining = True
                self._flush_parked(now)
                if self._draining:
                    if drained_since is None:
                        drained_since = now
                    remaining = (
                        set(listener.connected_workers()) - self._clients
                    )
                    if remaining <= self._departed:
                        break
                    if now - drained_since > config.linger_seconds:
                        break
                else:
                    drained_since = None
                for coordinator in self._coordinators.values():
                    coordinator.maybe_checkpoint()
                try:
                    message = listener.recv(timeout=config.poll_interval)
                except TransportTimeout:
                    self._check_leases()
                    listener.flush()  # a delayed reply must not strand its peer
                    if tick is not None:
                        tick(None)
                    continue
                try:
                    reply = self._handle(message)
                except RuntimeProtocolError:
                    # One bad peer must not take the service down.
                    self.protocol_errors += 1
                    continue
                if reply is not None:
                    listener.send(message.worker, reply)
                self._check_leases()
                if tick is not None:
                    tick(message)
        finally:
            if not self._abort:
                for coordinator in self._coordinators.values():
                    coordinator.maybe_checkpoint(force=True)
                listener.flush()
            if self._owns_listener:
                listener.close()
        return self._report(time.monotonic() - started)

    def _check_leases(self) -> None:
        for coordinator in self._coordinators.values():
            self.leases_expired.extend(coordinator.check_leases())

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
