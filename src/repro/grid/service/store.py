"""The service's job ledger: queue state over the durable checkpoint API.

A :class:`JobRecord` is everything the service knows about one job:
its problem spec in wire form, owner, priority, status and — once the
job settles — the proved result.  :class:`JobStore` keeps the records
in memory and mirrors every transition into a
:class:`~repro.core.checkpoint.MultiJobStore` when a checkpoint
directory is configured, so the service is crash-only: a status is
true the moment the meta record's append returns, and a restarted
service rebuilds its whole queue from the meta records of its
``service.log`` plus each running job's snapshot and reconciliations.

Job ids are **opaque strings** (rule RC11): the store mints them from
``uuid4`` and orders jobs by their admission counter (``order``),
never by id.
"""

from __future__ import annotations

import json
import uuid
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.checkpoint import LoggedJob, MultiJobStore
from repro.exceptions import CheckpointError

__all__ = [
    "QUEUED",
    "RUNNING",
    "DONE",
    "CANCELLED",
    "FAILED",
    "TERMINAL",
    "JobRecord",
    "JobStore",
]

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
CANCELLED = "cancelled"
FAILED = "failed"

#: States a job never leaves.
TERMINAL = frozenset({DONE, CANCELLED, FAILED})


@dataclass
class JobRecord:
    """One job's durable state (mirrors its meta records in the log)."""

    job_id: str
    spec_wire: Dict[str, Any]
    owner: str = "anonymous"
    priority: int = 1
    order: int = 0  # admission counter: the FIFO key (never the id)
    status: str = QUEUED
    submitted_at: float = 0.0  # wall clock, for operators reading meta
    queue_wait_seconds: Optional[float] = None
    # The best known: the admitting caller's incumbent, if it gave one,
    # until the job settles with its proved result.
    cost: Optional[float] = None
    solution: Any = None
    error: str = ""
    nodes_explored: int = 0
    updates: int = 0  # Updates the job's ledger took (its checkpoint operations)
    redundant_rate: float = 0.0  # share of leaves explored twice, at settle
    work_allocations: int = 0  # grants made for this job (durable with its status)
    root: Optional[Tuple[int, int]] = None  # a slice of the tree; None: all of it
    spec_digest: str = ""  # what a settled job keeps of its spec

    def is_terminal(self) -> bool:
        return self.status in TERMINAL

    def forget_spec(self) -> None:
        """Drop the spec, keeping its digest: nothing reads a settled
        job's spec but :meth:`solves`."""
        if self.spec_wire:
            self.spec_digest = _digest(self.spec_wire)
            self.spec_wire = {}

    def solves(self, spec_wire: Dict[str, Any], root: Optional[Tuple[int, int]]) -> bool:
        """Whether this job is ``spec_wire`` over ``root``, settled or not."""
        if self.spec_wire:
            return (self.spec_wire, self.root) == (spec_wire, root)
        return (self.spec_digest, self.root) == (_digest(spec_wire), root)

    def meta(self) -> Dict[str, Any]:
        return {
            "owner": self.owner,
            "priority": self.priority,
            "order": self.order,
            "status": self.status,
            "spec": dict(self.spec_wire),
            "submitted_at": self.submitted_at,
            "queue_wait_seconds": self.queue_wait_seconds,
            "cost": self.cost,
            "solution": list(self.solution)
            if isinstance(self.solution, (list, tuple))
            else self.solution,
            "error": self.error,
            "nodes_explored": self.nodes_explored,
            "updates": self.updates,
            "redundant_rate": self.redundant_rate,
            "work_allocations": self.work_allocations,
            # Decimal strings, as in the journal: endpoints exceed 2**53.
            "root": None if self.root is None else [str(x) for x in self.root],
            "spec_digest": self.spec_digest,
        }

    @classmethod
    def from_meta(cls, job_id: str, meta: Dict[str, Any]) -> "JobRecord":
        solution = meta.get("solution")
        if isinstance(solution, list):
            solution = tuple(solution)
        root = meta.get("root")
        return cls(
            job_id=job_id,
            spec_wire=dict(meta.get("spec", {})),
            owner=str(meta.get("owner", "anonymous")),
            priority=int(meta.get("priority", 1)),
            order=int(meta.get("order", 0)),
            status=str(meta.get("status", QUEUED)),
            submitted_at=float(meta.get("submitted_at", 0.0)),
            queue_wait_seconds=meta.get("queue_wait_seconds"),
            cost=meta.get("cost"),
            solution=solution,
            error=str(meta.get("error", "")),
            nodes_explored=int(meta.get("nodes_explored", 0)),
            updates=int(meta.get("updates", 0)),
            redundant_rate=float(meta.get("redundant_rate", 0.0)),
            work_allocations=int(meta.get("work_allocations", 0)),
            root=None if root is None else (int(root[0]), int(root[1])),
            spec_digest=str(meta.get("spec_digest", "")),
        )

    def summary(self) -> Dict[str, Any]:
        """The JSON-able shape :class:`~...protocol.JobList` carries."""
        return {
            "job": self.job_id,
            "status": self.status,
            "owner": self.owner,
            "priority": self.priority,
            "cost": self.cost,
            "nodes": self.nodes_explored,
            "error": self.error,
        }


class JobStore:
    """In-memory job table mirrored into the durable multi-job layout.

    With ``directory=None`` the store is purely in-memory (unit tests,
    throwaway services); otherwise every :meth:`persist` appends one
    meta record to the service log and :meth:`recover` reloads the
    full table.
    """

    def __init__(self, directory: Optional[Path] = None):
        self.disk: Optional[MultiJobStore] = (
            MultiJobStore(Path(directory)) if directory is not None else None
        )
        if self.disk is not None and self.disk.solver_jobs():
            self.disk.close()
            raise CheckpointError(
                f"{directory} holds a `repro solve` checkpoint, not a "
                f"service's jobs: a service keeps its log in a directory "
                f"of its own"
            )
        self._records: Dict[str, JobRecord] = {}
        # The unsettled few, in admission order: what the service asks
        # about on every message, however many jobs it has ever settled.
        self._unsettled: Dict[str, JobRecord] = {}
        self._order_counter = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def create(
        self,
        spec_wire: Dict[str, Any],
        owner: str = "anonymous",
        priority: int = 1,
        job_id: Optional[str] = None,
        persist: bool = True,
        root: Optional[Tuple[int, int]] = None,
        submitted_at: float = 0.0,
    ) -> JobRecord:
        """Admit one job (status ``queued``), durably.

        With ``persist=False`` the caller owes the :meth:`persist` —
        the service, which may promote the job first and so write its
        record once instead of twice.  ``submitted_at`` is the caller's
        Unix time (0: unknown); the store reads no clock.
        """
        if job_id is None:
            job_id = uuid.uuid4().hex[:12]
        if job_id in self._records:
            raise ValueError(f"job id {job_id!r} already exists")
        self._order_counter += 1
        record = JobRecord(
            job_id=job_id,
            spec_wire=dict(spec_wire),
            owner=owner,
            priority=priority,
            order=self._order_counter,
            submitted_at=submitted_at,
            root=root,
        )
        self._records[job_id] = record
        self._unsettled[job_id] = record
        if persist:
            self.persist(record)
        return record

    def persist(self, record: JobRecord) -> None:
        """Mirror the record's current state into the log; a terminal
        record settles the job there too."""
        if self.disk is not None:
            self.disk.save_meta(
                record.job_id, record.meta(), settled=record.is_terminal()
            )
        if record.is_terminal():
            self._unsettled.pop(record.job_id, None)

    def recover(self) -> List[JobRecord]:
        """Reload every on-disk job; returns the recovered records."""
        if self.disk is None:
            return []
        recovered: List[JobRecord] = []
        for job_id in self.disk.job_ids():
            meta = self.disk.load_meta(job_id)
            assert meta is not None  # job_ids() lists the jobs with a meta record
            record = JobRecord.from_meta(job_id, meta)
            self._records[job_id] = record
            recovered.append(record)
            if record.order > self._order_counter:
                self._order_counter = record.order
        recovered.sort(key=lambda r: r.order)
        self._unsettled.update(
            (r.job_id, r) for r in recovered if not r.is_terminal()
        )
        return recovered

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Optional[JobRecord]:
        return self._records.get(job_id)

    def records(self) -> List[JobRecord]:
        """Every record, in admission order."""
        return sorted(self._records.values(), key=lambda r: r.order)

    def in_status(self, *statuses: str) -> List[JobRecord]:
        """Records in any of ``statuses``, in admission order."""
        pool: Iterable[JobRecord] = self._unsettled.values()  # the hot path
        if TERMINAL.intersection(statuses):
            pool = self.records()
        return [r for r in pool if r.status in statuses]

    def __len__(self) -> int:
        return len(self._records)

    # ------------------------------------------------------------------
    # durable plumbing
    # ------------------------------------------------------------------
    def checkpoint_store(self, job_id: str) -> Optional[LoggedJob]:
        """The job's own INTERVALS/SOLUTION checkpoint (None when in-memory)."""
        if self.disk is None:
            return None
        return self.disk.job_store(job_id)

    def close(self) -> None:
        """Close the log's handles; the next write reopens them."""
        if self.disk is not None:
            self.disk.close()

    def bump_epoch(self) -> int:
        """Advance the *service* epoch (0 for an in-memory store)."""
        if self.disk is None:
            return 0
        return self.disk.bump_epoch()


def _digest(spec_wire: Dict[str, Any]) -> str:
    body = json.dumps(spec_wire, sort_keys=True, separators=(",", ":"))
    return format(zlib.crc32(body.encode("utf-8")), "08x")
