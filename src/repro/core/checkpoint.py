"""Checkpointing of ``INTERVALS`` and ``SOLUTION`` (§4.1).

"The coordinator manages a possible failure of the farmer by
periodically saving, in two files, the contents of INTERVALS and
SOLUTION."  Here both go into one record of one append-only log,
:class:`MultiJobStore`'s ``service.log``, which holds every job of a
solve service and the one job of a
:class:`~repro.core.resumable.ResumableSolver`.  Between a job's
snapshots the log keeps its reconciliation events (explored ranges,
incumbent pushes), which shrink the recovery window from
``checkpoint_period`` to the last reconciled update.

Each record is one line, ``<crc32-hex> <json>``, fsynced before its
append returns.  A scan cuts a torn tail (a crash mid-append) at the
last valid record.

Node numbers can exceed 2**53 (``50!`` for Ta056), so intervals are
serialised as decimal strings — Python's ``json`` would emit big ints
fine, but many readers would round-trip them through doubles.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.interval import Interval
from repro.core.interval_set import IntervalSet
from repro.core.stats import Incumbent
from repro.exceptions import CheckpointError

__all__ = [
    "JournalRecord",
    "LoggedJob",
    "MultiJobStore",
    "RecoveredState",
]


@dataclass(frozen=True)
class JournalRecord:
    """One reconciliation event appended after a job's snapshot.

    ``kind`` is ``"explored"`` (a definitely-explored range subtracted
    from INTERVALS on replay) or ``"push"`` (an incumbent improvement).
    """

    kind: str
    interval: Optional[Tuple[int, int]] = None
    cost: Optional[float] = None
    solution: Optional[Any] = None

    def to_doc(self, **extra: Any) -> Dict[str, Any]:
        """The record as a JSON object, with ``extra``."""
        doc: Dict[str, Any] = dict(extra, kind=self.kind)
        if self.interval is not None:
            doc["interval"] = [str(self.interval[0]), str(self.interval[1])]
        if self.cost is not None:
            doc["cost"] = self.cost
        if self.solution is not None:
            doc["solution"] = _jsonable_solution(self.solution)
        return doc

    @classmethod
    def from_doc(cls, doc: Dict[str, Any]) -> "JournalRecord":
        """The record a decoded JSON object holds."""
        kind = doc["kind"]
        if kind not in ("explored", "push"):
            raise ValueError(f"malformed journal record: {doc!r}")
        interval: Optional[Tuple[int, int]] = None
        if "interval" in doc:
            begin, end = doc["interval"]
            interval = (int(begin), int(end))
        solution = doc.get("solution")
        if isinstance(solution, list):
            solution = tuple(solution)
        return cls(kind, interval, doc.get("cost"), solution)


@dataclass
class RecoveredState:
    """What :meth:`LoggedJob.load_state` reconstructed."""

    intervals: Optional[IntervalSet]
    incumbent: Optional[Incumbent]
    replayed_records: int = 0
    replayed_leaves: int = 0


#: The service's one durable file, in its checkpoint directory.
_LOG_NAME = "service.log"
#: Files of the layouts earlier releases wrote: a directory holding one
#: is refused rather than silently started afresh.
_LEGACY_NAMES = ("jobs", "epoch.json", "intervals.json", "solution.json", "journal.log")
#: Compaction runs once the log has grown past this many times its size
#: at the last compaction (or at opening), and never below the floor.
_COMPACT_GROWTH = 2
_COMPACT_FLOOR = 1 << 20
_LOG_KINDS = frozenset({"meta", "snapshot", "explored", "push", "epoch"})


def _frame(body: bytes) -> bytes:
    """One record of the log: ``<crc32-hex> <body>\\n``."""
    return format(zlib.crc32(body), "08x").encode("ascii") + b" " + body + b"\n"


def _parse_log_record(body: bytes) -> Dict[str, Any]:
    doc = json.loads(body)
    if not isinstance(doc, dict) or doc.get("kind") not in _LOG_KINDS:
        raise ValueError(f"malformed service log record: {body[:80]!r}")
    if doc["kind"] != "epoch" and not isinstance(doc.get("job"), str):
        raise ValueError(f"service log record without a job: {body[:80]!r}")
    return doc


def _unframe(line: bytes) -> Optional[Dict[str, Any]]:
    """The record one framed line holds; ``None`` when the line is
    incomplete, fails its CRC or does not parse."""
    if not line.endswith(b"\n") or line[8:9] != b" ":
        return None
    body = line[9:-1]
    if format(zlib.crc32(body), "08x").encode("ascii") != line[:8]:
        return None
    try:
        return _parse_log_record(body)
    except (ValueError, KeyError, TypeError, UnicodeDecodeError):
        return None


def _scan(path: Path) -> Iterator[Tuple[int, Dict[str, Any]]]:
    """Yield ``(offset, record)`` for the valid prefix of the log.

    The first line that is incomplete, fails its CRC or does not parse
    starts the torn tail of a crash mid-append: once the scan is
    exhausted the file is truncated there, durably, so later appends
    cannot interleave with garbage.  A valid record *after* a bad one is
    no torn append but damage to acknowledged records, and raises
    :class:`CheckpointError` rather than dropping what follows.
    """
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return
    torn: Optional[int] = None
    offset = 0
    with fh:
        for line in fh:
            record = _unframe(line)
            if record is None:
                if torn is None:
                    torn = offset
            elif torn is not None:
                raise CheckpointError(
                    f"checksum mismatch in {path}: the record at byte {torn} "
                    f"is damaged and valid records follow it"
                )
            else:
                yield offset, record
            offset += len(line)
    if torn is not None:
        # Durable truncation: if the torn tail came back after a crash,
        # the next append would interleave live records with garbage.
        with open(path, "r+b") as out:
            out.truncate(torn)
            out.flush()
            os.fsync(out.fileno())


class MultiJobStore:
    """Durable state of a checkpoint directory: one append-only log.

    It holds every job of a solve service, or a
    :class:`~repro.core.resumable.ResumableSolver`'s one job.

    ::

        <directory>/service.log     one CRC-framed record per line

    Every write appends one record, fsynced before it returns:

    ``meta``
        a job's metadata.  The spec rides the job's first meta record
        only; a record marked ``settled`` settles the job, which makes
        its spec and checkpoint records dead.
    ``snapshot``
        a job's INTERVALS and SOLUTION in one record.
    ``explored`` / ``push``
        a job's reconciliations since its latest snapshot
        (:class:`JournalRecord`).
    ``epoch``
        the service incarnation counter of the Welcome handshake.

    A job replays as its latest snapshot followed by its later
    ``explored`` / ``push`` records: order in the one file says which
    records a snapshot has subsumed.  No job creates, renames or
    unlinks a file — on a disk that discards freed blocks,
    an unlink of a synced file or a rename over one blocks the caller
    for tens of milliseconds.  Dead records stay in the log until a
    compaction, once the log has doubled since the last one (1 MiB
    floor), copies the live ones in order to a temp file, syncs it and
    renames it over the log; a crash before the rename leaves the old
    log whole.  The store keeps only offsets of live records in memory,
    and reads a record back when it is asked for.

    One writer per directory: a second store may read the log, but only
    while the writer is not appending.
    """

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        self._loaded = False
        self._fh: Optional[IO[bytes]] = None  # appends
        self._reader: Optional[IO[bytes]] = None  # records read back
        self._size = 0
        self._compacted_size = 0
        self.compactions = 0
        self._epoch = 0
        self._epoch_at: Optional[int] = None
        # Offsets of the live records: every job's latest meta; an
        # unsettled job's spec record, and its latest snapshot followed
        # by its later reconciliations.
        self._meta: Dict[str, int] = {}
        self._spec: Dict[str, int] = {}
        self._checkpoint: Dict[str, List[int]] = {}

    @property
    def path(self) -> Path:
        return self.directory / _LOG_NAME

    def _load(self) -> None:
        """Scan the log once: index its records, cut a torn tail."""
        if self._loaded:
            return
        legacy = [n for n in _LEGACY_NAMES if (self.directory / n).exists()]
        if legacy:
            raise CheckpointError(
                f"{self.directory} holds the checkpoint layout "
                f"({', '.join(legacy)}) of an earlier release, which this "
                f"one does not read: finish its jobs with that release, or "
                f"start in an empty directory"
            )
        for offset, doc in _scan(self.path):
            self._index(offset, doc)
        try:
            self._size = self.path.stat().st_size
        except FileNotFoundError:
            self._size = 0
        self._compacted_size = self._size
        self._loaded = True

    def _index(self, offset: int, doc: Dict[str, Any]) -> None:
        kind = doc["kind"]
        if kind == "epoch":
            self._epoch, self._epoch_at = int(doc["epoch"]), offset
            return
        job = doc["job"]
        if kind == "meta":
            self._meta[job] = offset
            if doc.get("settled"):
                self._spec.pop(job, None)
                self._checkpoint.pop(job, None)
            elif "spec" in doc["meta"]:
                self._spec[job] = offset
        elif kind == "snapshot":
            self._checkpoint[job] = [offset]
        else:
            self._checkpoint.setdefault(job, []).append(offset)

    def _append(self, doc: Dict[str, Any]) -> None:
        """Append one record, durably, and index it."""
        self._load()
        line = _frame(json.dumps(doc, separators=(",", ":")).encode("utf-8"))
        if self._fh is None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "ab")
            _fsync_directory(self.directory)  # a new log's own entry
        self._fh.write(line)
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._index(self._size, doc)
        self._size += len(line)
        if self._size > max(_COMPACT_GROWTH * self._compacted_size, _COMPACT_FLOOR):
            self._compact()

    def _line_at(self, offset: int) -> bytes:
        if self._reader is None:
            self._reader = open(self.path, "rb")
        self._reader.seek(offset)
        return self._reader.readline()

    def _read(self, offset: int) -> Dict[str, Any]:
        """The record at ``offset``, read back and checked."""
        doc = _unframe(self._line_at(offset))
        if doc is None:
            raise CheckpointError(f"no valid record at byte {offset} of {self.path}")
        return doc

    def _compact(self) -> None:
        """Copy the live records, in log order, over the log.

        Streams: one record in memory at a time, plus the offsets.
        """
        live = set(self._meta.values())
        live.update(self._spec.values())
        for offsets in self._checkpoint.values():
            live.update(offsets)
        if self._epoch_at is not None:
            live.add(self._epoch_at)
        moved: Dict[int, int] = {}
        size = 0
        temp = self.directory / (_LOG_NAME + ".compact")
        with open(temp, "wb") as out:
            for offset in sorted(live):
                line = self._line_at(offset)
                out.write(line)
                moved[offset] = size
                size += len(line)
            out.flush()
            os.fsync(out.fileno())
        os.replace(temp, self.path)
        _fsync_directory(self.directory)
        self.close()
        self._meta = {job: moved[o] for job, o in self._meta.items()}
        self._spec = {job: moved[o] for job, o in self._spec.items()}
        self._checkpoint = {
            job: [moved[o] for o in offsets]
            for job, offsets in self._checkpoint.items()
        }
        if self._epoch_at is not None:
            self._epoch_at = moved[self._epoch_at]
        self._size = self._compacted_size = size
        self.compactions += 1

    def close(self) -> None:
        """Close the log's handles; the next call reopens them."""
        for fh in (self._fh, self._reader):
            if fh is not None:
                fh.close()
        self._fh = self._reader = None

    # ------------------------------------------------------------------
    # per-job checkpoints
    # ------------------------------------------------------------------
    def job_store(self, job_id: str) -> "LoggedJob":
        """One job's INTERVALS/SOLUTION checkpoint, as records of the log."""
        return LoggedJob(self, job_id)

    def job_ids(self) -> List[str]:
        """Every job the log holds a meta record for, in (name) order."""
        self._load()
        return sorted(self._meta)

    def solver_jobs(self) -> List[str]:
        """Jobs with checkpoint records but no meta record, in order.

        A :class:`~repro.core.resumable.ResumableSolver`'s one job: a
        service writes every job's meta record before its first
        checkpoint, and a solver writes none.  A service and a solver
        never share a log (each refuses the other's).
        """
        self._load()
        return sorted(set(self._checkpoint) - set(self._meta))

    # ------------------------------------------------------------------
    # per-job metadata (spec, status, owner, priority, result)
    # ------------------------------------------------------------------
    def save_meta(
        self, job_id: str, meta: Dict[str, Any], settled: bool = False
    ) -> None:
        """Durably record one job's metadata; ``settled`` settles the job.

        The ``spec`` is written with the job's first meta record only,
        and never with its settling one: :meth:`load_meta` reads it back
        from that first record while the job is unsettled.
        """
        self._load()
        doc: Dict[str, Any] = {"kind": "meta", "job": job_id, "meta": meta}
        if "spec" in meta and (settled or job_id in self._spec):
            doc["meta"] = {k: v for k, v in meta.items() if k != "spec"}
        if settled:
            doc["settled"] = True
        self._append(doc)

    def load_meta(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The job's metadata, or ``None`` when it was never written."""
        self._load()
        offset = self._meta.get(job_id)
        if offset is None:
            return None
        meta: Dict[str, Any] = self._read(offset)["meta"]
        spec_at = self._spec.get(job_id)
        if "spec" not in meta and spec_at is not None:
            meta["spec"] = self._read(spec_at)["meta"]["spec"]
        return meta

    # ------------------------------------------------------------------
    # service epoch (restart counter for the Welcome handshake)
    # ------------------------------------------------------------------
    def read_epoch(self) -> int:
        self._load()
        return self._epoch

    def bump_epoch(self) -> int:
        """Advance and persist the service epoch; returns the new value."""
        self._load()
        self._append({"kind": "epoch", "epoch": self._epoch + 1})
        return self._epoch

    def clear(self) -> None:
        """Forget every job and the epoch: the log is emptied, durably."""
        self._load()
        self.close()
        if self.path.exists():
            with open(self.path, "r+b") as fh:
                fh.truncate(0)
                fh.flush()
                os.fsync(fh.fileno())
        self._meta, self._spec, self._checkpoint = {}, {}, {}
        self._epoch, self._epoch_at = 0, None
        self._size = self._compacted_size = 0


class LoggedJob:
    """One job's checkpoint in a :class:`MultiJobStore`'s log: what a
    :class:`~repro.grid.runtime.coordinator.Coordinator` or a
    :class:`~repro.core.resumable.ResumableSolver` persists through."""

    def __init__(self, log: MultiJobStore, job_id: str):
        self.log = log
        self.job_id = job_id

    def journal_explored(self, explored: Interval) -> None:
        """Record a definitely-explored range (an owned-path update)."""
        record = JournalRecord("explored", explored.as_tuple())
        self.log._append(record.to_doc(job=self.job_id))

    def journal_push(self, cost: float, solution: Any) -> None:
        """Record an incumbent improvement (a Push the coordinator kept)."""
        record = JournalRecord("push", cost=cost, solution=solution)
        self.log._append(record.to_doc(job=self.job_id))

    def save(self, intervals: IntervalSet, incumbent: Incumbent) -> None:
        """One snapshot record: it makes the job's earlier records dead."""
        self.log._append(
            {
                "kind": "snapshot",
                "job": self.job_id,
                "intervals": [[str(b), str(e)] for b, e in intervals.to_payload()],
                "cost": None if incumbent.cost == float("inf") else incumbent.cost,
                "solution": _jsonable_solution(incumbent.solution),
            }
        )

    def load_state(
        self,
        root_interval: Optional[Interval] = None,
        duplication_threshold: int = 0,
        believe: Optional[Callable[[float, Any], bool]] = None,
    ) -> RecoveredState:
        """The latest snapshot, with the later records replayed over it.

        With no snapshot yet and ``root_interval`` given, the records
        replay over a fresh root set: a crash before the first snapshot
        still recovers every reconciled update.  Explored records
        subtract their range from INTERVALS (position subtraction is
        order-insensitive and idempotent, so replay after a torn tail is
        always safe); push records re-apply through the monotonic
        incumbent update — only those ``believe(cost, solution)``
        accepts, when it is given (the farmer's check of a live Push).
        """
        self.log._load()
        docs = [self.log._read(o) for o in self.log._checkpoint.get(self.job_id, [])]
        state = RecoveredState(None, None)
        if docs and docs[0]["kind"] == "snapshot":
            snapshot = docs.pop(0)
            try:
                pairs = [(int(b), int(e)) for b, e in snapshot["intervals"]]
                cost, solution = snapshot["cost"], snapshot["solution"]
            except (KeyError, TypeError, ValueError) as exc:
                raise CheckpointError(
                    f"malformed snapshot of job {self.job_id!r}: {exc}"
                ) from exc
            state.intervals = IntervalSet.from_payload(pairs, duplication_threshold)
            if isinstance(solution, list):
                solution = tuple(solution)
            state.incumbent = Incumbent(float("inf") if cost is None else cost, solution)
        elif root_interval is not None:
            state.intervals = IntervalSet.initial(root_interval, duplication_threshold)
        for doc in docs:
            record = JournalRecord.from_doc(doc)
            state.replayed_records += 1
            if record.kind == "explored" and state.intervals is not None:
                assert record.interval is not None
                explored = Interval.from_tuple(record.interval)
                state.replayed_leaves += state.intervals.subtract(explored)
            elif record.kind == "push" and record.cost is not None:
                if believe is not None and not believe(record.cost, record.solution):
                    continue
                if state.incumbent is None:
                    state.incumbent = Incumbent()
                state.incumbent.update(record.cost, record.solution)
        return state


def _fsync_directory(directory: Path) -> None:
    """Make a directory's entries (a new or renamed file) durable."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _jsonable_solution(solution: Any) -> Any:
    """Coerce common solution shapes (tuples of ints) into JSON types."""
    if solution is None:
        return None
    if isinstance(solution, (list, tuple)):
        return [int(x) if hasattr(x, "__int__") else x for x in solution]
    return solution
