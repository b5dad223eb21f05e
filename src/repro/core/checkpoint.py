"""Checkpointing of ``INTERVALS`` and ``SOLUTION`` (§4.1).

"The coordinator manages a possible failure of the farmer by
periodically saving, in two files, the contents of INTERVALS and
SOLUTION."  :class:`CheckpointStore` is that persistence layer for one
solve: JSON payloads written atomically (temp file + rename) so a crash
mid-write never corrupts the previous checkpoint.

Node numbers can exceed 2**53 (``50!`` for Ta056), so intervals are
serialised as decimal strings — Python's ``json`` would emit big ints
fine, but many readers would round-trip them through doubles.

Between full snapshots the store keeps an append-only *journal* of
reconciliation events (explored ranges, incumbent pushes).  Each record
is one line, ``<crc32-hex> <json>``, stamped with the generation of the
snapshot it follows.  Replay truncates a torn tail (a crash mid-append)
at the last valid record and ignores records stamped for a different
generation (a crash between the snapshot write and the journal
rotation).  The journal shrinks the recovery window from
``checkpoint_period`` to the last reconciled update.

The solve service keeps every job in one such CRC-framed log instead,
:class:`MultiJobStore`: each job's meta, snapshots and reconciliations
are appended to ``service.log``, so no job creates, renames or unlinks
a file of its own.
"""

from __future__ import annotations

import json
import os
import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    IO,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Tuple,
    TypeVar,
)

from repro.core.interval import Interval
from repro.core.interval_set import IntervalSet
from repro.core.stats import Incumbent
from repro.exceptions import CheckpointError

__all__ = [
    "CheckpointJournal",
    "CheckpointStore",
    "JobCheckpoint",
    "JournalRecord",
    "MultiJobStore",
    "RecoveredState",
]

_FORMAT_VERSION = 1

T = TypeVar("T")


def _payload_crc(payload: Any) -> str:
    """CRC32 (hex) over the canonical JSON form, minus any crc field."""
    if isinstance(payload, dict):
        payload = {k: v for k, v in payload.items() if k != "crc"}
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return format(zlib.crc32(body.encode("utf-8")), "08x")


def _atomic_write_json(path: Path, payload: Any) -> None:
    if isinstance(payload, dict):
        payload = dict(payload, crc=_payload_crc(payload))
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _read_json(path: Path) -> Any:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        raise
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    # Files written before the checksum field existed carry no crc and
    # still load; a present-but-wrong crc means silent corruption.
    if isinstance(payload, dict) and "crc" in payload:
        if payload["crc"] != _payload_crc(payload):
            raise CheckpointError(
                f"checksum mismatch in {path}: the file was modified "
                "outside the atomic-write path"
            )
    return payload


@dataclass(frozen=True)
class JournalRecord:
    """One reconciliation event appended between snapshots.

    ``kind`` is ``"explored"`` (a definitely-explored range subtracted
    from INTERVALS on replay) or ``"push"`` (an incumbent improvement).
    ``generation`` names the snapshot pair the record follows; replay
    ignores records stamped for any other generation.
    """

    generation: int
    kind: str
    interval: Optional[Tuple[int, int]] = None
    cost: Optional[float] = None
    solution: Optional[Any] = None

    def to_doc(self, **extra: Any) -> Dict[str, Any]:
        """The record as a JSON object (``gen`` aside), with ``extra``."""
        doc: Dict[str, Any] = dict(extra, kind=self.kind)
        if self.interval is not None:
            doc["interval"] = [str(self.interval[0]), str(self.interval[1])]
        if self.cost is not None:
            doc["cost"] = self.cost
        if self.solution is not None:
            doc["solution"] = _jsonable_solution(self.solution)
        return doc

    def to_json(self) -> str:
        doc = self.to_doc(gen=self.generation)
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "JournalRecord":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError(f"journal record is not an object: {text!r}")
        generation = doc["gen"]
        if not isinstance(generation, int):
            raise ValueError(f"malformed journal record: {text!r}")
        return cls.from_doc(generation, doc)

    @classmethod
    def from_doc(cls, generation: int, doc: Dict[str, Any]) -> "JournalRecord":
        """The record a decoded JSON object holds (``gen`` aside)."""
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
        return cls(generation, kind, interval, doc.get("cost"), solution)


def _frame(body: bytes) -> bytes:
    """One record of a CRC-framed log: ``<crc32-hex> <body>\\n``."""
    return format(zlib.crc32(body), "08x").encode("ascii") + b" " + body + b"\n"


def _unframe(line: bytes, parse: Callable[[bytes], T]) -> Optional[T]:
    """``parse(body)`` of one framed line; ``None`` when the line is
    incomplete, fails its CRC or does not parse."""
    if not line.endswith(b"\n") or line[8:9] != b" ":
        return None
    body = line[9:-1]
    if format(zlib.crc32(body), "08x").encode("ascii") != line[:8]:
        return None
    try:
        return parse(body)
    except (ValueError, KeyError, TypeError, UnicodeDecodeError):
        return None


def _scan(path: Path, parse: Callable[[bytes], T]) -> Iterator[Tuple[int, T]]:
    """Yield ``(offset, record)`` for the valid prefix of a framed log.

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
            record = _unframe(line, parse)
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


def _parse_journal_record(body: bytes) -> "JournalRecord":
    return JournalRecord.from_json(body.decode("utf-8"))


class CheckpointJournal:
    """Append-only, CRC-framed record log between full snapshots.

    One record per line: ``<crc32-hex> <canonical-json>\\n``.  Appends
    are flushed and fsynced individually so a SIGKILL can lose at most
    the record being written — which replay then truncates away.
    """

    def __init__(self, path: Path):
        self.path = Path(path)
        self._fh: Optional[IO[bytes]] = None

    def append(self, record: JournalRecord) -> None:
        line = _frame(record.to_json().encode("utf-8"))
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "ab")
        self._fh.write(line)
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def rotate(self) -> None:
        """Empty the journal: a fresh snapshot has subsumed its records."""
        self.close()
        if self.path.exists():
            # The truncation must be durable before the caller trusts
            # the snapshot alone: a power cut that resurrects the old
            # journal bytes would replay reconciliations against the
            # *new* snapshot's interval state.
            with open(self.path, "wb") as fh:
                fh.flush()
                os.fsync(fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def replay(self, generation: int) -> List[JournalRecord]:
        """Parse records stamped ``generation``; truncate any torn tail.

        Valid records stamped for another generation are skipped (they
        predate the snapshot being recovered) but do not stop the scan.
        """
        self.close()
        return [
            record
            for _, record in _scan(self.path, _parse_journal_record)
            if record.generation == generation
        ]


@dataclass
class RecoveredState:
    """What :meth:`CheckpointStore.load_state` reconstructed."""

    intervals: Optional[IntervalSet]
    incumbent: Optional[Incumbent]
    generation: int
    replayed_records: int = 0
    replayed_leaves: int = 0


@dataclass
class CheckpointStore:
    """Reads/writes the coordinator's two checkpoint files.

    ``directory`` holds ``intervals.json`` and ``solution.json``.

    Paired saves through :meth:`save` stamp both files with a shared,
    monotonically increasing *generation* counter; :meth:`load`
    refuses a pair whose generations disagree (a crash landed between
    the two writes) or where only one file exists, raising
    :class:`~repro.exceptions.CheckpointError` instead of silently
    recovering half a snapshot.
    """

    directory: Path

    def __post_init__(self) -> None:
        self.directory = Path(self.directory)
        self._generation: Optional[int] = None
        self.journal = CheckpointJournal(self.journal_path)

    @property
    def intervals_path(self) -> Path:
        return self.directory / "intervals.json"

    @property
    def solution_path(self) -> Path:
        return self.directory / "solution.json"

    @property
    def journal_path(self) -> Path:
        return self.directory / "journal.log"

    # ------------------------------------------------------------------
    # INTERVALS
    # ------------------------------------------------------------------
    def save_intervals(
        self, intervals: IntervalSet, generation: Optional[int] = None
    ) -> None:
        payload = {
            "version": _FORMAT_VERSION,
            "generation": generation,
            "intervals": _intervals_doc(intervals),
        }
        _atomic_write_json(self.intervals_path, payload)

    def load_intervals(
        self, duplication_threshold: int = 0
    ) -> Optional[IntervalSet]:
        """Restore INTERVALS; ``None`` when no checkpoint exists yet."""
        try:
            payload = _read_json(self.intervals_path)
        except FileNotFoundError:
            return None
        self._check_version(payload, self.intervals_path)
        try:
            pairs = _interval_pairs(payload["intervals"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"malformed intervals checkpoint {self.intervals_path}: {exc}"
            ) from exc
        return IntervalSet.from_payload(pairs, duplication_threshold)

    # ------------------------------------------------------------------
    # SOLUTION
    # ------------------------------------------------------------------
    def save_solution(
        self, incumbent: Incumbent, generation: Optional[int] = None
    ) -> None:
        payload = dict(
            _incumbent_doc(incumbent),
            version=_FORMAT_VERSION,
            generation=generation,
        )
        _atomic_write_json(self.solution_path, payload)

    def load_solution(self) -> Optional[Incumbent]:
        """Restore SOLUTION; ``None`` when no checkpoint exists yet."""
        try:
            payload = _read_json(self.solution_path)
        except FileNotFoundError:
            return None
        self._check_version(payload, self.solution_path)
        return _incumbent(payload)

    # ------------------------------------------------------------------
    # combined convenience
    # ------------------------------------------------------------------
    def save(self, intervals: IntervalSet, incumbent: Incumbent) -> None:
        generation = self._next_generation()
        self.save_intervals(intervals, generation=generation)
        self.save_solution(incumbent, generation=generation)
        # The snapshot subsumes every journaled event; a crash landing
        # before this rotation leaves records stamped with the previous
        # generation, which replay filters out.
        self.journal.rotate()

    # ------------------------------------------------------------------
    # journal (reconciliation events between snapshots)
    # ------------------------------------------------------------------
    def journal_explored(self, explored: Interval) -> None:
        """Record a definitely-explored range (an owned-path update)."""
        self.journal.append(
            JournalRecord(
                self._committed_generation(), "explored", explored.as_tuple()
            )
        )

    def journal_push(self, cost: float, solution: Any) -> None:
        """Record an incumbent improvement (a Push the coordinator kept)."""
        self.journal.append(
            JournalRecord(
                self._committed_generation(), "push", cost=cost,
                solution=solution,
            )
        )

    def load_state(
        self,
        root_interval: Optional[Interval] = None,
        duplication_threshold: int = 0,
        replay_journal: bool = True,
    ) -> RecoveredState:
        """Restore the snapshot pair, then replay the journal over it.

        When no snapshot exists yet and ``root_interval`` is given, the
        journal replays over a fresh root set — a crash before the
        first snapshot still recovers every reconciled update.
        """
        intervals, incumbent = self.load(duplication_threshold)
        generation = self._read_generation(self.intervals_path) or 0
        base = intervals
        if base is None and root_interval is not None:
            base = IntervalSet.initial(root_interval, duplication_threshold)
        records = self.journal.replay(generation) if replay_journal else []
        return _replay(base, incumbent, generation, records)

    def load(
        self, duplication_threshold: int = 0
    ) -> Tuple[Optional[IntervalSet], Optional[Incumbent]]:
        """Restore the pair; ``(None, None)`` for a fresh directory.

        Raises :class:`CheckpointError` when the snapshot is partial —
        exactly one of the two files exists, or both carry generation
        stamps that disagree.  Recovering such a pair would silently
        mix an old SOLUTION with a new INTERVALS (or vice versa).
        """
        intervals = self.load_intervals(duplication_threshold)
        solution_exists = self.solution_path.exists()
        if intervals is None and solution_exists:
            raise CheckpointError(
                f"partial checkpoint: {self.solution_path} exists but "
                f"{self.intervals_path} is missing"
            )
        if intervals is not None and not solution_exists:
            raise CheckpointError(
                f"partial checkpoint: {self.intervals_path} exists but "
                f"{self.solution_path} is missing"
            )
        incumbent = self.load_solution()
        gen_i = self._read_generation(self.intervals_path)
        gen_s = self._read_generation(self.solution_path)
        if gen_i is not None and gen_s is not None and gen_i != gen_s:
            raise CheckpointError(
                f"checkpoint generation mismatch: INTERVALS at {gen_i}, "
                f"SOLUTION at {gen_s} — the pair was partially written"
            )
        return intervals, incumbent

    def _committed_generation(self) -> int:
        """Generation of the snapshot the journal currently follows."""
        if self._generation is not None:
            return self._generation
        on_disk = [
            self._read_generation(p)
            for p in (self.intervals_path, self.solution_path)
        ]
        self._generation = max((g for g in on_disk if g is not None), default=0)
        return self._generation

    def _next_generation(self) -> int:
        if self._generation is None:
            on_disk = [
                self._read_generation(p)
                for p in (self.intervals_path, self.solution_path)
            ]
            self._generation = max(
                (g for g in on_disk if g is not None), default=0
            )
        self._generation += 1
        return self._generation

    @staticmethod
    def _read_generation(path: Path) -> Optional[int]:
        try:
            payload = _read_json(path)
        except (FileNotFoundError, CheckpointError):
            return None
        if isinstance(payload, dict) and isinstance(
            payload.get("generation"), int
        ):
            return payload["generation"]
        return None

    def clear(self) -> None:
        self.journal.close()
        for path in (
            self.intervals_path,
            self.solution_path,
            self.journal_path,
        ):
            try:
                path.unlink()
            except FileNotFoundError:
                pass

    @staticmethod
    def _check_version(payload: Any, path: Path) -> None:
        if not isinstance(payload, dict) or payload.get("version") != _FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint {path} has unsupported format: "
                f"{payload.get('version') if isinstance(payload, dict) else payload!r}"
            )


class JobCheckpoint(Protocol):
    """What a :class:`~repro.grid.runtime.coordinator.Coordinator`
    persists through: a :class:`CheckpointStore`, or one job of a
    :class:`MultiJobStore` (:meth:`MultiJobStore.job_store`)."""

    def journal_explored(self, explored: Interval) -> None: ...

    def journal_push(self, cost: float, solution: Any) -> None: ...

    def save(self, intervals: IntervalSet, incumbent: Incumbent) -> None: ...

    def load_state(
        self,
        root_interval: Optional[Interval] = None,
        duplication_threshold: int = 0,
    ) -> RecoveredState: ...


#: The service's one durable file, in its checkpoint directory.
_LOG_NAME = "service.log"
#: Compaction runs once the log has grown past this many times its size
#: at the last compaction (or at opening), and never below the floor.
_COMPACT_GROWTH = 2
_COMPACT_FLOOR = 1 << 20
_LOG_KINDS = frozenset({"meta", "snapshot", "explored", "push", "epoch"})


def _parse_log_record(body: bytes) -> Dict[str, Any]:
    doc = json.loads(body)
    if not isinstance(doc, dict) or doc.get("kind") not in _LOG_KINDS:
        raise ValueError(f"malformed service log record: {body[:80]!r}")
    if doc["kind"] != "epoch" and not isinstance(doc.get("job"), str):
        raise ValueError(f"service log record without a job: {body[:80]!r}")
    return doc


class MultiJobStore:
    """Durable state of the multi-tenant solve service: one append-only log.

    ::

        <directory>/service.log     one CRC-framed record per line

    Every write appends one record — framed and scanned as
    :class:`CheckpointJournal`'s, and fsynced before it returns:

    ``meta``
        a job's metadata.  The spec rides the job's first meta record
        only; a record marked ``settled`` settles the job, which makes
        its spec and checkpoint records dead.
    ``snapshot``
        a job's INTERVALS and SOLUTION in one record.
    ``explored`` / ``push``
        a job's reconciliations since its latest snapshot.
    ``epoch``
        the service incarnation counter of the Welcome handshake.

    A job replays as its latest snapshot followed by its later
    ``explored`` / ``push`` records: order in the one file replaces the
    generation stamps of :class:`CheckpointStore`.  No job creates,
    renames or unlinks a file — on a disk that discards freed blocks,
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
        legacy = [n for n in ("jobs", "epoch.json") if (self.directory / n).exists()]
        if legacy:
            raise CheckpointError(
                f"{self.directory} holds the per-job checkpoint layout "
                f"({', '.join(legacy)}) of an earlier release, which this "
                f"one does not read: finish its jobs with that release, or "
                f"start in an empty directory"
            )
        for offset, doc in _scan(self.path, _parse_log_record):
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
        doc = _unframe(self._line_at(offset), _parse_log_record)
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
    def job_store(self, job_id: str) -> JobCheckpoint:
        """One job's INTERVALS/SOLUTION checkpoint, as records of the log."""
        return _LoggedJob(self, job_id)

    def job_ids(self) -> List[str]:
        """Every job the log holds a meta record for, in (name) order."""
        self._load()
        return sorted(self._meta)

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


class _LoggedJob:
    """One job's checkpoint in a :class:`MultiJobStore`'s log."""

    def __init__(self, log: MultiJobStore, job_id: str):
        self.log = log
        self.job_id = job_id

    def journal_explored(self, explored: Interval) -> None:
        """Record a definitely-explored range (an owned-path update)."""
        record = JournalRecord(0, "explored", explored.as_tuple())
        self.log._append(record.to_doc(job=self.job_id))

    def journal_push(self, cost: float, solution: Any) -> None:
        """Record an incumbent improvement (a Push the coordinator kept)."""
        record = JournalRecord(0, "push", cost=cost, solution=solution)
        self.log._append(record.to_doc(job=self.job_id))

    def save(self, intervals: IntervalSet, incumbent: Incumbent) -> None:
        """One snapshot record: it makes the job's earlier records dead."""
        self.log._append(
            dict(
                _incumbent_doc(incumbent),
                kind="snapshot",
                job=self.job_id,
                intervals=_intervals_doc(intervals),
            )
        )

    def load_state(
        self,
        root_interval: Optional[Interval] = None,
        duplication_threshold: int = 0,
    ) -> RecoveredState:
        """The latest snapshot, with the later records replayed over it."""
        self.log._load()
        docs = [self.log._read(o) for o in self.log._checkpoint.get(self.job_id, [])]
        intervals: Optional[IntervalSet] = None
        incumbent: Optional[Incumbent] = None
        if docs and docs[0]["kind"] == "snapshot":
            snapshot = docs.pop(0)
            try:
                pairs = _interval_pairs(snapshot["intervals"])
            except (KeyError, TypeError, ValueError) as exc:
                raise CheckpointError(
                    f"malformed snapshot of job {self.job_id!r}: {exc}"
                ) from exc
            intervals = IntervalSet.from_payload(pairs, duplication_threshold)
            incumbent = _incumbent(snapshot)
        elif root_interval is not None:
            intervals = IntervalSet.initial(root_interval, duplication_threshold)
        records = [JournalRecord.from_doc(0, doc) for doc in docs]
        return _replay(intervals, incumbent, 0, records)


def _fsync_directory(directory: Path) -> None:
    """Make a directory's entries (a new or renamed file) durable."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _intervals_doc(intervals: IntervalSet) -> List[List[str]]:
    return [[str(b), str(e)] for b, e in intervals.to_payload()]


def _interval_pairs(doc: Any) -> List[Tuple[int, int]]:
    return [(int(b), int(e)) for b, e in doc]


def _incumbent_doc(incumbent: Incumbent) -> Dict[str, Any]:
    return {
        "cost": None if incumbent.cost == float("inf") else incumbent.cost,
        "solution": _jsonable_solution(incumbent.solution),
    }


def _incumbent(doc: Dict[str, Any]) -> Incumbent:
    cost = doc.get("cost")
    solution = doc.get("solution")
    if isinstance(solution, list):
        solution = tuple(solution)
    return Incumbent(float("inf") if cost is None else cost, solution)


def _replay(
    base: Optional[IntervalSet],
    incumbent: Optional[Incumbent],
    generation: int,
    records: Iterable[JournalRecord],
) -> RecoveredState:
    """Replay reconciliations over a snapshot.

    Explored records subtract their range from INTERVALS (position
    subtraction is order-insensitive and idempotent, so replay after a
    torn tail is always safe); push records re-apply through the
    monotonic incumbent update.
    """
    count = leaves = 0
    for record in records:
        count += 1
        if record.kind == "explored" and base is not None:
            assert record.interval is not None
            leaves += base.subtract(Interval.from_tuple(record.interval))
        elif record.kind == "push" and record.cost is not None:
            if incumbent is None:
                incumbent = Incumbent()
            incumbent.update(record.cost, record.solution)
    return RecoveredState(
        base, incumbent, generation, replayed_records=count, replayed_leaves=leaves
    )


def _jsonable_solution(solution: Any) -> Any:
    """Coerce common solution shapes (tuples of ints) into JSON types."""
    if solution is None:
        return None
    if isinstance(solution, (list, tuple)):
        return [int(x) if hasattr(x, "__int__") else x for x in solution]
    return solution
