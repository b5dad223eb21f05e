"""Two-file checkpointing of ``INTERVALS`` and ``SOLUTION`` (§4.1).

"The coordinator manages a possible failure of the farmer by
periodically saving, in two files, the contents of INTERVALS and
SOLUTION."  This module is that persistence layer: JSON payloads
written atomically (temp file + rename) so a crash mid-write never
corrupts the previous checkpoint.

Node numbers can exceed 2**53 (``50!`` for Ta056), so intervals are
serialised as decimal strings — Python's ``json`` would emit big ints
fine, but many readers would round-trip them through doubles.

Between full snapshots the store keeps an append-only *journal* of
reconciliation events (explored ranges, incumbent pushes).  Each record
is one line, ``<crc32-hex> <canonical-json>``, stamped with the
generation of the snapshot it follows.  Replay truncates a torn tail
(a crash mid-append) at the last valid record and ignores records
stamped for a different generation (a crash between the snapshot write
and the journal rotation).  The journal shrinks the recovery window
from ``checkpoint_period`` to the last reconciled update.
"""

from __future__ import annotations

import json
import os
import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, IO, List, Optional, Tuple

from repro.core.interval import Interval
from repro.core.interval_set import IntervalSet
from repro.core.stats import Incumbent
from repro.exceptions import CheckpointError

__all__ = [
    "CheckpointJournal",
    "CheckpointStore",
    "JournalRecord",
    "MultiJobStore",
    "RecoveredState",
]

_FORMAT_VERSION = 1


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

    def to_json(self) -> str:
        doc: Dict[str, Any] = {"gen": self.generation, "kind": self.kind}
        if self.interval is not None:
            doc["interval"] = [str(self.interval[0]), str(self.interval[1])]
        if self.cost is not None:
            doc["cost"] = self.cost
        if self.solution is not None:
            doc["solution"] = _jsonable_solution(self.solution)
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "JournalRecord":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError(f"journal record is not an object: {text!r}")
        generation = doc["gen"]
        kind = doc["kind"]
        if not isinstance(generation, int) or kind not in ("explored", "push"):
            raise ValueError(f"malformed journal record: {text!r}")
        interval: Optional[Tuple[int, int]] = None
        if "interval" in doc:
            begin, end = doc["interval"]
            interval = (int(begin), int(end))
        solution = doc.get("solution")
        if isinstance(solution, list):
            solution = tuple(solution)
        return cls(generation, kind, interval, doc.get("cost"), solution)


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
        body = record.to_json().encode("utf-8")
        line = format(zlib.crc32(body), "08x").encode("ascii") + b" " + body + b"\n"
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

        Scans the valid prefix of the file: a line that is incomplete,
        fails its CRC, or does not parse marks the torn tail — the file
        is truncated there so later appends cannot interleave with
        garbage.  Valid records stamped for another generation are
        skipped (they predate the snapshot being recovered) but do not
        stop the scan.
        """
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return []
        records: List[JournalRecord] = []
        pos = 0
        valid = 0
        while pos < len(raw):
            newline = raw.find(b"\n", pos)
            if newline == -1:
                break  # incomplete final line: torn append
            line = raw[pos:newline]
            space = line.find(b" ")
            if space != 8:
                break
            body = line[9:]
            if format(zlib.crc32(body), "08x").encode("ascii") != line[:8]:
                break
            try:
                record = JournalRecord.from_json(body.decode("utf-8"))
            except (ValueError, KeyError, TypeError, UnicodeDecodeError):
                break
            pos = newline + 1
            valid = pos
            if record.generation == generation:
                records.append(record)
        if valid < len(raw):
            self.close()
            # Durable truncation: if the torn tail came back after a
            # crash, the next append would interleave live records
            # with garbage and the CRC scan would stop at the seam.
            with open(self.path, "r+b") as fh:
                fh.truncate(valid)
                fh.flush()
                os.fsync(fh.fileno())
        return records


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

    @property
    def epoch_path(self) -> Path:
        return self.directory / "epoch.json"

    # ------------------------------------------------------------------
    # INTERVALS
    # ------------------------------------------------------------------
    def save_intervals(
        self, intervals: IntervalSet, generation: Optional[int] = None
    ) -> None:
        payload = {
            "version": _FORMAT_VERSION,
            "generation": generation,
            "intervals": [
                [str(b), str(e)] for b, e in intervals.to_payload()
            ],
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
            pairs: List[Tuple[int, int]] = [
                (int(b), int(e)) for b, e in payload["intervals"]
            ]
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
        payload = {
            "version": _FORMAT_VERSION,
            "generation": generation,
            "cost": None if incumbent.cost == float("inf") else incumbent.cost,
            "solution": _jsonable_solution(incumbent.solution),
        }
        _atomic_write_json(self.solution_path, payload)

    def load_solution(self) -> Optional[Incumbent]:
        """Restore SOLUTION; ``None`` when no checkpoint exists yet."""
        try:
            payload = _read_json(self.solution_path)
        except FileNotFoundError:
            return None
        self._check_version(payload, self.solution_path)
        cost = payload.get("cost")
        solution = payload.get("solution")
        if solution is not None and isinstance(solution, list):
            solution = tuple(solution)
        return Incumbent(
            float("inf") if cost is None else cost,
            solution,
        )

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
        Explored records subtract their range from INTERVALS (position
        subtraction is order-insensitive and idempotent, so replay
        after a torn tail is always safe); push records re-apply
        through the monotonic incumbent update.
        """
        intervals, incumbent = self.load(duplication_threshold)
        generation = self._read_generation(self.intervals_path) or 0
        base = intervals
        if base is None and root_interval is not None:
            base = IntervalSet.initial(root_interval, duplication_threshold)
        records = self.journal.replay(generation) if replay_journal else []
        leaves = 0
        for record in records:
            if record.kind == "explored" and base is not None:
                assert record.interval is not None
                leaves += base.subtract(Interval.from_tuple(record.interval))
            elif record.kind == "push" and record.cost is not None:
                if incumbent is None:
                    incumbent = Incumbent()
                incumbent.update(record.cost, record.solution)
        return RecoveredState(
            base, incumbent, generation,
            replayed_records=len(records), replayed_leaves=leaves,
        )

    # ------------------------------------------------------------------
    # server epoch (restart counter for the Welcome handshake)
    # ------------------------------------------------------------------
    def read_epoch(self) -> int:
        try:
            payload = _read_json(self.epoch_path)
        except (FileNotFoundError, CheckpointError):
            # Crash-only: a damaged epoch file must not block a restart.
            # Epoch detection compares for *change*, not order, so
            # restarting the count still flags stale workers.
            return 0
        if isinstance(payload, dict) and isinstance(payload.get("epoch"), int):
            return payload["epoch"]
        return 0

    def bump_epoch(self) -> int:
        """Advance and persist the server epoch; returns the new value."""
        epoch = self.read_epoch() + 1
        _atomic_write_json(
            self.epoch_path, {"version": _FORMAT_VERSION, "epoch": epoch}
        )
        return epoch

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
            self.epoch_path,
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


class MultiJobStore:
    """Durable layout for the multi-tenant solve service.

    One service directory fans out into per-job checkpoint stores::

        <directory>/
            epoch.json            service incarnation counter
            jobs/<job-id>/
                meta.json         spec + status + owner + priority
                intervals.json    ┐
                solution.json     │ one CheckpointStore per job
                journal.log       ┘

    Each job keeps the full crash-only machinery of
    :class:`CheckpointStore` — generation-stamped snapshot pairs plus
    the reconciliation journal — so recovering the service is just
    recovering every job.  ``meta.json`` is written atomically through
    the same path as the snapshots; status transitions are durable the
    moment :meth:`save_meta` returns.

    Job ids are opaque strings but they double as directory names, so
    the store only accepts filesystem-safe ids (hex uuids qualify).
    """

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        self._stores: Dict[str, CheckpointStore] = {}

    @property
    def jobs_root(self) -> Path:
        return self.directory / "jobs"

    @property
    def epoch_path(self) -> Path:
        return self.directory / "epoch.json"

    @staticmethod
    def _check_id(job_id: str) -> str:
        if not job_id or not all(
            c.isalnum() or c in "._-" for c in job_id
        ) or job_id.startswith("."):
            raise CheckpointError(
                f"job id {job_id!r} is not filesystem-safe"
            )
        return job_id

    def job_dir(self, job_id: str) -> Path:
        return self.jobs_root / self._check_id(job_id)

    def job_store(self, job_id: str) -> CheckpointStore:
        """The per-job :class:`CheckpointStore` (cached per id)."""
        store = self._stores.get(job_id)
        if store is None:
            store = CheckpointStore(self.job_dir(job_id))
            self._stores[job_id] = store
        return store

    def drop_job_store(self, job_id: str) -> None:
        """Clear a job's checkpoint files and forget its cached store."""
        store = self._stores.pop(job_id, None) or CheckpointStore(self.job_dir(job_id))
        store.clear()

    def job_ids(self) -> List[str]:
        """Every job with an on-disk directory, in stable (name) order."""
        try:
            entries = sorted(p.name for p in self.jobs_root.iterdir() if p.is_dir())
        except FileNotFoundError:
            return []
        return entries

    # ------------------------------------------------------------------
    # per-job metadata (spec, status, owner, priority, result)
    # ------------------------------------------------------------------
    def save_meta(self, job_id: str, meta: Dict[str, Any]) -> None:
        """Atomically persist one job's metadata document."""
        payload = dict(meta, version=_FORMAT_VERSION)
        _atomic_write_json(self.job_dir(job_id) / "meta.json", payload)

    def load_meta(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The job's metadata, or ``None`` when it was never written."""
        try:
            payload = _read_json(self.job_dir(job_id) / "meta.json")
        except FileNotFoundError:
            return None
        if not isinstance(payload, dict):
            raise CheckpointError(
                f"malformed job metadata for {job_id!r}: {payload!r}"
            )
        payload.pop("crc", None)
        payload.pop("version", None)
        return payload

    # ------------------------------------------------------------------
    # service epoch (same contract as CheckpointStore's)
    # ------------------------------------------------------------------
    def read_epoch(self) -> int:
        try:
            payload = _read_json(self.epoch_path)
        except (FileNotFoundError, CheckpointError):
            return 0
        if isinstance(payload, dict) and isinstance(payload.get("epoch"), int):
            return payload["epoch"]
        return 0

    def bump_epoch(self) -> int:
        epoch = self.read_epoch() + 1
        _atomic_write_json(
            self.epoch_path, {"version": _FORMAT_VERSION, "epoch": epoch}
        )
        return epoch

    def clear(self) -> None:
        """Remove every job directory and the epoch file."""
        for job_id in self.job_ids():
            store = self.job_store(job_id)
            store.clear()
            meta = store.directory / "meta.json"
            try:
                meta.unlink()
            except FileNotFoundError:
                pass
            try:
                store.directory.rmdir()
            except OSError:
                pass
        self._stores.clear()
        try:
            self.epoch_path.unlink()
        except FileNotFoundError:
            pass


def _jsonable_solution(solution: Any) -> Any:
    """Coerce common solution shapes (tuples of ints) into JSON types."""
    if solution is None:
        return None
    if isinstance(solution, (list, tuple)):
        return [int(x) if hasattr(x, "__int__") else x for x in solution]
    return solution
