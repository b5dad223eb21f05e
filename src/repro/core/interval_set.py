"""``INTERVALS`` — the coordinator's view of all unexplored work (§4).

The coordinator "keeps a copy of all the not yet explored intervals".
Each copy is an :class:`IntervalRecord` carrying the interval and the
set of B&B processes currently exploring it (several after a
duplication, none for orphaned work awaiting a requester).

The set provides the paper's coordinator-side operations:

* **update** (checkpointing, §4.1) — reconcile a worker's reported
  interval with its copy through the intersection operator (eq. 14);
* **assign** (load balancing, §4.2) — selection + partitioning with a
  power-proportional split point and a duplication threshold;
* **release** (fault tolerance, §4.1) — detach a dead worker so its
  last copy can be handed out again;
* **termination detection** (§4.3) — the run is over exactly when the
  set becomes empty; empty intervals are dropped automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Mapping, Optional
from typing import Sequence, Set, Tuple

from repro.core.interval import Interval
from repro.core.operators import partition_point, requester_share_length
from repro.exceptions import IntervalError

__all__ = ["IntervalRecord", "IntervalSet", "Assignment"]

WorkerId = Hashable


@dataclass
class IntervalRecord:
    """One coordinator-side copy: the interval and who explores it."""

    interval: Interval
    owners: Set[WorkerId] = field(default_factory=set)


@dataclass
class Assignment:
    """Result of a successful work request.

    ``cut`` names the holders whose copy this request shrank or took
    away (the owners of the left part of a split) — they explore on
    into the requester's part until they hear of it.
    """

    interval: Interval
    duplicated: bool
    cut: Tuple[WorkerId, ...] = ()


class IntervalSet:
    """The coordinator's ``INTERVALS`` with its operators and counters.

    Parameters
    ----------
    duplication_threshold:
        Intervals shorter than this are *duplicated* rather than split
        (§4.2) — the requester explores the same numbers as the holder,
        bounding the tail latency of tiny work units at the price of
        redundant node exploration (paper measured < 0.4 %).
    """

    def __init__(self, duplication_threshold: int = 0):
        if duplication_threshold < 0:
            raise IntervalError("duplication threshold must be >= 0")
        self.duplication_threshold = duplication_threshold
        self._records: Dict[int, IntervalRecord] = {}
        # worker -> id of the one copy it owns.  ``owners`` sets are
        # only ever changed in this module, each change mirrored here.
        self._owned: Dict[WorkerId, int] = {}
        self._next_id = 0
        # Table 2 counters
        self.allocations = 0
        self.splits = 0
        self.duplications = 0
        self.updates = 0
        self.duplicated_length_assigned = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def initial(
        cls, root_range: Interval, duplication_threshold: int = 0
    ) -> "IntervalSet":
        """INTERVALS at the start of a run: the range of the root (§4.3)."""
        s = cls(duplication_threshold)
        s.add(root_range)
        return s

    def add(self, interval: Interval, owners: Sequence[WorkerId] = ()) -> int:
        """Insert a non-empty interval; return its record id."""
        if interval.is_empty():
            raise IntervalError(f"refusing to add empty interval {interval}")
        rid = self._next_id
        self._next_id += 1
        self._records[rid] = IntervalRecord(interval, set(owners))
        for worker in owners:
            self._owned[worker] = rid
        return rid

    def _own(self, rid: int, worker: WorkerId) -> None:
        self._records[rid].owners.add(worker)
        self._owned[worker] = rid

    def _disown(self, rid: int) -> None:
        owners = self._records[rid].owners
        for worker in owners:
            del self._owned[worker]
        owners.clear()

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def cardinality(self) -> int:
        """Number of intervals ("almost equal to the number of processes")."""
        return len(self._records)

    @property
    def size(self) -> int:
        """Sum of interval lengths = unexplored solutions left (§4.3)."""
        return sum(rec.interval.length for rec in self._records.values())

    def is_empty(self) -> bool:
        """Termination condition: nothing left to explore."""
        return not self._records

    def records(self) -> Mapping[int, IntervalRecord]:
        return dict(self._records)

    def iter_records(self) -> Iterable[IntervalRecord]:
        """Every copy, without :meth:`records`' dict copy (read only)."""
        return self._records.values()

    def owners(self) -> Set[WorkerId]:
        """Every process currently exploring some copy."""
        return set(self._owned)

    def intervals(self) -> List[Interval]:
        """All intervals, sorted by begin (stable external view)."""
        return sorted(
            (rec.interval for rec in self._records.values()),
            key=lambda iv: (iv.begin, iv.end),
        )

    def record_for_worker(self, worker: WorkerId) -> Optional[int]:
        """Id of the record ``worker`` currently owns, if any."""
        return self._owned.get(worker)

    def owned_record(self, worker: WorkerId) -> Optional[IntervalRecord]:
        """The copy ``worker`` currently owns, if any (read only)."""
        rid = self._owned.get(worker)
        return None if rid is None else self._records[rid]

    def covered_union_length(self) -> int:
        """Length of the union of all intervals (duplicates counted once).

        Used by the no-lost-work invariant tests: together with the
        explored prefix this must cover the whole root range.
        """
        total = 0
        current: Optional[Interval] = None
        for iv in self.intervals():
            if current is None:
                current = iv
            elif iv.begin <= current.end:
                current = Interval(current.begin, max(current.end, iv.end))
            else:
                total += current.length
                current = iv
        if current is not None:
            total += current.length
        return total

    # ------------------------------------------------------------------
    # the paper's coordinator operations
    # ------------------------------------------------------------------
    def update(self, worker: WorkerId, reported: Interval) -> Interval:
        """Reconcile a worker's interval with its copy (eq. 14, §4.1).

        Returns the reconciled interval the worker must now restrict
        itself to.  An empty result means the worker's work is gone
        (finished, or fully reassigned after the worker was presumed
        dead) and it should request a new unit.

        After a farmer recovery the ownership map is lost; a report
        that overlaps an unowned record re-claims *its piece* of it.
        The leftover parts of the record stay in the set as unowned
        work: the recovered snapshot may be stale, so the coordinator
        cannot tell whether they were explored — keeping them costs at
        worst redundant re-exploration, dropping them would lose work
        (the §4.1 guarantee is re-exploration, never loss).
        """
        self.updates += 1
        rid = self._owned.get(worker)
        if rid is not None:
            # Normal path: the worker owns this copy, so everything
            # outside the intersection is known-explored (left) or
            # known-reassigned (right) — plain eq. 14.
            rec = self._records[rid]
            merged = rec.interval.intersect(reported)
            if merged.is_empty():
                self._disown(rid)  # a duplicate twin loses its copy too
                del self._records[rid]
                return merged
            rec.interval = merged
            return merged

        rid = self._match_unowned(reported)
        if rid is None:
            return Interval(reported.end, reported.end)
        rec = self._records[rid]
        piece = rec.interval.intersect(reported)
        if piece.is_empty():
            return piece
        left = Interval(rec.interval.begin, piece.begin)
        right = Interval(piece.end, rec.interval.end)
        rec.interval = piece
        self._own(rid, worker)
        if not left.is_empty():
            self.add(left)
        if not right.is_empty():
            self.add(right)
        return piece

    def _match_unowned(self, reported: Interval) -> Optional[int]:
        best: Optional[int] = None
        best_overlap = 0
        for rid, rec in self._records.items():
            if rec.owners:
                continue
            overlap = rec.interval.intersect(reported).length
            if overlap > best_overlap:
                best_overlap = overlap
                best = rid
        return best

    def assign(
        self,
        requester: WorkerId,
        requester_power: float = 1.0,
        holder_powers: Optional[Mapping[WorkerId, float]] = None,
    ) -> Optional[Assignment]:
        """Serve a work request: selection then partitioning (§4.2).

        ``holder_powers`` maps worker ids to their processing power (a
        missing worker counts as power 1).  Returns ``None`` when
        INTERVALS is empty — the requester must terminate (§4.3).
        """
        if requester_power < 0:
            raise IntervalError("requester power must be >= 0")
        if not self._records:
            return None
        # A requester never splits work with itself: drop any stale
        # ownership first (it is asking because it has nothing left).
        self.release(requester)
        if not self._records:
            return None

        def power_of(rec: IntervalRecord) -> float:
            if not rec.owners:
                return 0.0  # the paper's virtual null-power process
            if holder_powers is None:
                return float(len(rec.owners))
            return float(sum(holder_powers.get(w, 1.0) for w in rec.owners))

        best_rid = None
        best_share = -1
        for rid, rec in sorted(self._records.items()):
            share = requester_share_length(
                rec.interval, power_of(rec), requester_power
            )
            if share > best_share:
                best_share = share
                best_rid = rid
        assert best_rid is not None
        rec = self._records[best_rid]
        self.allocations += 1

        if not rec.owners:
            # Null-power virtual holder: hand the whole interval over
            # ("they are thus assigned entirely to the requesting
            # process") — never a duplication.
            self._own(best_rid, requester)
            return Assignment(rec.interval, duplicated=False)

        if rec.interval.length < self.duplication_threshold:
            # Duplicate: same numbers, one coordinator copy, two explorers.
            self._own(best_rid, requester)
            self.duplications += 1
            self.duplicated_length_assigned += rec.interval.length
            return Assignment(rec.interval, duplicated=True)

        point = partition_point(rec.interval, power_of(rec), requester_power)
        left, right = rec.interval.split_at(point)
        if right.is_empty():
            # Degenerate split (e.g. zero requester power on a live
            # holder): fall back to duplication semantics.
            self._own(best_rid, requester)
            self.duplications += 1
            self.duplicated_length_assigned += rec.interval.length
            return Assignment(rec.interval, duplicated=True)
        holders = tuple(rec.owners)
        if left.is_empty():
            # Whole interval handed over (null-power holders).
            self._disown(best_rid)
            rec.interval = right
            self._own(best_rid, requester)
            return Assignment(right, duplicated=False, cut=holders)
        # The holders learn of the cut from the Reconciled reply to
        # their next Update; the runtime tells them to send it now.
        rec.interval = left
        self.add(right, owners=(requester,))
        self.splits += 1
        return Assignment(right, duplicated=False, cut=holders)

    def subtract(self, explored: Interval) -> int:
        """Remove ``explored`` from every copy that overlaps it.

        Journal replay (§4.1 extension): a definitely-explored range is
        carved out of the restored snapshot.  Position subtraction is
        order-insensitive and idempotent, and under the covering
        invariant it can only remove work that was in fact explored —
        duplicated copies each lose their overlap independently.
        Returns the total length removed (duplicates counted per copy).
        """
        removed = 0
        for rid, rec in list(self._records.items()):
            overlap = rec.interval.intersect(explored)
            if overlap.is_empty():
                continue
            removed += overlap.length
            left = Interval(rec.interval.begin, overlap.begin)
            right = Interval(overlap.end, rec.interval.end)
            if left.is_empty() and right.is_empty():
                self._disown(rid)
                del self._records[rid]
            elif right.is_empty():
                rec.interval = left
            elif left.is_empty():
                rec.interval = right
            else:
                # A worker owns one copy: the left part stays with the
                # owners, the right part waits for a requester.  (Replay
                # runs on a restored, ownership-free set anyway.)
                rec.interval = left
                self.add(right)
        return removed

    def release(self, worker: WorkerId) -> int:
        """Detach ``worker`` from the record it owns (death or completion).

        Returns the number of records it was detached from.  A record it
        leaves behind stays in the set (owned by the virtual null-power
        process) until another request picks them up — this is the
        §4.1 recovery path.
        """
        rid = self._owned.pop(worker, None)
        if rid is None:
            return 0
        self._records[rid].owners.discard(worker)
        return 1

    # ------------------------------------------------------------------
    # checkpoint payloads (§4.1 — the INTERVALS file)
    # ------------------------------------------------------------------
    def to_payload(self) -> List[Tuple[int, int]]:
        """Ownership-free snapshot: what survives a farmer failure."""
        return [iv.as_tuple() for iv in self.intervals()]

    @classmethod
    def from_payload(
        cls,
        payload: Sequence[Tuple[int, int]],
        duplication_threshold: int = 0,
    ) -> "IntervalSet":
        s = cls(duplication_threshold)
        for pair in payload:
            iv = Interval.from_tuple(pair)
            if not iv.is_empty():
                s.add(iv)
        return s

    def __repr__(self) -> str:
        return (
            f"IntervalSet(cardinality={self.cardinality}, size={self.size}, "
            f"intervals={self.intervals()!r})"
        )
