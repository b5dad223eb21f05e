"""The real coordinator: INTERVALS + SOLUTION behind a message loop.

Pure protocol logic — no process or queue handling here, and no clock:
the time arrives with each call.  The solve service core
(:class:`~repro.grid.service.core.ServiceCore`) runs one per job, under
the TCP pump and the grid simulator alike, and answers retries itself:
every message reaching ``handle`` is new.  The state is an
:class:`~repro.core.interval_set.IntervalSet`, an
:class:`~repro.core.stats.Incumbent` and, when given, a
:class:`~repro.core.checkpoint.LoggedJob`: one job of the service's
log (:class:`~repro.core.checkpoint.MultiJobStore`).
"""

from __future__ import annotations

import functools
import sys
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from repro.core.checkpoint import LoggedJob
from repro.core.interval import Interval
from repro.core.interval_set import IntervalSet
from repro.core.problem import Problem
from repro.core.stats import Incumbent
from repro.exceptions import ProblemError, RuntimeProtocolError
from repro.grid.runtime.protocol import (
    Ack,
    GrantWork,
    Notice,
    Push,
    Reconciled,
    Request,
    Terminate,
    Update,
)

__all__ = ["Coordinator", "check_power", "checked_cost"]


def check_power(msg: Request) -> None:
    """Refuse a Request whose power the split arithmetic cannot use
    (the wire checks its type, not its range; in-process callers
    bypass the wire)."""
    power = msg.power
    if not (
        isinstance(power, (int, float))
        and 0.0 <= power <= sys.float_info.max  # NaN fails both
    ):
        raise RuntimeProtocolError(
            f"{msg.worker}: power must be finite and >= 0, got {power!r}"
        )


def checked_cost(problem: Problem, cost: float, solution: Any) -> float:
    """The farmer's own cost of a pushed ``solution``, or a refusal.

    Refused, as a :class:`RuntimeProtocolError`: a solution that is not
    one of ``problem``'s (not a permutation of the job, for the
    permutation problems), and one whose recomputed cost differs from
    the pushed ``cost``.  A believed incumbent prunes every holder's
    tree (notices carry its cost), so a wrong one would end the job
    ``done`` with a false "proof".
    """
    try:
        own = problem.solution_cost(solution)
    except ProblemError as exc:
        raise RuntimeProtocolError(f"push refused: {exc}") from exc
    if own != cost:
        raise RuntimeProtocolError(
            f"push refused: the solution costs {own}, not {cost}"
        )
    return own


def _believable(problem: Problem, cost: float, solution: Any) -> bool:
    try:
        checked_cost(problem, cost, solution)
    except RuntimeProtocolError:
        return False
    return True


class Coordinator:
    """Handles worker messages against the INTERVALS/SOLUTION state.

    Parameters
    ----------
    root_interval:
        The whole search space (range of the root node).
    duplication_threshold:
        §4.2's split-vs-duplicate cutoff.
    store:
        Optional checkpoint store; when given, :meth:`maybe_checkpoint`
        persists INTERVALS and SOLUTION every ``checkpoint_period``
        seconds, and :meth:`recover` restores them.
    lease_seconds:
        When set, a worker that owns an interval but has not been
        heard from for this long is presumed dead: :meth:`check_leases`
        releases its copy to the load balancer.  A worker that was
        merely slow reconciles later through the carve path — the
        interval-set invariant makes a wrongly-expired lease cost
        redundancy, never lost work.
    problem:
        The job's problem.  When given, a Push that would lower
        SOLUTION is believed only once :meth:`Problem.solution_cost`
        recomputes its cost (:func:`checked_cost`), and so is every
        push record a :meth:`recover` replays.  The simulator's farmer
        holds a workload, not a problem: its synthetic solutions name
        no schedule and cannot be checked, so it passes none.

    Every ``now`` is the driver's clock in seconds: the pump's monotonic
    one, or the simulator's virtual one.
    """

    def __init__(
        self,
        root_interval: Interval,
        duplication_threshold: int = 1,
        store: Optional[LoggedJob] = None,
        checkpoint_period: float = 5.0,
        initial_best: Optional[Incumbent] = None,
        lease_seconds: Optional[float] = None,
        problem: Optional[Problem] = None,
    ):
        self.root = root_interval
        self.problem = problem
        self.intervals = IntervalSet.initial(root_interval, duplication_threshold)
        self.solution = (initial_best or Incumbent()).copy()
        self.store = store
        self.checkpoint_period = checkpoint_period
        self.lease_seconds = lease_seconds
        self._last_checkpoint: Optional[float] = None  # the period starts at the first call
        self._powers: Dict[str, float] = {}
        # End of each worker's last grant: how far its word is taken
        # for what it explored past its own copy (see _on_update).
        self._granted_end: Dict[str, int] = {}
        self._last_heard: Dict[str, float] = {}
        # Holders whose latest Update left work: see can_use_requester().
        self._outlasted_slice: Set[str] = set()
        # Notices owed (see take_notices): holders whose copy someone
        # else cut, and the worker whose Push last lowered SOLUTION.
        self._cut: List[str] = []
        self._lowered_by: Optional[str] = None
        self.terminated = False
        # Table 2-style counters
        self.worker_checkpoint_ops = 0
        self.work_allocations = 0
        self.nodes_explored = 0
        self.leaves_consumed = 0
        self.improvements = 0
        self.leases_expired: List[str] = []

    # ------------------------------------------------------------------
    @classmethod
    def recover(
        cls,
        store: LoggedJob,
        root_interval: Interval,
        duplication_threshold: int = 1,
        checkpoint_period: float = 5.0,
        lease_seconds: Optional[float] = None,
        problem: Optional[Problem] = None,
    ) -> "Coordinator":
        """Restart after a farmer failure: reload the snapshot (§4.1),
        then replay the reconciliations journaled after it so the
        recovery window shrinks to the last reconciled update.  A
        checkpoint directory is input too: with a ``problem``, a push
        record whose solution does not cost what it says is skipped."""
        state = store.load_state(
            root_interval,
            duplication_threshold,
            None if problem is None else functools.partial(_believable, problem),
        )
        coord = cls(
            root_interval,
            duplication_threshold,
            store,
            checkpoint_period,
            initial_best=state.incumbent,
            lease_seconds=lease_seconds,
            problem=problem,
        )
        if state.intervals is not None:
            coord.intervals = state.intervals
        return coord

    # ------------------------------------------------------------------
    def handle(self, message: Any, now: float = 0.0) -> Any:
        """Apply one worker message, heard at ``now``; return the reply.

        Every message is applied: a retry or a channel duplicate is
        answered from the service core's cache before it gets here.
        """
        if isinstance(message, Update):  # the common one first
            reply: Any = self._on_update(message)
        elif isinstance(message, Request):
            reply = self._on_request(message)
        elif isinstance(message, Push):
            reply = self._on_push(message)
        else:
            raise RuntimeProtocolError(
                f"coordinator cannot handle {type(message).__name__}"
            )
        self._last_heard[message.worker] = now
        return reply

    def _on_request(self, msg: Request) -> Union[GrantWork, Terminate]:
        check_power(msg)
        self._powers[msg.worker] = msg.power
        self._outlasted_slice.discard(msg.worker)
        if self.intervals.is_empty():
            self.terminated = True
            return Terminate(self.solution.cost)
        assignment = self.intervals.assign(msg.worker, msg.power, self._powers)
        if assignment is None:
            self.terminated = True
            return Terminate(self.solution.cost)
        self.work_allocations += 1
        self._cut.extend(assignment.cut)
        self._granted_end[msg.worker] = assignment.interval.end
        return GrantWork(assignment.interval.as_tuple(), self.solution.cost)

    def _on_update(self, msg: Update) -> Reconciled:
        worker = msg.worker
        reported = Interval.from_tuple(msg.interval)
        rec = self.intervals.owned_record(worker)
        owned: Optional[Interval] = None
        twins: List[str] = []
        if rec is None:
            # An unowned reclaim (lease expired, farmer resumed): no
            # grant vouches for what this worker explored.
            self._granted_end.pop(worker, None)
        else:
            owned = rec.interval
            if len(rec.owners) > 1:
                twins = [w for w in rec.owners if w != worker]
        merged = self.intervals.update(worker, reported)
        if merged.begin >= merged.end:
            self._outlasted_slice.discard(worker)
            self._cut.extend(twins)  # their duplicate is finished
        else:
            self._outlasted_slice.add(worker)
        if owned is not None and reported.begin > owned.begin:
            # Owned path only: everything between the copy's begin and
            # the reported begin is definitely explored — eq. 14's left
            # remainder, and past the copy's end when the worker ran
            # over a cut it had not heard of yet.  The unowned-reclaim
            # path cannot know what was explored, so it journals
            # nothing — replay then keeps that work, costing
            # redundancy, never loss.
            if reported.begin > owned.end:
                self._subtract_past_cut(worker, owned.end, reported.begin)
            if self.store is not None:
                self.store.journal_explored(
                    Interval(owned.begin, reported.begin)
                )
        self.worker_checkpoint_ops += 1
        self.nodes_explored += msg.nodes
        self.leaves_consumed += msg.consumed
        if self.intervals.is_empty():
            self.terminated = True
        return Reconciled(merged.as_tuple(), self.solution.cost)

    def _subtract_past_cut(self, worker: str, cut: int, begin: int) -> None:
        """``worker`` ran on from ``cut`` to ``begin``, into copies handed
        out behind its back: that much is not theirs to explore again.

        Its word is taken only as far as the end of its last grant — an
        honest worker never runs past it, so a ``begin`` beyond it (a
        stray retry, a worker bug, a corrupt frame) erases nothing; and
        with no grant remembered nothing is subtracted at all, which
        costs redundancy, never a leaf.
        """
        past = Interval(cut, min(begin, self._granted_end.get(worker, cut)))
        if past.is_empty():
            return
        for other in self.intervals.iter_records():
            if other.interval.overlaps(past):
                self._cut.extend(other.owners)
        self.intervals.subtract(past)

    def _on_push(self, msg: Push) -> Ack:
        cost = msg.cost
        if self.problem is not None and cost < self.solution.cost:
            cost = checked_cost(self.problem, cost, msg.solution)
        if self.solution.update(cost, msg.solution):
            self.improvements += 1
            self._lowered_by = msg.worker
            if self.store is not None:
                self.store.journal_push(msg.cost, msg.solution)
        return Ack(self.solution.cost)

    def take_notices(self) -> List[Tuple[str, Notice]]:
        """The ``(worker, Notice)`` pairs owed since the last call.

        The pump sends them after the reply to the message it just
        handled.  ``cut=True`` goes to every holder whose copy was
        shrunk or dropped for a reason it did not itself report — a
        split in ``assign``, a duplicate twin finishing, a holder that
        had explored past the cut before it heard of it; ``cut=False``
        to every other holder once a Push lowered ``SOLUTION`` (a worker
        holding nothing is about to Request and reads the cost off its
        grant).  The cost is read here, off ``SOLUTION``, after that
        Push was handled and journaled: a notice never carries a cost
        whose solution the coordinator lacks.
        """
        if not self._cut and self._lowered_by is None:
            return []
        cost = self.solution.cost
        notices = [(worker, Notice(cost, True)) for worker in self._cut]
        if self._lowered_by is not None:
            told = set(self._cut)
            told.add(self._lowered_by)
            notices.extend(
                (worker, Notice(cost, False))
                for worker in sorted(self.intervals.owners() - told, key=str)
            )
        self._cut = []
        self._lowered_by = None
        return notices

    # ------------------------------------------------------------------
    def release_worker(self, worker: str) -> None:
        """A worker process died: orphan its interval (§4.1).

        If it is alive after all (an expired lease on a slow worker),
        its next Update reclaims through the carve path.
        """
        self.intervals.release(worker)
        self._powers.pop(worker, None)
        self._granted_end.pop(worker, None)
        self._last_heard.pop(worker, None)
        self._outlasted_slice.discard(worker)

    def can_use_requester(self) -> bool:
        """Whether one more worker would add work done, not work doubled.

        True when some copy is unowned (fresh, released, lease-expired)
        or some holder's latest Update left work — the only evidence that
        its interval outlasts a slice.  A job that fits in one slice is
        over before a second worker has built the problem.
        """
        return any(
            not rec.owners or not self._outlasted_slice.isdisjoint(rec.owners)
            for rec in self.intervals.iter_records()
        )

    def check_leases(self, now: float) -> List[str]:
        """Release every interval owner silent past ``lease_seconds``.

        Returns the workers released this call.  A worker first seen
        here (it owns work but predates lease tracking — e.g. after a
        coordinator recovery lost the clocks) starts a fresh lease
        rather than being released immediately.
        """
        if self.lease_seconds is None:
            return []
        expired: List[str] = []
        for worker in sorted(self.intervals.owners(), key=str):
            heard = self._last_heard.get(worker)
            if heard is None:
                self._last_heard[worker] = now
            elif now - heard > self.lease_seconds:
                self.release_worker(worker)
                expired.append(worker)
        self.leases_expired.extend(expired)
        return expired

    def maybe_checkpoint(self, now: float = 0.0, force: bool = False) -> bool:
        """Persist INTERVALS and SOLUTION when the period elapsed."""
        if self.store is None:
            return False
        if self._last_checkpoint is None:
            self._last_checkpoint = now
        if not force and now - self._last_checkpoint < self.checkpoint_period:
            return False
        self.store.save(self.intervals, self.solution)
        self._last_checkpoint = now
        return True

    def redundant_rate(self, total_leaves: int) -> float:
        if self.leaves_consumed <= 0:
            return 0.0
        # repro-check: ignore[RC01] -- reporting ratio for Table 2, not interval state
        return max(0, self.leaves_consumed - total_leaves) / self.leaves_consumed
