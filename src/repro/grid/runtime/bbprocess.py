"""The worker process entry point of the multiprocessing runtime.

Mirrors the simulated worker's session loop (pull work, explore in
slices, push improvements, update the interval) but against real OS
queues and a real clock.  Three mechanisms keep exploration — not
coordination — on the critical path:

* **Adaptive slicing** (:class:`AdaptiveSlicer`): the slice between
  interval updates is counted in nodes (so tiny test instances stay
  deterministic) but *sized* toward a wall-clock update period.  Each
  worker measures its own nodes/sec and grows or shrinks the next
  slice toward ``update_period`` seconds of exploration — the paper's
  time-based update done per-worker, so heterogeneous workers all
  report at the same cadence instead of the fast ones flooding the
  farmer and the slow ones going silent.
* **Pipelined interval updates**: the worker sends its ``Update`` and
  immediately keeps exploring the remainder it just reported (which
  the coordinator can only *shrink*, never grow — eq. 14), collecting
  the ``Reconciled`` reply at the next slice boundary.  The update
  round-trip overlaps a whole slice of exploration; the only work at
  risk is the tail the farmer gave away meanwhile, which the §4.1
  invariant makes redundant, never wrong.  At most one RPC is ever in
  flight, so the PR 1 at-least-once machinery (same-seq retries, the
  coordinator's per-worker reply cache) carries over unchanged.  The
  reply is collected at once exactly when something says the copy the
  worker explores from may be stale: a server epoch change, or a cut
  notice.
* **Coordinator notices** (:class:`~repro.grid.runtime.protocol.Notice`):
  the engine's mid-slice poll (every ``bound_poll_nodes`` nodes) is a
  non-blocking drain of the connection.  A notice's ``best_cost`` is
  adopted on the spot, so a bound pushed by any worker tightens pruning
  in every holder within one poll of the coordinator handling the Push.
  A ``cut`` notice — the coordinator split this worker's interval for a
  requester — ends the slice at that poll, and so does an improvement
  of the worker's own once any notice has shown that the job has other
  holders: the loop then does what it does at any slice boundary (Push,
  Update), and after a cut collects the ``Reconciled``
  before another node is explored.  Notices are advisory and carry no
  interval: one that is lost, late or repeated costs redundant work or
  one early Update.  The worker never prunes siblings with a cost of
  its own before the Push is acknowledged — the bound it hears back is
  read off ``SOLUTION``, so no crash can leave a cost pruning the
  optimum while its solution is lost.

Every exchange is an at-least-once RPC: the worker stamps a monotonic
sequence number on the message, waits ``reply_timeout`` for a reply
carrying that seq (discarding stale replies left over from earlier
retries), and on timeout re-sends the same message — same seq, so the
coordinator dedups — up to ``max_retries`` times.  Successive waits
back off with decorrelated jitter (capped at ``_BACKOFF_CAP`` times
the base timeout), so a fleet of workers that lost the farmer together
does not retry in lock step against the recovering farmer.  Only when
every retry times out does the worker give up and die silently,
exactly like a crash.

The worker talks to the coordinator through a
:class:`~repro.grid.net.transport.Connection` obtained from the
:class:`~repro.grid.net.transport.Connector` it was handed — the same
``worker_main`` runs over fork-inherited queues and over TCP.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.core.engine import IntervalExplorer
from repro.core.interval import Interval
from repro.core.problem import Problem
from repro.core.stats import Incumbent
from repro.grid.net.backoff import decorrelated_jitter
from repro.grid.net.transport import Connection, Connector, TransportError
from repro.grid.runtime.protocol import (
    Ack,
    Bye,
    GrantWork,
    Idle,
    JobGrant,
    JobPush,
    JobUpdate,
    Notice,
    ProblemSpec,
    Push,
    Reconciled,
    Request,
    Terminate,
    Update,
    spec_from_wire,
)

__all__ = ["AdaptiveSlicer", "worker_main"]

_BACKOFF_CAP = 8.0  # max multiplier over reply_timeout per attempt

#: Jobs whose built problem and local incumbent a fleet worker keeps.
#: The service streams jobs through a worker without end, but a worker
#: only alternates between the few running at once: the least recently
#: granted job beyond this many is forgotten (its next grant, should
#: one ever come, carries the spec to rebuild it from).
_JOB_CACHE_SIZE = 8


class AdaptiveSlicer:
    """Size exploration slices (in nodes) toward a wall-clock period.

    The controller keeps an exponential moving average of the worker's
    observed throughput and proposes ``rate × target_period`` nodes for
    the next slice, clamped to ``[min_nodes, max_nodes]`` and never
    changing by more than ``max_growth``× per step (so one noisy slice
    — a pruning burst, a page fault — cannot swing the cadence).  With
    ``target_period=None`` the slicer degrades to exactly the fixed
    ``initial_nodes`` count (the clamp range only constrains adaptive
    steps), which is what the deterministic unit tests use.
    """

    def __init__(
        self,
        initial_nodes: int,
        target_period: Optional[float] = None,
        min_nodes: int = 64,
        max_nodes: int = 1 << 20,
        smoothing: float = 0.5,
        max_growth: float = 2.0,
    ):
        if initial_nodes < 1:
            raise ValueError("initial_nodes must be >= 1")
        if not 0.0 < smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")
        if max_growth <= 1.0:
            raise ValueError("max_growth must be > 1")
        if min_nodes < 1 or max_nodes < min_nodes:
            raise ValueError("need 1 <= min_nodes <= max_nodes")
        self.target_period = target_period
        self.min_nodes = min_nodes
        self.max_nodes = max_nodes
        self.smoothing = smoothing
        self.max_growth = max_growth
        if target_period is None:
            # Fixed mode: honor the requested size exactly, even below
            # min_nodes — the clamps only bound adaptive steps.
            self._nodes = initial_nodes
        else:
            self._nodes = max(min(initial_nodes, max_nodes), min_nodes)
        self._rate: Optional[float] = None  # EMA of nodes per second

    @property
    def rate(self) -> Optional[float]:
        """Smoothed throughput estimate (nodes/sec), if any yet."""
        return self._rate

    def next_slice(self) -> int:
        """Node budget for the coming slice."""
        return self._nodes

    def observe(self, nodes: int, seconds: float) -> None:
        """Feed back one slice's measured cost; adapt the next budget."""
        if self.target_period is None or nodes <= 0 or seconds <= 0.0:
            return
        rate = nodes / seconds
        if self._rate is None:
            self._rate = rate
        else:
            s = self.smoothing
            self._rate = s * rate + (1.0 - s) * self._rate
        ideal = self._rate * self.target_period
        lo = self._nodes / self.max_growth
        hi = self._nodes * self.max_growth
        self._nodes = int(
            min(self.max_nodes, max(self.min_nodes, min(hi, max(lo, ideal))))
        )


class _RpcChannel:
    """At-least-once RPC over a Connection, with one-deep pipelining.

    ``call`` is the synchronous shape PR 1 shipped: send, wait, retry
    with the same seq on timeout.  ``send`` + ``collect`` split that
    into halves so the caller can explore between them; the retry loop
    simply runs at collect time.  The discipline is *single
    outstanding*: ``send``/``call`` assert nothing is pending, which
    keeps every coordinator-side assumption (one cached reply per
    worker, strictly increasing seqs) intact.

    Each retry's wait is drawn with decorrelated jitter from
    ``[reply_timeout, 3 × previous]`` (capped at ``_BACKOFF_CAP`` times
    the base), so workers that timed out together spread their resends
    instead of hammering a recovering coordinator in lock step.

    Time spent blocked on the connection is accumulated into
    ``wait_stats["rpc_wait_seconds"]`` so coordination overhead is a
    measured number, not an inference.

    The coordinator may put a :class:`Notice` on the connection at any
    time.  It is never a reply, whatever else is in flight: ``collect``
    sets one aside for the next ``poll``, and ``poll`` keeps a reply
    that arrived early for ``collect``.
    """

    def __init__(
        self,
        connection: Connection,
        reply_timeout: float,
        max_retries: int,
        wait_stats: Dict[str, float],
        rng: Optional[random.Random] = None,
    ):
        self._connection = connection
        self._reply_timeout = reply_timeout
        self._max_retries = max_retries
        self._wait_stats = wait_stats
        self._rng = rng if rng is not None else random.Random()
        self._seq_counter = itertools.count(1)
        self._pending = None  # message awaiting its reply, or None
        self._early: Deque[Any] = deque()  # replies poll() read ahead
        self.notices: List[Notice] = []  # set aside until the next poll()
        self.gave_up = False  # a full retry budget expired: farmer gone

    def has_pending(self) -> bool:
        return self._pending is not None

    def send(self, message: Any) -> None:
        """Fire an RPC without waiting; its reply is due at ``collect``."""
        assert self._pending is None, "only one RPC may be in flight"
        message.seq = next(self._seq_counter)
        self._pending = message
        self._connection.send(message)

    def collect(self) -> Any:
        """Wait for the pending RPC's reply (retrying); None = gave up."""
        message = self._pending
        assert message is not None, "collect() without a pending RPC"
        seq = message.seq
        timeout = self._reply_timeout
        for attempt in range(self._max_retries + 1):
            if attempt:
                self._connection.send(message)  # same seq: dedupable
            deadline = time.monotonic() + timeout
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                if self._early:
                    reply = self._early.popleft()
                else:
                    waited_from = time.monotonic()
                    try:
                        reply = self._connection.recv(timeout=remaining)
                    except TransportError:
                        # Timeout, or the channel broke mid-wait: either
                        # way the reply is missing — same retry recovers.
                        break
                    finally:
                        self._wait_stats["rpc_wait_seconds"] += (
                            time.monotonic() - waited_from
                        )
                if isinstance(reply, Notice):
                    self.notices.append(reply)
                    continue
                reply_seq = getattr(reply, "seq", 0)
                if reply_seq in (0, seq):  # 0: a legacy unsequenced reply
                    self._pending = None
                    return reply
                # A stale reply from an RPC we already retried past:
                # discard and keep waiting for the current one.
            timeout = decorrelated_jitter(
                self._rng,
                self._reply_timeout,
                timeout,
                self._reply_timeout * _BACKOFF_CAP,
            )
        self._pending = None
        self.gave_up = True
        return None  # coordinator gone for good: die silently like a crash

    def call(self, message: Any) -> Any:
        """Classic synchronous RPC: send then immediately collect."""
        self.send(message)
        return self.collect()

    def poll(self) -> List[Notice]:
        """Drain the connection without blocking; the notices so far."""
        while True:
            message = self._connection.poll()
            if message is None:
                break
            if isinstance(message, Notice):
                self.notices.append(message)
            else:
                self._early.append(message)
        notices, self.notices = self.notices, []
        return notices


def worker_main(
    worker_id: str,
    spec: Optional[ProblemSpec],
    connector: Connector,
    update_nodes: int = 2000,
    power: float = 1.0,
    reply_timeout: float = 60.0,
    max_retries: int = 2,
    crash_after_updates: Optional[int] = None,
    hang_after_updates: Optional[int] = None,
    hang_seconds: float = 0.0,
    update_period: Optional[float] = None,
    min_slice_nodes: int = 64,
    max_slice_nodes: int = 1 << 20,
    bound_poll_nodes: int = 256,
    kernel_backend: Optional[str] = None,
) -> str:
    """Run one B&B process until the coordinator says terminate.

    ``connector`` names the coordinator — a picklable
    :class:`~repro.grid.net.transport.Connector` the worker opens into
    its :class:`~repro.grid.net.transport.Connection` (fork-inherited
    queues or a TCP client; the loop is backend-blind).

    ``update_nodes`` is the first slice's node budget; with
    ``update_period`` set, later slices adapt toward that many wall
    seconds of exploration (see :class:`AdaptiveSlicer`).  Every
    ``bound_poll_nodes`` nodes the connection is drained of coordinator
    notices without blocking (module docstring).

    ``kernel_backend`` selects the pool-evaluation bound kernels of
    every explorer this worker runs (see :mod:`repro.core.kernels`):
    ``None`` auto-selects, ``"off"`` keeps per-family batched bounds
    only.

    ``crash_after_updates`` makes the worker exit abruptly (no Bye)
    after that many interval updates; ``hang_after_updates`` makes it
    sleep ``hang_seconds`` instead — alive but silent, so its lease
    expires at the coordinator.  Both are fault-injection hooks used
    by the chaos suite and the examples.

    Returns the loop outcome: ``"terminate"`` (the coordinator proved
    the space empty), ``"gave-up"`` (the retry budget expired against
    an unreachable coordinator) or ``"crash"`` (a fault hook fired).
    Process supervisors respawn anything but a clean ``"terminate"``.

    Against the multi-tenant solve service the same loop serves *many*
    jobs: grants arrive as :class:`JobGrant` (carrying an opaque job id
    plus the job's spec in wire form), the worker keeps one built
    problem and one local incumbent per job id (for the last
    ``_JOB_CACHE_SIZE`` jobs it was granted), tags its traffic with
    the grant's id, and asks again on an :class:`Idle` reply — the
    service parks a Request it cannot grant, so the waiting is done
    server-side.  ``spec`` may then be ``None`` — the fleet learns
    every problem from its grants.
    """
    connection = connector.connect(worker_id)
    try:
        return _worker_loop(
            worker_id,
            spec,
            connection,
            update_nodes=update_nodes,
            power=power,
            reply_timeout=reply_timeout,
            max_retries=max_retries,
            crash_after_updates=crash_after_updates,
            hang_after_updates=hang_after_updates,
            hang_seconds=hang_seconds,
            update_period=update_period,
            min_slice_nodes=min_slice_nodes,
            max_slice_nodes=max_slice_nodes,
            bound_poll_nodes=bound_poll_nodes,
            kernel_backend=kernel_backend,
        )
    finally:
        connection.close()


def _worker_loop(
    worker_id: str,
    spec: Optional[ProblemSpec],
    connection: Connection,
    *,
    update_nodes: int,
    power: float,
    reply_timeout: float,
    max_retries: int,
    crash_after_updates: Optional[int],
    hang_after_updates: Optional[int],
    hang_seconds: float,
    update_period: Optional[float],
    min_slice_nodes: int,
    max_slice_nodes: int,
    bound_poll_nodes: int,
    kernel_backend: Optional[str] = None,
) -> str:
    # One built problem per job id; "" is the classic single-job run
    # whose problem came in over ``spec``.  The multi-tenant service
    # repeats a job's spec on every JobGrant, so a fleet worker builds
    # each problem the first time it meets the job and keeps the most
    # recently granted ``_JOB_CACHE_SIZE``.
    problems: Dict[str, Problem] = {}
    if spec is not None:
        problems[""] = spec.build()
    stats_total: Dict[str, float] = {
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
    updates_sent = 0
    # Per-job local incumbents: a bound proved for one job must never
    # prune another job's tree.  ``shared`` turns true with the first
    # notice heard for the job: somebody else holds a part of it.
    bests: Dict[str, Dict[str, Any]] = {}

    def best_for(job: str) -> Dict[str, Any]:
        return bests.setdefault(
            job, {"cost": float("inf"), "solution": None, "shared": False}
        )

    chan = _RpcChannel(
        connection,
        reply_timeout,
        max_retries,
        stats_total,
        rng=random.Random(worker_id),  # deterministic, per-worker jitter
    )
    slicer = AdaptiveSlicer(
        update_nodes,
        target_period=update_period,
        min_nodes=min_slice_nodes,
        max_nodes=max_slice_nodes,
    )

    def push_message(job: str, cost: float, solution: Any) -> Any:
        if job:
            return JobPush(worker_id, job, cost, solution)
        return Push(worker_id, cost, solution)

    def update_message(
        job: str, interval: Tuple[int, int], nodes: int, consumed: int
    ) -> Any:
        if job:
            return JobUpdate(
                worker_id, job, interval, nodes=nodes, consumed=consumed
            )
        return Update(worker_id, interval, nodes=nodes, consumed=consumed)

    def reinform_if_stale(job: str, global_best: float) -> None:
        # The coordinator believes something worse than our local best
        # (it recovered from an old checkpoint): push ours again.
        best = best_for(job)
        if best["solution"] is not None and global_best > best["cost"]:
            chan.call(push_message(job, best["cost"], best["solution"]))

    def maybe_inject_fault() -> bool:
        """Apply the per-update fault hooks; True means exit now."""
        if (
            crash_after_updates is not None
            and updates_sent >= crash_after_updates
        ):
            return True  # simulated crash: no Bye, interval left behind
        if (
            hang_after_updates is not None
            and updates_sent == hang_after_updates
            and hang_seconds > 0
        ):
            time.sleep(hang_seconds)  # alive but silent: lease expires
        return False

    while True:
        reply = chan.call(Request(worker_id, power))
        if reply is None:
            # repro-check: ignore[RC04] -- best-effort Bye after the retry budget is exhausted; the launcher's process sentinel covers the exit
            connection.send(Bye(worker_id, dict(stats_total)))
            return "gave-up"
        if isinstance(reply, Terminate):
            break
        if isinstance(reply, Idle):
            # Keep-alive: no job had work for as long as the service
            # parks a Request.  The fleet outlives any one job, so ask
            # again (a pre-parking server may still ask for a pause).
            stats_total["idles"] += 1
            time.sleep(min(max(reply.retry_after, 0.0), 30.0))
            continue
        # A Grant claimed from a just-restarted coordinator is already
        # a fresh reconciliation; consume the flag so the first slice
        # boundary is not forced synchronous for nothing.
        connection.take_epoch_change()
        if isinstance(reply, JobGrant):
            job = reply.job
            problem = problems.pop(job, None)
            if problem is None:
                if reply.spec is None:
                    raise TransportError(
                        f"grant for unknown job {job!r} carried no spec"
                    )
                problem = spec_from_wire(reply.spec).build()
            problems[job] = problem  # (re)inserted last: most recent
            if len(problems) > _JOB_CACHE_SIZE:
                stale = next(iter(problems))
                del problems[stale]
                bests.pop(stale, None)
        else:
            assert isinstance(reply, GrantWork)
            job = ""
            problem = problems.get("")
            if problem is None:
                raise TransportError(
                    "coordinator granted work but no problem spec was "
                    "configured (pass one, or use a job-aware server)"
                )
        best = best_for(job)
        stats_total["allocations"] += 1
        reinform_if_stale(job, reply.best_cost)
        interval = Interval.from_tuple(reply.interval)
        improvements: List[Tuple[float, Any]] = []
        # A notice that came before this grant is about another interval.
        chan.notices.clear()
        cut_noticed = False

        def poll_notices() -> float:
            """The engine's mid-slice poll: hear the coordinator, never wait."""
            nonlocal cut_noticed
            cost = math.inf
            for notice in chan.poll():
                if notice.job != job:
                    continue  # a job this worker has moved on from
                stats_total["notices"] += 1
                best["shared"] = True
                cost = min(cost, notice.best_cost)
                cut_noticed = cut_noticed or notice.cut
            if cut_noticed or (improvements and best["shared"]):
                # The coordinator's copy of this interval changed under
                # us, or it lacks a solution that other holders of the
                # job could prune with: end the slice here and let the
                # boundary below do its Push / Update now.  (The only
                # holder of a job pushes at its slice boundaries, as
                # the paper's worker does: nobody is waiting for it.)
                stats_total["early_yields"] += 1
                explorer.yield_at_poll()
            return cost

        explorer = IntervalExplorer(
            problem,
            interval,
            incumbent=Incumbent(min(reply.best_cost, best["cost"]), None),
            on_improvement=lambda cost, sol: improvements.append((cost, sol)),
            bound_provider=poll_notices,
            bound_poll_nodes=bound_poll_nodes,
            kernel_backend=kernel_backend,
        )

        def collect_reconciled() -> str:
            """Retire the in-flight Update; apply its reconciliation.

            Returns ``"ok"``, ``"terminate"``, ``"crash"`` (fault hook
            fired) or ``"dead"`` (coordinator unreachable).
            """
            nonlocal updates_sent
            reconciled = chan.collect()
            if reconciled is None:
                return "dead"
            stats_total["updates"] += 1
            updates_sent += 1
            if maybe_inject_fault():
                return "crash"
            if isinstance(reconciled, Terminate):
                return "terminate"
            assert isinstance(reconciled, Reconciled)
            reinform_if_stale(job, reconciled.best_cost)
            explorer.apply_interval(Interval.from_tuple(reconciled.interval))
            explorer.set_upper_bound(reconciled.best_cost, None)
            return "ok"

        terminate = False
        while not explorer.is_finished():
            before = explorer.remaining_interval()
            slice_started = time.monotonic()
            report = explorer.step(slicer.next_slice())
            slice_seconds = time.monotonic() - slice_started
            stats_total["explore_seconds"] += slice_seconds
            slicer.observe(report.nodes_processed, slice_seconds)
            after = explorer.remaining_interval()
            consumed = max(
                0, min(after.begin, before.end) - before.begin
            )
            if report.finished:
                consumed = before.length
            stats_total["nodes"] += report.nodes_processed

            # The previous boundary's Update overlapped this slice;
            # reconcile it before talking to the coordinator again.
            if chan.has_pending():
                outcome = collect_reconciled()
                if outcome in ("dead", "crash"):
                    return "gave-up" if outcome == "dead" else "crash"
                if outcome == "terminate":
                    terminate = True
                    break

            # The transport reconnected to a *new server incarnation*
            # (the epoch in its Welcome changed): whatever interval
            # state it recovered may be stale.  Re-push our best (the
            # snapshot may predate it) and force the next Update to
            # reconcile synchronously so we learn of any reassignment
            # before exploring further on stale assumptions.  A cut
            # notice asks for the same: the Reconciled carries the cut.
            resync = connection.take_epoch_change()
            if resync:
                stats_total["epoch_resyncs"] += 1
                if best["solution"] is not None:
                    ack = chan.call(
                        push_message(job, best["cost"], best["solution"])
                    )
                    if ack is None:
                        return "gave-up"
                    if isinstance(ack, Ack):
                        explorer.set_upper_bound(ack.best_cost, None)

            if improvements:
                cost, solution = improvements[-1]
                improvements.clear()
                stats_total["improvements"] += 1
                if cost < best["cost"]:
                    best["cost"], best["solution"] = cost, solution
                ack = chan.call(push_message(job, cost, solution))
                if ack is None:
                    return "gave-up"
                if isinstance(ack, Ack):
                    explorer.set_upper_bound(ack.best_cost, None)

            chan.send(
                update_message(
                    job,
                    explorer.remaining_interval().as_tuple(),
                    nodes=report.nodes_processed,
                    consumed=consumed,
                )
            )
            if resync or cut_noticed:
                cut_noticed = False
                outcome = collect_reconciled()
                if outcome in ("dead", "crash"):
                    return "gave-up" if outcome == "dead" else "crash"
                if outcome == "terminate":
                    terminate = True
                    break

        # Exploration (or a cut) ended with one Update still in flight:
        # its reply must be retired before the next RPC goes out.
        if chan.has_pending():
            outcome = collect_reconciled()
            if outcome in ("dead", "crash"):
                return "gave-up" if outcome == "dead" else "crash"
            if outcome == "terminate":
                terminate = True
        if terminate:
            break

    # Best-effort acknowledged goodbye: routed through the retry helper
    # so a dropped Bye under a lossy channel is re-sent (same seq, so
    # the coordinator dedups) instead of stalling the run until the
    # process sentinel notices the exit.  If every retry times out the
    # worker leaves anyway — the sentinel path still covers it.
    chan.call(Bye(worker_id, dict(stats_total)))
    return "terminate"
