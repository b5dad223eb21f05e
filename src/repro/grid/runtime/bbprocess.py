"""The worker process entry point of the multiprocessing runtime.

A driver of :class:`~repro.grid.runtime.worker.WorkerCore`, the one
worker state machine (the simulator's ``SimWorker`` drives the same
core under its virtual clock): the core decides every message and
applies every reply; this module moves them over a real connection
against a real clock.  Three mechanisms keep exploration — not
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
  flight.  The reply is collected at once exactly when the core says
  the copy the worker explores from may be stale: a server epoch
  change, or a cut notice.
* **Coordinator notices** (:class:`~repro.grid.runtime.protocol.Notice`):
  the engine's mid-slice poll (every ``bound_poll_nodes`` nodes) is a
  non-blocking drain of the connection, handed to the core.

Every exchange is an at-least-once RPC (:class:`_RpcChannel`); only
when every retry times out does the worker give up and die silently,
exactly like a crash.  The same ``worker_main`` runs over fork-inherited
queues and over TCP: it opens the
:class:`~repro.grid.net.transport.Connection` its
:class:`~repro.grid.net.transport.Connector` names.
"""

from __future__ import annotations

import itertools
import random
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from repro.core.engine import IntervalExplorer
from repro.core.interval import Interval
from repro.core.stats import Incumbent
from repro.grid.net.backoff import decorrelated_jitter
from repro.grid.net.transport import Connection, Connector, TransportError
from repro.grid.runtime.protocol import Idle, Notice, Terminate
from repro.grid.runtime.worker import WorkerCore

__all__ = ["AdaptiveSlicer", "worker_main"]

_BACKOFF_CAP = 8.0  # max multiplier over reply_timeout per attempt


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
                if getattr(reply, "seq", 0) == seq:
                    self._pending = None
                    return reply
                # A stale reply from an RPC we already retried past (or
                # one that names no RPC): discard, wait for the current one.
            timeout = decorrelated_jitter(
                self._rng,
                self._reply_timeout,
                timeout,
                self._reply_timeout * _BACKOFF_CAP,
            )
        self._pending = None
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

    The coordinator is always a solve service, and the same loop serves
    *many* jobs: each grant carries an opaque job id plus the job's spec
    in wire form, the worker keeps one built problem and one local
    incumbent per job id (for the last few jobs it was granted —
    :class:`WorkerCore`), stamps its Updates and Pushes with the grant's
    id, and asks again on an :class:`Idle` reply — the service parks a
    Request it cannot grant, so the waiting is done server-side.
    """
    core = WorkerCore(worker_id, power)
    stats = core.stats
    slicer = AdaptiveSlicer(
        update_nodes,
        target_period=update_period,
        min_nodes=min_slice_nodes,
        max_nodes=max_slice_nodes,
    )
    connection = connector.connect(worker_id)
    chan = _RpcChannel(
        connection,
        reply_timeout,
        max_retries,
        stats,
        rng=random.Random(worker_id),  # deterministic, per-worker jitter
    )

    resync = False  # a new server incarnation answered since the last slice

    def answered(reply: Any) -> Any:
        """Pass a reply on, telling the core if a new incarnation sent it.

        A reconnect to a *new server incarnation* (its Welcome epoch
        changed) happens before the first reply that incarnation sends,
        and no earlier reply is still unread by then.
        """
        nonlocal resync
        if connection.take_epoch_change():
            core.new_incarnation()
            resync = True
        return reply

    def reinform(push: Optional[Any]) -> bool:
        """Send the core's re-inform Push, if any; False: coordinator gone."""
        return push is None or answered(chan.call(push)) is not None

    def settle() -> str:
        """Retire the in-flight Update: "ok", "terminate", "crash", "gave-up"."""
        reply = answered(chan.collect())
        if reply is None:
            return "gave-up"
        push = core.reconciled(reply)
        updates = stats["updates"]
        if crash_after_updates is not None and updates >= crash_after_updates:
            return "crash"  # simulated crash: no Bye, interval left behind
        if hang_after_updates == updates and hang_seconds > 0:
            time.sleep(hang_seconds)  # alive but silent: lease expires
        if isinstance(reply, Terminate):
            return "terminate"
        return "ok" if reinform(push) else "gave-up"

    def poll() -> float:
        """The engine's mid-slice poll: hear the coordinator, never wait."""
        cost, yield_now = core.hear(chan.poll())
        if yield_now:
            explorer.yield_at_poll()
        return cost

    try:
        while True:
            reply = answered(chan.call(core.request()))
            if reply is None:
                # repro-check: ignore[RC04] -- best-effort Bye after the retry budget is exhausted; the launcher's process sentinel covers the exit
                connection.send(core.bye())
                return "gave-up"
            if isinstance(reply, Terminate):
                break
            if isinstance(reply, Idle):
                # Keep-alive: no job had work for as long as the service
                # parks a Request.  The fleet outlives any one job, so
                # ask again.
                core.idle()
                continue
            # A Grant claimed from a just-restarted coordinator is
            # already a fresh reconciliation; clear the flag so the
            # first slice boundary is not forced synchronous for nothing.
            resync = False
            if not reinform(core.grant(reply)):
                return "gave-up"
            if core.problem is None:
                raise TransportError(
                    f"granted job {core.job!r} but no problem: the grant "
                    "carried no spec"
                )
            # A notice that came before this grant is about another interval.
            chan.notices.clear()
            explorer = IntervalExplorer(
                core.problem,
                Interval.from_tuple(reply.interval),
                incumbent=Incumbent(core.start_bound, None),
                on_improvement=core.found,
                bound_provider=poll,
                bound_poll_nodes=bound_poll_nodes,
                kernel_backend=kernel_backend,
            )
            core.unit = explorer
            outcome = "ok"
            while outcome == "ok" and core.exploring:
                started = time.monotonic()
                report = explorer.step(slicer.next_slice())
                seconds = time.monotonic() - started
                stats["explore_seconds"] += seconds
                slicer.observe(report.nodes_processed, seconds)
                # The previous boundary's Update overlapped this slice;
                # reconcile it before talking to the coordinator again.
                if chan.has_pending():
                    outcome = settle()
                    if outcome != "ok":
                        break
                # A new server incarnation may have recovered stale
                # state: the core re-pushes the best and the Update is
                # reconciled before another node, as after a cut notice.
                messages, reconcile_now = core.slice_done(
                    report.nodes_processed, report.consumed, resync=resync
                )
                resync = False
                for push in messages[:-1]:
                    ack = answered(chan.call(push))
                    if ack is None:
                        return "gave-up"
                    core.acked(ack)
                chan.send(messages[-1])
                if reconcile_now:
                    outcome = settle()
            # Exploration (or a cut) ended with one Update still in
            # flight: it is retired before the next RPC goes out.
            if outcome == "ok" and chan.has_pending():
                outcome = settle()
            if outcome == "terminate":
                break
            if outcome != "ok":
                return outcome

        # Best-effort acknowledged goodbye: routed through the retry
        # helper so a dropped Bye under a lossy channel is re-sent (same
        # seq, so the coordinator dedups) instead of stalling the run
        # until the process sentinel notices the exit.  If every retry
        # times out the worker leaves anyway — the sentinel covers it.
        chan.call(core.bye())
        return "terminate"
    finally:
        connection.close()
