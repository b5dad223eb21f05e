"""Fault injection for the real multiprocessing runtime (§4.1 end-to-end).

The simulator injects failures under a virtual clock; this module does
it against real OS processes and sockets so the paper's recovery claims
are exercised where they matter:

* **Coordinator crash** — the launcher aborts its solve service
  (:meth:`~repro.grid.service.server.SolveService.abort`: all in-memory
  state is lost, sequence caches included, and no final checkpoint is
  written), drops every message that arrives during the downtime
  window, and starts a successor with ``resume=True`` over the same
  checkpoint directory and listener — the crash-only path a real
  ``kill -9`` of ``repro grid serve`` takes.
* **Lossy channel** — :class:`FaultyListener` wraps any
  :class:`~repro.grid.net.transport.Listener` and probabilistically
  drops, duplicates, or delays (reorders) individual protocol
  messages in both directions, driven by a seeded ``random.Random`` so
  every schedule is reproducible; the chaos schedules run over
  loopback TCP (socket-specific faults — client RSTs, half-open peers
  — live in :mod:`repro.grid.net.tcp` and compose with these).
* **Worker hang** — unlike a crash, a hung worker stays alive but
  silent past its lease; the coordinator releases its interval to the
  load balancer, and the worker's eventual late update reconciles
  through the carve path (redundant work, never lost work).

Every fault is safe by the interval-set invariant: the union of
coordinator copies always covers all unexplored work, so the worst a
fault can cost is re-exploration.

Since PR 3 the chaos harness runs against the pipelined hot path by
default: workers keep an interval update in flight while exploring, so
a coordinator crash, drop, or reorder routinely lands on a pipelined
``Update`` whose ``Reconciled`` reply is still owed — the retry (same
seq) must ride out the fault and reconcile against whatever state the
coordinator recovered.  The coordinator's advisory
:class:`~repro.grid.runtime.protocol.Notice` crosses the same lossy
reply path; ``ChannelFaults.notices`` gives it fault rates of its own,
so a schedule can drop *every* notice (the run must then behave like
the pull-only protocol: same optimum, more redundant work) or
duplicate and delay them all (a stale notice costs one early Update).
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.grid.net.transport import Listener, TransportTimeout
from repro.grid.runtime.protocol import Notice

__all__ = [
    "CoordinatorCrash",
    "WorkerHang",
    "ChannelFaults",
    "FaultStats",
    "FaultPlan",
    "FaultyListener",
]


@dataclass(frozen=True)
class CoordinatorCrash:
    """Abort the solve service after it handled ``after_messages`` messages.

    The launcher then ignores traffic for ``downtime`` seconds (the
    farmer is down: messages sent to it are lost) before resuming a new
    service from the checkpoint directory.
    """

    after_messages: int
    downtime: float = 0.25

    def down(self, listener: Listener) -> None:
        """The downtime: whatever workers send is lost (they will retry)."""
        until = time.monotonic() + self.downtime
        while (left := until - time.monotonic()) > 0:
            try:
                listener.recv(timeout=min(0.05, left))
            except TransportTimeout:
                pass


@dataclass(frozen=True)
class WorkerHang:
    """Make a worker sleep ``seconds`` after ``after_updates`` updates.

    The worker does not crash — it goes silent long enough for its
    lease to expire, then resumes and reports stale progress.
    """

    after_updates: int
    seconds: float = 1.0


@dataclass(frozen=True)
class ChannelFaults:
    """Per-message fault probabilities for a :class:`FaultyListener`.

    ``notices``, when given, replaces these rates for the coordinator's
    unsolicited ``Notice`` messages (replies keep the rates above).
    """

    drop: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0
    notices: Optional["ChannelFaults"] = None

    def __post_init__(self) -> None:
        total = self.drop + self.duplicate + self.delay
        if not 0.0 <= total <= 1.0:
            raise ValueError(
                f"fault probabilities must sum to [0, 1], got {total}"
            )


@dataclass
class FaultStats:
    """How many messages each fault actually hit (both directions)."""

    dropped: int = 0
    duplicated: int = 0
    delayed: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "delayed": self.delayed,
        }


@dataclass
class FaultPlan:
    """Everything that goes wrong during one parallel run.

    ``worker_crashes`` maps worker index -> crash after that many
    updates (the worker exits without a ``Bye``);
    ``worker_hangs`` maps worker index -> :class:`WorkerHang`.
    ``seed`` drives the lossy-channel RNG.
    """

    coordinator_crashes: List[CoordinatorCrash] = field(default_factory=list)
    channel: Optional[ChannelFaults] = None
    worker_crashes: Dict[int, int] = field(default_factory=dict)
    worker_hangs: Dict[int, WorkerHang] = field(default_factory=dict)
    seed: int = 0

    def is_empty(self) -> bool:
        return (
            not self.coordinator_crashes
            and self.channel is None
            and not self.worker_crashes
            and not self.worker_hangs
        )

    @classmethod
    def chaos(cls, seed: int, workers: int = 3) -> "FaultPlan":
        """A randomized but reproducible schedule mixing every fault kind.

        Guaranteed non-empty: every seed injects at least a lossy
        channel, and roughly half the seeds add a coordinator crash,
        a worker crash, and/or a worker hang on top.
        """
        rng = random.Random(seed)
        plan = cls(seed=seed)
        plan.channel = ChannelFaults(
            drop=rng.uniform(0.01, 0.10),
            duplicate=rng.uniform(0.01, 0.10),
            delay=rng.uniform(0.01, 0.10),
        )
        if rng.random() < 0.5:
            plan.coordinator_crashes = [
                CoordinatorCrash(
                    after_messages=rng.randint(4, 40),
                    downtime=rng.uniform(0.1, 0.4),
                )
            ]
        if rng.random() < 0.5 and workers > 1:
            plan.worker_crashes = {
                rng.randrange(workers): rng.randint(1, 4)
            }
        if rng.random() < 0.5:
            victims = [
                i for i in range(workers) if i not in plan.worker_crashes
            ]
            if victims:
                plan.worker_hangs = {
                    rng.choice(victims): WorkerHang(
                        after_updates=rng.randint(1, 4),
                        seconds=rng.uniform(0.4, 0.9),
                    )
                }
        return plan


class FaultyListener(Listener):
    """Channel faults over *any* transport's listener.

    Wraps the coordinator side of a transport and probabilistically
    drops, duplicates or delays (reorders) individual protocol
    messages in both directions, driven by the seeded ``rng`` so every
    schedule is reproducible:

    * **inbound** (:meth:`recv`) — a dropped message is silently
      discarded (the worker's retry layer recovers), a duplicated one
      is delivered twice back to back (the coordinator's sequence cache
      dedups), and a delayed one is buffered and re-inserted behind
      later traffic (reordering, which the sequence numbers make
      harmless).  A buffered message is always released when the inbox
      runs empty, so delay can never turn into loss;
    * **outbound** (:meth:`send`) — a dropped reply forces the worker's
      RPC retry (the service then answers from its reply cache); a
      delayed reply is emitted *after* the next one to the same worker,
      exercising the worker's stale-reply discard.  One delay buffer
      per worker keeps the destinations independent; :meth:`flush`
      releases them all — the service pump calls it on idle iterations
      so a delayed terminal reply cannot strand a worker forever.
    """

    def __init__(
        self,
        listener: Listener,
        faults: ChannelFaults,
        rng: random.Random,
        stats: Optional[FaultStats] = None,
    ):
        self._listener = listener
        self._faults = faults
        self._rng = rng
        self.stats = stats if stats is not None else FaultStats()
        self._pending: deque = deque()  # duplicates / released delays
        self._delayed: deque = deque()  # inbound messages held back
        self._held: Dict[str, deque] = {}  # outbound replies, per worker

    def recv(self, timeout: Optional[float] = None) -> Any:
        f = self._faults
        while True:
            if self._pending:
                return self._pending.popleft()
            try:
                message = self._listener.recv(timeout=timeout)
            except TransportTimeout:
                if self._delayed:
                    return self._delayed.popleft()
                raise
            roll = self._rng.random()
            if roll < f.drop:
                self.stats.dropped += 1
                continue
            if roll < f.drop + f.duplicate:
                self.stats.duplicated += 1
                self._pending.append(message)
                return message
            if roll < f.drop + f.duplicate + f.delay:
                self.stats.delayed += 1
                self._delayed.append(message)
                continue
            if self._delayed and self._rng.random() < 0.5:
                self._pending.append(self._delayed.popleft())
            return message

    def send(self, worker: str, reply: Any) -> None:
        held = self._held.setdefault(worker, deque())
        roll = self._rng.random()
        f = self._faults
        if f.notices is not None and isinstance(reply, Notice):
            f = f.notices
        if roll < f.drop:
            self.stats.dropped += 1
        elif roll < f.drop + f.duplicate:
            self.stats.duplicated += 1
            self._listener.send(worker, reply)
            self._listener.send(worker, reply)
        elif roll < f.drop + f.duplicate + f.delay:
            self.stats.delayed += 1
            held.append(reply)
            return
        else:
            self._listener.send(worker, reply)
        while held:
            self._listener.send(worker, held.popleft())

    def connected_workers(self) -> List[str]:
        return self._listener.connected_workers()

    def flush(self) -> None:
        for worker, held in self._held.items():
            while held:
                self._listener.send(worker, held.popleft())
        self._listener.flush()

    @property
    def address(self) -> Optional[Tuple[str, int]]:
        return self._listener.address

    def close(self) -> None:
        self._listener.close()
