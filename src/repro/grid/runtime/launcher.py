"""Launcher: fork worker processes against a one-job solve service.

``solve_parallel`` is the user-facing call, and a thin driver of
:class:`~repro.grid.service.server.SolveService` — the one farmer pump
(docs/protocol.md).  It admits the run's job (the ``root_interval``
slice, seeded with the caller's incumbent) to a service that drains
when idle, forks ``workers`` B&B processes at the service's listener,
serves until the job is proved and every worker said goodbye, and reads
the :class:`ParallelResult` off the job's entry in the
:class:`~repro.grid.service.server.ServiceReport`.

Two things stay here, because only the launcher has them:

* **Process sentinels.**  A worker process that exited without a
  ``Bye`` is released (:meth:`SolveService.release_worker`) at the
  pump's next idle tick: its interval goes back to the load balancer,
  and a draining service does not wait for it.  A worker that hangs
  instead is covered by lease expiry when ``lease_seconds`` is set.
* **Fault wiring.**  A :class:`~repro.grid.runtime.faults.FaultPlan`
  turns the run into a chaos experiment: channel faults wrap the
  listener (:class:`~repro.grid.runtime.faults.FaultyListener`),
  workers crash or hang on cue, and a farmer crash is
  :meth:`SolveService.abort` after N handled messages, a downtime in
  which worker traffic is dropped, then a successor service with
  ``resume=True`` over the same checkpoint directory and listener.  The
  §4.1 invariant — the union of coordinator interval copies always
  covers all unexplored work — makes every such run terminate with the
  same proved optimum, at worst re-exploring.

The workers reach the service over a loopback TCP listener
(byte-exact framing, reconnects and all): the same wire that ``repro
grid serve`` and ``repro grid worker`` speak across machines.  The
launcher registers each worker id with the listener and forks; the
child builds its own :class:`~repro.grid.net.tcp.TcpClientConnection`
(:func:`_forked_worker`).  ``socket_faults`` adds socket-level chaos
(client-side RSTs mid-run).
"""

from __future__ import annotations

import math
import multiprocessing as mp
import random
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.core.stats import Incumbent
from repro.exceptions import RuntimeProtocolError
from repro.grid.net.transport import Listener
from repro.grid.runtime.bbprocess import worker_main
from repro.grid.runtime.faults import FaultPlan, FaultStats, FaultyListener
from repro.grid.runtime.protocol import JobRefused

__all__ = ["RuntimeConfig", "ParallelResult", "solve_parallel"]


@dataclass
class RuntimeConfig:
    """Tuning of a parallel run.

    ``update_nodes`` is the *first* slice's node budget; with
    ``update_period`` set (the default), each worker then adapts its
    slice size toward that many wall-clock seconds of exploration per
    interval update (``update_period=None`` restores the fixed-size
    slices).  Each Update round-trip overlaps the next slice of
    exploration; every ``bound_poll_nodes`` nodes a worker drains its
    connection of coordinator notices (a cut of its interval, a lower
    bound) without blocking.  The service behind the run keeps its own
    defaults for everything not named here (pump wait, duplication
    threshold; the reconciliation journal is always on).

    ``root_interval`` restricts the run to one ``(begin, end)`` slice
    of the tree's leaf numbering (the paper's work unit) instead of the
    full range — the parallel counterpart of ``solve(..., interval=…)``;
    the proved optimum is then the optimum over that slice.

    Each forked worker builds its own TCP client connection to a
    loopback server, with framing, heartbeats and reconnects.
    ``transport`` names that wire and accepts only ``"tcp"``; it
    remains because the benchmark suite's workload definitions still
    pass it, and goes when they stop.  ``socket_faults`` is a
    :class:`~repro.grid.net.tcp.SocketFaults` applied to every
    worker's client connection.  Worker crashes and hangs, channel
    faults and farmer crashes all come from ``fault_plan``.
    """

    workers: int = 2
    update_nodes: int = 2000  # first slice size between interval updates
    update_period: Optional[float] = 0.25  # target seconds per slice
    max_slice_nodes: int = 1 << 20
    bound_poll_nodes: int = 256  # nodes between mid-slice notice polls
    checkpoint_dir: Optional[Path] = None
    checkpoint_period: float = 2.0
    initial_upper_bound: float = float("inf")
    initial_solution: Any = None
    deadline: float = 300.0  # wall-clock safety net (seconds)
    reply_timeout: float = 60.0  # worker RPC wait before a retry
    max_retries: int = 2  # RPC retries (same seq, capped backoff)
    lease_seconds: Optional[float] = None  # silent-owner expiry (off by default)
    root_interval: Optional[Tuple[int, int]] = None  # leaf slice to solve
    transport: str = "tcp"  # the only wire; any other value is refused
    socket_faults: Optional[Any] = None  # SocketFaults
    fault_plan: Optional[FaultPlan] = None


@dataclass
class ParallelResult:
    """Outcome of a parallel resolution."""

    cost: float
    solution: Any
    optimal: bool
    wall_seconds: float
    workers: int
    work_allocations: int
    checkpoint_operations: int
    nodes_explored: int
    redundant_rate: float
    worker_stats: Dict[str, Dict[str, float]]
    crashed_workers: List[str]
    # Notices the coordinator sent, and slices the workers that said
    # goodbye ended at a poll because of one (or an improvement).
    notices_sent: int = 0
    early_yields: int = 0
    coordinator_restarts: int = 0
    leases_expired: List[str] = field(default_factory=list)
    duplicates_ignored: int = 0
    faults_injected: Dict[str, int] = field(default_factory=dict)
    # Aggregate coordination-overhead breakdown, summed over the
    # workers that said goodbye: wall seconds spent exploring vs wall
    # seconds blocked waiting on RPC replies.
    explore_seconds: float = 0.0
    rpc_wait_seconds: float = 0.0


def _forked_worker(
    worker_id: str,
    address: Tuple[str, int],
    faults: Optional[Any],
    **options: Any,
) -> None:
    """A forked worker process: build its own connection, run the loop.

    Built here, in the child: a socket does not survive ``fork``.  The
    connection dials on its first send, and its heartbeats ride the
    loop's own calls (the engine's mid-slice polls among them).
    """
    from repro.grid.net.tcp import TcpClientConnection

    host, port = address
    connection = TcpClientConnection(host, port, worker_id, faults=faults)
    worker_main(worker_id, connection, **options)


def solve_parallel(
    spec: Dict[str, Any], config: Optional[RuntimeConfig] = None
) -> ParallelResult:
    """Exactly solve the problem ``spec`` names with a farmer and N
    worker processes (``spec`` as :func:`flowshop_spec` builds it)."""
    # Imported here, not at module top: the service imports this
    # package's coordinator back, and repro.grid.net.tcp needs the
    # framing module, which imports this package back too.
    from repro.grid.net.tcp import TcpListener
    from repro.grid.service.server import ServiceConfig, SolveService
    from repro.grid.service.store import DONE

    config = config or RuntimeConfig()
    if config.workers < 1:
        raise RuntimeProtocolError("need at least one worker")
    if config.transport != "tcp":
        raise RuntimeProtocolError(
            f"unknown transport {config.transport!r} (expected 'tcp')"
        )
    plan = config.fault_plan or FaultPlan()
    crashes = sorted(plan.coordinator_crashes, key=lambda c: c.after_messages)
    checkpoint_dir = config.checkpoint_dir
    temp_ckpt: Optional[tempfile.TemporaryDirectory] = None
    if checkpoint_dir is None and crashes:
        # A farmer crash is only recoverable through the checkpoint
        # files; give the run a store if the caller didn't.
        temp_ckpt = tempfile.TemporaryDirectory(prefix="repro-ckpt-")
        checkpoint_dir = Path(temp_ckpt.name)

    ctx = mp.get_context("fork")
    tcp = TcpListener("127.0.0.1", 0, peer_timeout=30.0)
    listener: Listener = tcp
    fault_stats = FaultStats()
    if plan.channel is not None:
        listener = FaultyListener(
            listener, plan.channel, random.Random(plan.seed), fault_stats
        )
    started = time.monotonic()
    processes: Dict[str, Any] = {}
    for i in range(config.workers):
        worker_id = f"worker-{i}"
        hang = plan.worker_hangs.get(i)
        tcp.register(worker_id)
        proc = ctx.Process(
            target=_forked_worker,
            args=(worker_id, tcp.address, config.socket_faults),
            kwargs={
                "update_nodes": config.update_nodes,
                "reply_timeout": config.reply_timeout,
                "max_retries": config.max_retries,
                "crash_after_updates": plan.worker_crashes.get(i),
                "hang_after_updates": hang.after_updates if hang else None,
                "hang_seconds": hang.seconds if hang else 0.0,
                "update_period": config.update_period,
                "max_slice_nodes": config.max_slice_nodes,
                "bound_poll_nodes": config.bound_poll_nodes,
            },
            daemon=True,
        )
        processes[worker_id] = proc
        proc.start()

    def start_service(resume: bool) -> Any:
        return SolveService(
            ServiceConfig(
                checkpoint_dir=checkpoint_dir,
                checkpoint_period=config.checkpoint_period,
                deadline=config.deadline - (time.monotonic() - started),
                lease_seconds=config.lease_seconds,
                resume=resume,
                drain_when_idle=True,
            ),
            listener=listener,
        )

    handled = 0

    def tick(message: Any) -> None:
        """Process sentinels on an idle tick; a farmer crash on cue."""
        nonlocal handled
        if message is None:
            # Only with a drained inbox: a worker that exits right after
            # its Bye must not be misread as dead before the Bye is read.
            for worker_id, proc in processes.items():
                if worker_id not in service.byes and not proc.is_alive():
                    service.release_worker(worker_id)
            return
        handled += 1
        if crashes and handled >= crashes[0].after_messages:
            service.abort()  # the rest of the inbox is lost with it

    byes: Dict[str, Dict[str, float]] = {}
    try:
        service = start_service(resume=False)
        reply = service.admit(
            spec,
            root=config.root_interval,
            incumbent=Incumbent(config.initial_upper_bound, config.initial_solution),
        )
        if isinstance(reply, JobRefused):
            raise RuntimeProtocolError(reply.reason)
        reports = [service.serve_forever(tick)]
        while reports[-1].aborted:
            byes.update(reports[-1].worker_stats)
            crashes.pop(0).down(listener)
            service = start_service(resume=True)
            reports.append(service.serve_forever(tick))
        byes.update(reports[-1].worker_stats)
        crashed = [
            worker_id
            for worker_id, proc in processes.items()
            if worker_id not in byes and not proc.is_alive()
        ]
    finally:
        for worker_id, proc in processes.items():
            if worker_id not in byes:
                proc.terminate()  # it never heard a Terminate: nobody waits
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        tcp.close()
        if temp_ckpt is not None:
            temp_ckpt.cleanup()

    doc = reports[-1].jobs[reply.job]
    return ParallelResult(
        cost=math.inf if doc["cost"] is None else doc["cost"],
        solution=doc["solution"],
        optimal=doc["status"] == DONE,
        wall_seconds=time.monotonic() - started,
        workers=config.workers,
        work_allocations=doc["work_allocations"],
        checkpoint_operations=doc["updates"],
        nodes_explored=doc["nodes"],
        redundant_rate=doc["redundant_rate"],
        worker_stats=byes,
        crashed_workers=crashed,
        notices_sent=sum(r.notices_sent for r in reports),
        early_yields=int(sum(s.get("early_yields", 0) for s in byes.values())),
        coordinator_restarts=len(reports) - 1,
        leases_expired=[w for r in reports for w in r.leases_expired],
        duplicates_ignored=sum(r.duplicates_ignored for r in reports),
        faults_injected=fault_stats.as_dict(),
        explore_seconds=sum(s.get("explore_seconds", 0.0) for s in byes.values()),
        rpc_wait_seconds=sum(s.get("rpc_wait_seconds", 0.0) for s in byes.values()),
    )
