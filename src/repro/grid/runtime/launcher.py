"""Launcher: spawn worker processes, pump the coordinator, collect results.

``solve_parallel`` is the user-facing call: it builds the coordinator
in the parent process, forks ``workers`` B&B processes, routes queue
messages until the termination condition (INTERVALS empty) is reached
and every live worker said goodbye, and returns the proved optimum
with aggregate statistics.  The pump wakes on traffic (or every
``poll_interval`` seconds) and batch-drains the whole request queue
per wake, so pipelining workers never serialize behind the poll.  After
each message it sends the advisory notices the coordinator owes
(:meth:`Coordinator.take_notices`): a holder hears that its interval
was cut, or that another worker lowered the bound, within one of its
mid-slice polls, while the coordinator's ``SOLUTION`` stays the source
of truth for the answer.

Worker death is detected two ways: process sentinels (a worker that
exits without a Bye gets its interval released) and, when
``lease_seconds`` is set, lease expiry — a worker silent for too long
is presumed dead and its interval goes back to the load balancer even
if the OS still shows the process alive (a hang, not a crash).

A :class:`~repro.grid.runtime.faults.FaultPlan` turns the run into a
chaos experiment: the coordinator itself can be crashed mid-run (state
dropped, messages lost during the downtime, then recovered from the
two checkpoint files), and the channel can drop, duplicate, or reorder
individual messages.  The §4.1 invariant — the union of coordinator
interval copies always covers all unexplored work — makes every such
run terminate with the same proved optimum, at worst re-exploring.

All traffic runs over a pluggable transport
(:mod:`repro.grid.net`): ``transport="inprocess"`` is the original
multiprocessing-queue wiring, ``transport="tcp"`` puts a real loopback
TCP coordinator server between the same forked workers — byte-exact
framing, reconnects and all — without changing a line of the pump or
the worker loop.  Channel faults wrap the listener generically, and
``socket_faults`` adds TCP-only chaos (client-side RSTs mid-run).
"""

from __future__ import annotations

import multiprocessing as mp
import random
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.core.checkpoint import CheckpointStore
from repro.core.interval import Interval
from repro.core.problem import seed_incumbent
from repro.core.stats import Incumbent
from repro.exceptions import RuntimeProtocolError
from repro.grid.net.transport import Transport, TransportTimeout
from repro.grid.runtime.bbprocess import worker_main
from repro.grid.runtime.coordinator import Coordinator
from repro.grid.runtime.faults import FaultPlan, FaultStats, FaultyListener
from repro.grid.runtime.protocol import Bye, ProblemSpec

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
    bound) without blocking.  ``poll_interval`` is the
    coordinator pump's queue wait — each wake batch-drains everything
    queued, so it bounds idle latency, not throughput.

    ``root_interval`` restricts the run to one ``(begin, end)`` slice
    of the tree's leaf numbering (the paper's work unit) instead of the
    full range — the parallel counterpart of ``solve(..., interval=…)``;
    the proved optimum is then the optimum over that slice.

    ``kernel_backend`` selects every worker explorer's pool-evaluation
    bound kernels (see :mod:`repro.core.kernels`): ``None``
    auto-selects a registered pool kernel, ``"off"`` disables pooling
    (per-family batched bounds only), a name (``"numpy"``/``"numba"``)
    forces that backend.

    ``transport`` selects the wire between coordinator and workers:
    ``"inprocess"`` (fork-inherited multiprocessing queues) or
    ``"tcp"`` (a loopback TCP server; the same forked workers connect
    as network clients, with framing, heartbeats and reconnects).
    ``socket_faults`` is a :class:`~repro.grid.net.tcp.SocketFaults`
    applied to every worker's client connection (TCP only).
    """

    workers: int = 2
    update_nodes: int = 2000  # first slice size between interval updates
    update_period: Optional[float] = 0.25  # target seconds per slice
    min_slice_nodes: int = 64
    max_slice_nodes: int = 1 << 20
    bound_poll_nodes: int = 256  # nodes between mid-slice notice polls
    kernel_backend: Optional[str] = None  # pool kernels: auto/off/name
    poll_interval: float = 0.05  # coordinator pump queue wait
    duplication_threshold: int = 64
    checkpoint_dir: Optional[Path] = None
    checkpoint_period: float = 2.0
    journal: bool = True  # reconciliation journal between snapshots
    initial_upper_bound: float = float("inf")
    initial_solution: Any = None
    deadline: float = 300.0  # wall-clock safety net (seconds)
    reply_timeout: float = 60.0  # worker RPC wait before a retry
    max_retries: int = 2  # RPC retries (same seq, capped backoff)
    lease_seconds: Optional[float] = None  # silent-owner expiry (off by default)
    root_interval: Optional[Tuple[int, int]] = None  # leaf slice to solve
    transport: str = "inprocess"  # "inprocess" | "tcp"
    socket_faults: Optional[Any] = None  # SocketFaults, TCP only
    crash_workers: Dict[int, int] = field(default_factory=dict)
    # worker index -> crash after that many updates (fault injection)
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


def _build_transport(config: RuntimeConfig, ctx: Any) -> Transport:
    """Instantiate the configured transport backend."""
    if config.transport == "inprocess":
        if config.socket_faults is not None:
            raise RuntimeProtocolError(
                "socket_faults needs transport='tcp'"
            )
        from repro.grid.net.inprocess import InProcessTransport

        return InProcessTransport(ctx)
    if config.transport == "tcp":
        # Imported here, not at module top: repro.grid.net.tcp needs
        # the framing module, which imports this package back — the
        # lazy import keeps `import repro.grid.net` from re-entering a
        # half-initialized module either way around.
        from repro.grid.net.tcp import TcpTransport

        return TcpTransport(faults=config.socket_faults)
    raise RuntimeProtocolError(
        f"unknown transport {config.transport!r} "
        f"(expected 'inprocess' or 'tcp')"
    )


def solve_parallel(spec: ProblemSpec, config: Optional[RuntimeConfig] = None) -> ParallelResult:
    """Exactly solve ``spec`` with a farmer and N worker processes."""
    config = config or RuntimeConfig()
    if config.workers < 1:
        raise RuntimeProtocolError("need at least one worker")
    plan = config.fault_plan or FaultPlan()
    crash_workers = dict(config.crash_workers)
    for idx, after in plan.worker_crashes.items():
        crash_workers.setdefault(idx, after)

    problem = spec.build()
    total_leaves = problem.total_leaves()
    root = Interval(0, total_leaves)
    if config.root_interval is not None:
        root = Interval.from_tuple(config.root_interval).intersect(root)
        if root.is_empty():
            raise RuntimeProtocolError(
                f"root_interval {config.root_interval} does not overlap "
                f"[0, {total_leaves})"
            )
        total_leaves = root.length
    checkpoint_dir = config.checkpoint_dir
    temp_ckpt: Optional[tempfile.TemporaryDirectory] = None
    if checkpoint_dir is None and plan.coordinator_crashes:
        # A coordinator crash is only recoverable through the two
        # checkpoint files; give the run a store if the caller didn't.
        temp_ckpt = tempfile.TemporaryDirectory(prefix="repro-ckpt-")
        checkpoint_dir = Path(temp_ckpt.name)
    store = (
        CheckpointStore(Path(checkpoint_dir))
        if checkpoint_dir is not None
        else None
    )
    initial_best = seed_incumbent(
        problem,
        Incumbent(config.initial_upper_bound, config.initial_solution),
        root,
    )
    coordinator = Coordinator(
        root,
        duplication_threshold=config.duplication_threshold,
        store=store,
        checkpoint_period=config.checkpoint_period,
        initial_best=initial_best,
        lease_seconds=config.lease_seconds,
        journal=config.journal,
    )

    ctx = mp.get_context("fork") if hasattr(mp, "get_context") else mp
    transport = _build_transport(config, ctx)
    listener: Any = transport.listen()
    fault_stats = FaultStats()
    fault_rng = random.Random(plan.seed)
    if plan.channel is not None:
        listener = FaultyListener(
            listener, plan.channel, fault_rng, fault_stats
        )
    processes: Dict[str, Any] = {}
    for i in range(config.workers):
        worker_id = f"worker-{i}"
        connector = transport.connector_for(worker_id)
        hang = plan.worker_hangs.get(i)
        proc = ctx.Process(
            target=worker_main,
            args=(worker_id, spec, connector),
            kwargs={
                "update_nodes": config.update_nodes,
                "reply_timeout": config.reply_timeout,
                "max_retries": config.max_retries,
                "crash_after_updates": crash_workers.get(i),
                "hang_after_updates": hang.after_updates if hang else None,
                "hang_seconds": hang.seconds if hang else 0.0,
                "update_period": config.update_period,
                "min_slice_nodes": config.min_slice_nodes,
                "max_slice_nodes": config.max_slice_nodes,
                "bound_poll_nodes": config.bound_poll_nodes,
                "kernel_backend": config.kernel_backend,
            },
            daemon=True,
        )
        processes[worker_id] = proc
        proc.start()

    crash_schedule = sorted(
        plan.coordinator_crashes, key=lambda c: c.after_messages
    )
    next_crash = crash_schedule.pop(0) if crash_schedule else None
    coordinator_restarts = 0
    leases_expired: List[str] = []
    duplicates_ignored = 0
    notices_sent = 0
    messages_handled = 0
    down_until: Optional[float] = None

    started = time.monotonic()
    done_workers: set = set()
    crashed: List[str] = []
    # Bye stats survive coordinator restarts here (recover() starts
    # with an empty byes dict), like done_workers does.
    byes: Dict[str, Dict[str, float]] = {}
    try:
        while len(done_workers) < len(processes):
            now = time.monotonic()
            if now - started > config.deadline:
                raise RuntimeProtocolError(
                    f"parallel solve exceeded the {config.deadline}s deadline"
                )

            if down_until is not None:
                # The farmer is down: whatever workers send is lost
                # (they will retry).  When the downtime elapses, the
                # coordinator restarts from the checkpoint files.
                if now < down_until:
                    try:
                        listener.recv(timeout=min(0.05, down_until - now))
                    except TransportTimeout:
                        pass
                    continue
                duplicates_ignored += coordinator.duplicates_ignored
                notices_sent += coordinator.notices_sent
                leases_expired.extend(coordinator.leases_expired)
                byes.update(coordinator.byes)
                coordinator = Coordinator.recover(
                    store,
                    root,
                    duplication_threshold=config.duplication_threshold,
                    checkpoint_period=config.checkpoint_period,
                    lease_seconds=config.lease_seconds,
                    journal=config.journal,
                )
                # A crash before the first snapshot lost the initial
                # incumbent, which no worker will ever push back.
                coordinator.solution.update(initial_best.cost, initial_best.solution)
                coordinator_restarts += 1
                down_until = None

            coordinator.maybe_checkpoint()
            try:
                message = listener.recv(timeout=config.poll_interval)
            except TransportTimeout:
                coordinator.check_leases()
                listener.flush()
                # Only with a drained inbox do we look for crashes —
                # a worker that exits right after its Bye must not be
                # misread as dead before the Bye is processed.
                for worker_id, proc in processes.items():
                    if worker_id not in done_workers and not proc.is_alive():
                        done_workers.add(worker_id)
                        crashed.append(worker_id)
                        coordinator.release_worker(worker_id)
                continue
            # Batch-drain: one wake handles *everything* already queued
            # instead of one message per poll, so N pipelining workers
            # never serialize behind the poll interval.
            batch = [message]
            while True:
                try:
                    batch.append(listener.recv(timeout=0))
                except TransportTimeout:
                    break
            for message in batch:
                reply = coordinator.handle(message)
                messages_handled += 1
                if isinstance(message, Bye):
                    done_workers.add(message.worker)
                    if message.worker in crashed:
                        crashed.remove(message.worker)  # late Bye won the race
                if reply is not None:
                    listener.send(message.worker, reply)
                for worker, notice in coordinator.take_notices():
                    listener.send(worker, notice)
                if (
                    next_crash is not None
                    and messages_handled >= next_crash.after_messages
                ):
                    # Crash the farmer: in-memory INTERVALS, SOLUTION,
                    # and the sequence cache are gone; only the
                    # checkpoint files survive the downtime — and the
                    # rest of this batch is lost with the process.
                    coordinator.maybe_checkpoint()  # periodic, not a flush
                    down_until = time.monotonic() + next_crash.downtime
                    next_crash = (
                        crash_schedule.pop(0) if crash_schedule else None
                    )
                    break
            coordinator.check_leases()
    finally:
        coordinator.maybe_checkpoint(force=True)
        listener.flush()
        for proc in processes.values():
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        transport.close()
        if temp_ckpt is not None:
            temp_ckpt.cleanup()

    duplicates_ignored += coordinator.duplicates_ignored
    notices_sent += coordinator.notices_sent
    leases_expired.extend(coordinator.leases_expired)
    byes.update(coordinator.byes)
    optimal = coordinator.intervals.is_empty()
    explore_seconds = sum(
        s.get("explore_seconds", 0.0) for s in byes.values()
    )
    rpc_wait_seconds = sum(
        s.get("rpc_wait_seconds", 0.0) for s in byes.values()
    )
    return ParallelResult(
        cost=coordinator.solution.cost,
        solution=coordinator.solution.solution,
        optimal=optimal,
        wall_seconds=time.monotonic() - started,
        workers=config.workers,
        work_allocations=coordinator.work_allocations,
        checkpoint_operations=coordinator.worker_checkpoint_ops,
        nodes_explored=coordinator.nodes_explored,
        redundant_rate=coordinator.redundant_rate(total_leaves),
        worker_stats=dict(byes),
        crashed_workers=crashed,
        notices_sent=notices_sent,
        early_yields=int(sum(s.get("early_yields", 0) for s in byes.values())),
        coordinator_restarts=coordinator_restarts,
        leases_expired=leases_expired,
        duplicates_ignored=duplicates_ignored,
        faults_injected=fault_stats.as_dict(),
        explore_seconds=explore_seconds,
        rpc_wait_seconds=rpc_wait_seconds,
    )
