"""Standalone network coordinator and worker — ``repro grid serve/worker``.

:class:`GridServer` is the farmer as a network service: it owns the
:class:`~repro.grid.runtime.coordinator.Coordinator` and a
:class:`~repro.grid.net.tcp.TcpListener`, pumps messages until the
search space is exhausted, and hands the run's problem definition to
every connecting worker inside the :class:`Welcome` (via
:func:`~repro.grid.runtime.protocol.spec_to_wire`), so a worker needs
nothing but ``--connect HOST:PORT``.

:func:`run_worker` is the matching client: connect, take the problem
spec from the Welcome, and run the exact same
:func:`~repro.grid.runtime.bbprocess.worker_main` loop the forked
workers use — the two-terminal loopback walkthrough in the README is
literally ``solve_parallel`` with the fork replaced by a shell.

Compared to :func:`~repro.grid.runtime.launcher.solve_parallel`, the
server does not manage worker processes (no sentinels — lease expiry
is the only death detector, as on a real grid) and does not know how
many workers will ever show up: it serves until the interval set is
empty and the connected workers have said goodbye (or drained away),
then reports the proved optimum.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.core.checkpoint import CheckpointStore
from repro.core.interval import Interval
from repro.core.problem import seed_incumbent
from repro.core.stats import Incumbent
from repro.exceptions import RuntimeProtocolError
from repro.grid.net.tcp import TcpClientConnection, TcpListener
from repro.grid.net.transport import (
    Connection,
    Connector,
    TransportTimeout,
)
from repro.grid.runtime.bbprocess import worker_main
from repro.grid.runtime.coordinator import Coordinator
from repro.grid.runtime.protocol import (
    ProblemSpec,
    spec_from_wire,
    spec_to_wire,
)

__all__ = ["ServeConfig", "ServeResult", "GridServer", "run_worker"]


@dataclass
class ServeConfig:
    """Tuning of a standalone coordinator server."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = let the OS pick; see GridServer.address
    duplication_threshold: int = 64
    checkpoint_dir: Optional[Path] = None
    checkpoint_period: float = 2.0
    initial_upper_bound: float = float("inf")
    initial_solution: Any = None
    deadline: Optional[float] = None  # wall-clock cap; None serves forever
    poll_interval: float = 0.05
    lease_seconds: Optional[float] = 30.0  # sole death detector here
    peer_timeout: Optional[float] = 30.0  # half-open connection reaper
    root_interval: Optional[Tuple[int, int]] = None
    linger_seconds: float = 10.0  # grace for Byes after the space empties
    resume: bool = False  # restore INTERVALS+SOLUTION from checkpoint_dir
    journal: bool = True  # append reconciliations between snapshots


@dataclass
class ServeResult:
    """Outcome of one served run."""

    cost: float
    solution: Any
    optimal: bool
    wall_seconds: float
    nodes_explored: int
    work_allocations: int
    checkpoint_operations: int
    redundant_rate: float
    worker_stats: Dict[str, Dict[str, float]]
    notices_sent: int = 0
    early_yields: int = 0  # summed over the workers that said goodbye
    leases_expired: List[str] = field(default_factory=list)
    duplicates_ignored: int = 0
    epoch: int = 0
    journal_replayed: int = 0
    aborted: bool = False


class GridServer:
    """A coordinator listening on TCP, serving one exact resolution."""

    def __init__(self, spec: ProblemSpec, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        self.spec = spec
        problem = spec.build()
        self._total_leaves = problem.total_leaves()
        root = Interval(0, self._total_leaves)
        if self.config.root_interval is not None:
            root = Interval.from_tuple(self.config.root_interval).intersect(root)
            if root.is_empty():
                raise RuntimeProtocolError(
                    f"root_interval {self.config.root_interval} does not "
                    f"overlap [0, {self._total_leaves})"
                )
            self._total_leaves = root.length
        store = (
            CheckpointStore(Path(self.config.checkpoint_dir))
            if self.config.checkpoint_dir is not None
            else None
        )
        if self.config.resume and store is None:
            raise RuntimeProtocolError(
                "--resume requires a checkpoint directory"
            )
        # Every incarnation over one checkpoint directory gets a fresh
        # epoch: the Welcome carries it, so workers that survive us can
        # tell our successor they hold pre-crash state.
        self.epoch = store.bump_epoch() if store is not None else 0
        if self.config.resume:
            assert store is not None
            self.coordinator = Coordinator.recover(
                store,
                root,
                duplication_threshold=self.config.duplication_threshold,
                checkpoint_period=self.config.checkpoint_period,
                lease_seconds=self.config.lease_seconds,
                journal=self.config.journal,
            )
            # A warm start passed by the caller may still beat what the
            # snapshot knew; the incumbent is monotonic.
            self.coordinator.solution.update(
                self.config.initial_upper_bound, self.config.initial_solution
            )
        else:
            self.coordinator = Coordinator(
                root,
                duplication_threshold=self.config.duplication_threshold,
                store=store,
                checkpoint_period=self.config.checkpoint_period,
                initial_best=Incumbent(
                    self.config.initial_upper_bound,
                    self.config.initial_solution,
                ),
                lease_seconds=self.config.lease_seconds,
                journal=self.config.journal,
            )
        seed_incumbent(problem, self.coordinator.solution, root)
        self.listener = TcpListener(
            self.config.host,
            self.config.port,
            spec_wire=spec_to_wire(spec),
            peer_timeout=self.config.peer_timeout,
            epoch=self.epoch,
        )
        self._shutdown = False
        self._abort = False

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — useful with ``port=0``."""
        return self.listener.address

    def shutdown(self) -> None:
        """Ask ``serve_forever`` to return after its current iteration."""
        self._shutdown = True

    def abort(self) -> None:
        """Stop *without* the final forced checkpoint.

        The in-process stand-in for ``kill -9``: whatever the periodic
        checkpoint and journal last persisted is all a successor gets.
        Tests use it to exercise the recovery path deterministically
        without spawning a subprocess.
        """
        self._abort = True
        self._shutdown = True

    def serve_forever(self) -> ServeResult:
        """Pump until the search space is exhausted; return the optimum.

        "Forever" in the socketserver sense: no fixed worker count.
        Workers come and go; the run ends when INTERVALS is empty and
        every still-connected worker has said Bye (or
        ``linger_seconds`` passed — a worker that vanished between its
        last Update and its Bye must not hold the result hostage).
        """
        config = self.config
        coordinator = self.coordinator
        listener = self.listener
        started = time.monotonic()
        empty_since: Optional[float] = None
        try:
            while not self._shutdown:
                now = time.monotonic()
                if (
                    config.deadline is not None
                    and now - started > config.deadline
                ):
                    raise RuntimeProtocolError(
                        f"serve exceeded the {config.deadline}s deadline"
                    )
                if coordinator.intervals.is_empty():
                    if empty_since is None:
                        empty_since = now
                    remaining = set(listener.connected_workers())
                    if remaining <= set(coordinator.byes):
                        break
                    if now - empty_since > config.linger_seconds:
                        break
                else:
                    empty_since = None
                coordinator.maybe_checkpoint()
                try:
                    message = listener.recv(timeout=config.poll_interval)
                except TransportTimeout:
                    coordinator.check_leases()
                    continue
                reply = coordinator.handle(message)
                if reply is not None:
                    listener.send(message.worker, reply)
                for worker, notice in coordinator.take_notices():
                    listener.send(worker, notice)
                coordinator.check_leases()
        finally:
            if not self._abort:
                coordinator.maybe_checkpoint(force=True)
            listener.close()
        return ServeResult(
            cost=coordinator.solution.cost,
            solution=coordinator.solution.solution,
            optimal=coordinator.intervals.is_empty() and not self._abort,
            wall_seconds=time.monotonic() - started,
            nodes_explored=coordinator.nodes_explored,
            work_allocations=coordinator.work_allocations,
            checkpoint_operations=coordinator.worker_checkpoint_ops,
            redundant_rate=coordinator.redundant_rate(self._total_leaves),
            worker_stats=dict(coordinator.byes),
            notices_sent=coordinator.notices_sent,
            early_yields=int(
                sum(s.get("early_yields", 0) for s in coordinator.byes.values())
            ),
            leases_expired=list(coordinator.leases_expired),
            duplicates_ignored=coordinator.duplicates_ignored,
            epoch=self.epoch,
            journal_replayed=coordinator.journal_replayed,
            aborted=self._abort,
        )


class _PreopenedConnector(Connector):
    """Hand ``worker_main`` a connection that already exists."""

    def __init__(self, connection: Connection):
        self._connection = connection

    def connect(self, worker_id: str) -> Connection:
        return self._connection


def run_worker(
    host: str,
    port: int,
    worker_id: str,
    *,
    power: float = 1.0,
    update_nodes: int = 2000,
    update_period: Optional[float] = 0.25,
    min_slice_nodes: int = 64,
    max_slice_nodes: int = 1 << 20,
    reply_timeout: float = 60.0,
    max_retries: int = 2,
    connect_timeout: float = 10.0,
    heartbeat_interval: Optional[float] = 2.0,
    spec: Optional[ProblemSpec] = None,
    peer_timeout: Optional[float] = None,
    max_reconnect_attempts: Optional[int] = None,
    reconnect_base: float = 0.05,
    backoff_cap: float = 2.0,
    kernel_backend: Optional[str] = None,
) -> str:
    """Connect to a :class:`GridServer` and work until terminated.

    The problem definition comes from the server's Welcome unless an
    explicit ``spec`` overrides it.  Runs the same loop as the forked
    workers — adaptive slicing, pipelined updates, coordinator notices,
    at-least-once RPC — just over a socket the caller could point at
    another machine.

    Returns the loop's outcome: ``"terminate"`` when the coordinator
    proved the space empty, ``"gave-up"`` when the RPC layer exhausted
    its retries against an unreachable coordinator.  Supervisors map
    the difference to exit codes (a gave-up worker is respawned).
    """
    connection = TcpClientConnection(
        host,
        port,
        worker_id,
        power=power,
        connect_timeout=connect_timeout,
        heartbeat_interval=heartbeat_interval,
        peer_timeout=peer_timeout,
        max_reconnect_attempts=max_reconnect_attempts,
        reconnect_base=reconnect_base,
        reconnect_cap=backoff_cap,
    )
    try:
        connection.open(timeout=connect_timeout)
        if spec is None:
            welcome = connection.welcome
            if welcome is not None and welcome.spec is not None:
                spec = spec_from_wire(welcome.spec)
            # A spec-less Welcome is the multi-tenant service: every
            # grant carries its job's spec, so the worker starts
            # with none and learns problems per grant.
    except Exception:
        connection.close()
        raise
    # worker_main closes the connection it gets from the connector.
    return worker_main(
        worker_id,
        spec,
        _PreopenedConnector(connection),
        update_nodes=update_nodes,
        power=power,
        reply_timeout=reply_timeout,
        max_retries=max_retries,
        update_period=update_period,
        min_slice_nodes=min_slice_nodes,
        max_slice_nodes=max_slice_nodes,
        kernel_backend=kernel_backend,
    )
