"""The standalone network worker — ``repro grid worker``.

:func:`run_worker` connects to a
:class:`~repro.grid.service.server.SolveService` (``repro grid serve``
or ``repro grid service``) and runs the exact same
:func:`~repro.grid.runtime.bbprocess.worker_main` loop the forked
workers use.  It needs nothing but ``--connect HOST:PORT``: every
``GrantWork`` carries its job's problem spec, so the worker learns its
problems per grant.
"""

from __future__ import annotations

from typing import Optional

from repro.grid.net.tcp import TcpClientConnection
from repro.grid.runtime.bbprocess import worker_main

__all__ = ["run_worker"]


def run_worker(
    host: str,
    port: int,
    worker_id: str,
    *,
    power: float = 1.0,
    update_nodes: int = 2000,
    update_period: Optional[float] = 0.25,
    reply_timeout: float = 60.0,
    max_retries: int = 2,
    heartbeat_interval: Optional[float] = 2.0,
    peer_timeout: Optional[float] = None,
    max_reconnect_attempts: Optional[int] = None,
    backoff_cap: float = 2.0,
) -> str:
    """Connect to a solve service and work until terminated.

    Runs the same loop as the forked workers — adaptive slicing,
    pipelined updates, coordinator notices, at-least-once RPC — just
    over a socket the caller could point at another machine.  The
    connection is opened eagerly, so an unreachable server fails here
    before the loop starts; ``worker_main`` then drives and closes it.

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
        heartbeat_interval=heartbeat_interval,
        peer_timeout=peer_timeout,
        max_reconnect_attempts=max_reconnect_attempts,
        reconnect_cap=backoff_cap,
    )
    try:
        connection.open(timeout=10.0)  # the connection's connect budget
    except Exception:
        connection.close()
        raise
    # worker_main closes the connection it drives.
    return worker_main(
        worker_id,
        connection,
        update_nodes=update_nodes,
        power=power,
        reply_timeout=reply_timeout,
        max_retries=max_retries,
        update_period=update_period,
    )
