"""The original multiprocessing-queue channel as a transport backend.

One shared request queue (all workers -> coordinator) plus one reply
queue per worker (coordinator -> that worker) — exactly the wiring the
runtime used before the transport abstraction, now expressed behind
the :class:`~repro.grid.net.transport.Listener` /
:class:`~repro.grid.net.transport.Connection` interface so
``launcher.py`` and ``bbprocess.py`` are written once for every
backend.

Messages cross as pickled objects; no framing is involved.  Per-worker
reply queues are created in the coordinator process (``connector_for``
must run before the fork) and inherited by the worker, which makes the
connector trivially picklable.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
from typing import Any, Dict, List, Optional

from repro.grid.net.transport import (
    Connection,
    Connector,
    Listener,
    Transport,
    TransportError,
    TransportTimeout,
)

__all__ = [
    "InProcessConnection",
    "InProcessConnector",
    "InProcessListener",
    "InProcessTransport",
]


class InProcessConnection(Connection):
    """Worker side of the queue pair."""

    def __init__(self, request_queue: Any, reply_queue: Any):
        self._request_queue = request_queue
        self._reply_queue = reply_queue

    def send(self, message: Any) -> None:
        self._request_queue.put(message)

    def recv(self, timeout: Optional[float] = None) -> Any:
        try:
            return self._reply_queue.get(timeout=timeout)
        except queue_mod.Empty:
            raise TransportTimeout(
                f"no reply within {timeout}s"
            ) from None

    def poll(self) -> Any:
        try:
            return self._reply_queue.get_nowait()
        except queue_mod.Empty:
            return None

    def close(self) -> None:
        pass  # queues are owned by the transport


class InProcessConnector(Connector):
    """Fork-inheritable recipe: both queues already exist."""

    def __init__(self, request_queue: Any, reply_queue: Any):
        self._request_queue = request_queue
        self._reply_queue = reply_queue

    def connect(self, worker_id: str) -> InProcessConnection:
        return InProcessConnection(self._request_queue, self._reply_queue)


class InProcessListener(Listener):
    """Coordinator side: drain the shared queue, route by worker id."""

    def __init__(self, request_queue: Any):
        self._request_queue = request_queue
        self._reply_queues: Dict[str, Any] = {}

    def register(self, worker_id: str, reply_queue: Any) -> None:
        self._reply_queues[worker_id] = reply_queue

    def connected_workers(self) -> List[str]:
        return sorted(self._reply_queues)

    def recv(self, timeout: Optional[float] = None) -> Any:
        try:
            return self._request_queue.get(timeout=timeout)
        except queue_mod.Empty:
            raise TransportTimeout(
                f"no message within {timeout}s"
            ) from None

    def send(self, worker: str, reply: Any) -> None:
        try:
            self._reply_queues[worker].put(reply)
        except KeyError:
            raise TransportError(
                f"unknown worker {worker!r}: no reply queue registered"
            ) from None

    def close(self) -> None:
        pass


class InProcessTransport(Transport):
    """Queue-pair transport for workers forked from this process."""

    def __init__(self, ctx: Any = None):
        if ctx is None:
            ctx = mp.get_context("fork") if hasattr(mp, "get_context") else mp
        self._ctx = ctx
        self._listener: Optional[InProcessListener] = None

    def listen(self) -> InProcessListener:
        if self._listener is None:
            self._listener = InProcessListener(self._ctx.Queue())
        return self._listener

    def connector_for(self, worker_id: str) -> InProcessConnector:
        listener = self.listen()
        reply_queue = self._ctx.Queue()
        listener.register(worker_id, reply_queue)
        return InProcessConnector(listener._request_queue, reply_queue)

    def close(self) -> None:
        pass
