"""Clients of the solve service: an async library plus a sync facade.

:class:`ServiceClient` speaks the same framed transport as the workers
(:mod:`repro.grid.net.framing`) over ``asyncio`` streams: one Hello /
Welcome handshake, then sequenced client RPCs (SubmitJob,
JobStatusRequest, CancelJob, ListJobs) whose replies are matched by
``seq``.  The service deduplicates client seqs exactly like worker
seqs, so a retried submit cannot enqueue a job twice; an RPC whose
connection the service dropped is redialled and retried once.

:class:`SyncServiceClient` runs each call in its own ``asyncio.run`` and
connection, redialled by the one :class:`ServiceClient` it keeps: one
sender id and seq counter, so one retry-cache entry in the service.
"""

from __future__ import annotations

import asyncio
import uuid
from typing import Any, Dict, List, Optional

from repro.grid.net.framing import (
    WIRE_VERSION,
    FrameBuffer,
    FrameError,
    Hello,
    Welcome,
    decode_message,
    encode_frame,
    read_welcome,
)
from repro.grid.net.transport import (
    TransportError,
    TransportTimeout,
    WireVersionError,
)
from repro.grid.runtime.protocol import (
    CancelJob,
    JobAccepted,
    JobList,
    JobRefused,
    JobStatus,
    JobStatusRequest,
    ListJobs,
    SubmitJob,
)
from repro.grid.service.store import TERMINAL

__all__ = ["JobRefusedError", "ServiceClient", "SyncServiceClient"]

_READ_CHUNK = 65536


class JobRefusedError(TransportError):
    """Admission control bounced the submit."""


class _Closed(TransportError):
    """The service closed the connection (it reaps a silent peer)."""


class ServiceClient:
    """Async client for one :class:`~...server.SolveService`.

    Use as an async context manager, or call :meth:`connect` /
    :meth:`close` explicitly.  Not task-safe: one in-flight RPC at a
    time (the service's per-client dedup assumes exactly that).
    """

    def __init__(
        self,
        host: str,
        port: int,
        client_id: Optional[str] = None,
        timeout: float = 30.0,
    ):
        self.host = host
        self.port = port
        self.client_id = client_id or f"client-{uuid.uuid4().hex[:8]}"
        self.timeout = timeout
        self.welcome: Optional[Welcome] = None
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._buffer = FrameBuffer()
        self._inbound: List[bytes] = []  # frame payloads not yet read
        self._seq = 0

    async def __aenter__(self) -> "ServiceClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    # ------------------------------------------------------------------
    async def connect(self) -> None:
        """Open the stream and complete the Hello/Welcome handshake.

        The service's first frame must be a Welcome of this build's
        wire version; anything else raises :class:`WireVersionError`,
        which no redial fixes.  A service closes a Hello of another
        version unanswered, so a close before the Welcome says so.
        """
        self.welcome = None
        self._buffer = FrameBuffer()
        self._inbound.clear()
        self._reader, self._writer = await asyncio.wait_for(
            asyncio.open_connection(self.host, self.port), self.timeout
        )
        await self._send(Hello(self.client_id))
        try:
            self.welcome = await self._read_welcome()
        except (TransportError, OSError):
            await self.close()
            raise

    async def _read_welcome(self) -> Welcome:
        deadline = asyncio.get_running_loop().time() + self.timeout
        try:
            payload = await self._next_payload(deadline)
        except _Closed:
            raise _Closed(
                "service closed the connection during the handshake; "
                f"it may speak another wire version than v{WIRE_VERSION}"
            ) from None
        except FrameError as exc:
            raise WireVersionError(f"undecodable handshake reply: {exc}") from exc
        return read_welcome(payload)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except OSError:
                pass
            self._writer = None
            self._reader = None

    # ------------------------------------------------------------------
    async def _send(self, message: Any) -> None:
        if self._writer is None:
            raise TransportError("client is not connected")
        self._writer.write(encode_frame(message))
        await self._writer.drain()

    async def _next_payload(self, deadline: float) -> bytes:
        if self._reader is None:
            raise TransportError("client is not connected")
        while not self._inbound:
            remaining = deadline - asyncio.get_running_loop().time()
            if remaining <= 0:
                raise TransportTimeout("no reply within the client timeout")
            try:
                data = await asyncio.wait_for(
                    self._reader.read(_READ_CHUNK), remaining
                )
            except asyncio.TimeoutError:
                raise TransportTimeout(
                    "no reply within the client timeout"
                ) from None
            if not data:
                raise _Closed("service closed the connection")
            self._inbound.extend(self._buffer.feed(data))
        return self._inbound.pop(0)

    async def _recv(self, deadline: float) -> Any:
        return decode_message(await self._next_payload(deadline))

    async def _rpc(self, message: Any) -> Any:
        """One sequenced round trip; replies matched by seq.

        The client sends no heartbeats, so the service reaps one idle
        past its ``peer_timeout``.  A lost connection is redialled once
        and ``message`` re-sent with the same seq: the service's reply
        cache answers an RPC it already handled instead of handling it
        twice.
        """
        self._seq += 1
        message.seq = self._seq
        try:
            return await self._round_trip(message)
        except (_Closed, ConnectionError):
            await self.close()
            await self.connect()
            return await self._round_trip(message)

    async def _round_trip(self, message: Any) -> Any:
        await self._send(message)
        deadline = asyncio.get_running_loop().time() + self.timeout
        while True:
            reply = await self._recv(deadline)
            if getattr(reply, "seq", 0) == message.seq:
                return reply
            # Stale reply from an abandoned RPC: drop and keep waiting.

    # ------------------------------------------------------------------
    # the API
    # ------------------------------------------------------------------
    async def submit(
        self,
        spec: Dict[str, Any],
        priority: int = 1,
        owner: str = "anonymous",
    ) -> str:
        """Enqueue one job; returns its opaque id.

        Raises :class:`JobRefusedError` when admission control says no.
        """
        reply = await self._rpc(
            SubmitJob(self.client_id, spec, priority=priority, owner=owner)
        )
        if isinstance(reply, JobRefused):
            raise JobRefusedError(reply.reason)
        if not isinstance(reply, JobAccepted):
            raise TransportError(f"unexpected submit reply {reply!r}")
        return reply.job

    async def status(self, job: str, wait: float = 0.0) -> JobStatus:
        """One snapshot; ``wait`` > 0 lets the service hold the reply
        (at most ``wait`` s or its keep-alive) while the job is unsettled."""
        reply = await self._rpc(
            JobStatusRequest(self.client_id, job, wait=wait)
        )
        if not isinstance(reply, JobStatus):
            raise TransportError(f"unexpected status reply {reply!r}")
        return reply

    async def result(
        self,
        job: str,
        poll_interval: float = 0.2,
        timeout: Optional[float] = None,
    ) -> JobStatus:
        """Wait until the job settles; returns its terminal status.

        The service does the waiting: it holds each status request
        until the job settles or its keep-alive expires, one round trip
        per keep-alive.  ``poll_interval`` is the least time between
        requests; it only matters if the server answers at once.
        """
        clock = asyncio.get_running_loop().time
        deadline = None if timeout is None else clock() + timeout
        while True:
            asked = clock()
            wait = self.timeout / 2  # reply well inside our RPC timeout
            if deadline is not None:
                wait = min(wait, max(deadline - asked, 0.0))
            status = await self.status(job, wait=wait)
            if status.status in TERMINAL or status.status == "unknown":
                return status
            if deadline is not None and clock() >= deadline:
                raise TransportTimeout(
                    f"job {job} still {status.status} after {timeout}s"
                )
            await asyncio.sleep(max(asked + poll_interval - clock(), 0.0))

    async def cancel(self, job: str) -> JobStatus:
        reply = await self._rpc(CancelJob(self.client_id, job))
        if not isinstance(reply, JobStatus):
            raise TransportError(f"unexpected cancel reply {reply!r}")
        return reply

    async def list_jobs(self, owner: str = "") -> List[Dict[str, Any]]:
        reply = await self._rpc(ListJobs(self.client_id, owner=owner))
        if not isinstance(reply, JobList):
            raise TransportError(f"unexpected list reply {reply!r}")
        return list(reply.jobs)


class SyncServiceClient:
    """Blocking facade: one sender, one connection + event loop per call.

    Exactly what the ``repro job`` CLI needs; library code with an
    event loop of its own should use :class:`ServiceClient` directly.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self._client = ServiceClient(host, port, timeout=timeout)

    def _run(self, method: str, *args: Any, **kwargs: Any) -> Any:
        async def call() -> Any:
            async with self._client as client:
                return await getattr(client, method)(*args, **kwargs)

        return asyncio.run(call())

    def submit(
        self,
        spec: Dict[str, Any],
        priority: int = 1,
        owner: str = "anonymous",
    ) -> str:
        return self._run("submit", spec, priority=priority, owner=owner)

    def status(self, job: str) -> JobStatus:
        return self._run("status", job)

    def result(
        self,
        job: str,
        poll_interval: float = 0.2,
        timeout: Optional[float] = None,
    ) -> JobStatus:
        return self._run(
            "result", job, poll_interval=poll_interval, timeout=timeout
        )

    def cancel(self, job: str) -> JobStatus:
        return self._run("cancel", job)

    def list_jobs(self, owner: str = "") -> List[Dict[str, Any]]:
        return self._run("list_jobs", owner=owner)
