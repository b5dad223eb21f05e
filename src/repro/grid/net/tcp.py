"""TCP transport: asyncio coordinator server, blocking worker client.

The coordinator side (:class:`TcpListener`) runs an asyncio server on
a background thread: one task per client connection reads frames
(:mod:`repro.grid.net.framing`), answers :class:`Hello` with
:class:`Welcome` (or, at another wire version, closes the connection
unregistered), swallows :class:`Heartbeat`, and funnels every
protocol message into a thread-safe inbox the coordinator pump drains
exactly like a queue.  Replies are routed to the connection that last
said Hello for that worker id.

The worker side (:class:`TcpClientConnection`) is deliberately a plain
blocking socket — the B&B process is single-threaded compute with
occasional RPCs, and a blocking client keeps ``worker_main`` identical
across backends.  It maintains the connection lazily:

* **connect / reconnect with capped, decorrelated-jittered backoff**
  (:func:`~repro.grid.net.backoff.decorrelated_jitter`), so a fleet of
  workers that lost the coordinator together does not thundering-herd
  it on recovery;
* **heartbeats** from a tiny daemon thread, so the server can tell a
  half-open peer (dead, but the OS never sent a FIN/RST) from a worker
  that is just exploring a long slice;
* **drop-equals-drop semantics**: a send that fails after one
  reconnect attempt is silently dropped, and a connection lost while a
  reply was in flight simply loses the reply — either way the worker's
  at-least-once RPC layer retries with the same seq and the
  coordinator's reply cache answers idempotently.  A broken connection
  is indistinguishable from a dropped message *by construction*.

:class:`SocketFaults` adds socket-level chaos: the client hard-resets
(RST via ``SO_LINGER 0``) its own connection every N sent frames,
which exercises kill-and-reconnect mid-slice without touching the
worker process.
"""

from __future__ import annotations

import asyncio
import queue as queue_mod
import random
import select
import socket
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.grid.net.backoff import decorrelated_jitter
from repro.grid.net.framing import (
    MAX_FRAME_BYTES,
    WIRE_VERSION,
    FrameBuffer,
    FrameError,
    Heartbeat,
    Hello,
    MessageDecodeError,
    Welcome,
    decode_message,
    encode_frame,
)
from repro.grid.net.transport import (
    Connection,
    Connector,
    Listener,
    Transport,
    TransportClosed,
    TransportError,
    TransportTimeout,
    WireVersionError,
)

__all__ = [
    "SocketFaults",
    "TcpClientConnection",
    "TcpConnector",
    "TcpListener",
    "TcpTransport",
]

_HEADER = struct.Struct("!I")
_RECV_CHUNK = 65536


def _read_welcome(payload: bytes) -> Welcome:
    """The server's first frame, which must be a Welcome of this version."""
    try:
        message = decode_message(payload)
    except MessageDecodeError as exc:
        raise WireVersionError(f"undecodable handshake reply: {exc}") from exc
    if not isinstance(message, Welcome) or message.version != WIRE_VERSION:
        raise WireVersionError(
            f"the server answered {message!r}; this worker speaks only "
            f"a v{WIRE_VERSION} Welcome"
        )
    return message


@dataclass(frozen=True)
class SocketFaults:
    """Client-side socket chaos, deterministic by construction.

    ``reset_after_sends=N`` aborts the connection (RST, not FIN) after
    every N protocol frames the worker sends — the reply to the Nth
    frame is lost with the connection, forcing the reconnect + same-seq
    retry path in the middle of live slices.
    """

    reset_after_sends: Optional[int] = None

    def __post_init__(self) -> None:
        if self.reset_after_sends is not None and self.reset_after_sends < 1:
            raise ValueError("reset_after_sends must be >= 1")


class TcpListener(Listener):
    """Coordinator-side asyncio server behind the blocking Listener API."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        peer_timeout: Optional[float] = 30.0,
        epoch: int = 0,
    ):
        self._host = host
        self._requested_port = port
        self._peer_timeout = peer_timeout
        self._epoch = epoch
        self._inbox: "queue_mod.Queue[Any]" = queue_mod.Queue()
        self._writers: Dict[str, asyncio.StreamWriter] = {}
        self._registered: Set[str] = set()  # see connected_workers()
        self._all_writers: set = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._address: Optional[Tuple[str, int]] = None
        self._startup_error: Optional[BaseException] = None
        self._closing = False
        self._started = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="tcp-listener", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=10.0)
        if self._startup_error is not None:
            raise TransportError(
                f"cannot listen on {host}:{port}: {self._startup_error}"
            )
        if self._address is None:
            raise TransportError(f"listener on {host}:{port} failed to start")

    # ---------------------------------------------------------- loop side
    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
        finally:
            self._started.set()  # belt and braces for startup failures
            loop.close()

    async def _main(self) -> None:
        self._stop = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._handle_client, self._host, self._requested_port
            )
        except OSError as exc:
            self._startup_error = exc
            self._started.set()
            return
        sockname = server.sockets[0].getsockname()
        self._address = (sockname[0], sockname[1])
        self._started.set()
        try:
            await self._stop.wait()
        finally:
            server.close()
            await server.wait_closed()
            for writer in list(self._all_writers):
                writer.close()

    async def _read_exactly(self, reader: asyncio.StreamReader, n: int) -> bytes:
        if self._peer_timeout is None:
            return await reader.readexactly(n)
        # Any traffic (heartbeats included) restarts the clock; a peer
        # silent past the timeout is treated as half-open and dropped.
        return await asyncio.wait_for(
            reader.readexactly(n), timeout=self._peer_timeout
        )

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._all_writers.add(writer)
        worker: Optional[str] = None
        try:
            while not self._closing:
                try:
                    header = await self._read_exactly(reader, _HEADER.size)
                    (length,) = _HEADER.unpack(header)
                    if length > MAX_FRAME_BYTES:
                        break  # garbage or attack: poison this conn only
                    payload = await self._read_exactly(reader, length)
                except (
                    asyncio.IncompleteReadError,
                    asyncio.TimeoutError,
                    asyncio.CancelledError,
                    ConnectionError,
                    OSError,
                ):
                    break
                try:
                    message = decode_message(payload)
                except FrameError:
                    break  # undecodable stream: drop the connection
                if isinstance(message, Hello):
                    if message.version != WIRE_VERSION:
                        break  # another wire version: never registered
                    worker = message.worker
                    stale = self._writers.get(worker)
                    self._writers[worker] = writer
                    if stale is not None and stale is not writer:
                        stale.close()  # a reconnect supersedes the old conn
                    try:
                        writer.write(encode_frame(Welcome(epoch=self._epoch)))
                        await writer.drain()
                    except (ConnectionError, OSError):
                        break
                elif isinstance(message, Heartbeat):
                    continue  # the read itself refreshed the peer clock
                else:
                    self._inbox.put(message)
        finally:
            self._all_writers.discard(writer)
            if worker is not None and self._writers.get(worker) is writer:
                del self._writers[worker]
            try:
                writer.close()
            except Exception:
                pass

    # ------------------------------------------------------- blocking side
    @property
    def address(self) -> Optional[Tuple[str, int]]:
        return self._address

    def register(self, worker_id: str) -> None:
        """Count ``worker_id`` as connected even while its socket is down:
        a worker its transport launched, which will dial in (again)."""
        self._registered.add(worker_id)

    def connected_workers(self) -> List[str]:
        """Workers with a live, identified connection, plus the registered."""
        return sorted(self._registered.union(self._writers))

    def recv(self, timeout: Optional[float] = None) -> Any:
        try:
            if timeout is None:
                return self._inbox.get()
            return self._inbox.get(timeout=timeout)
        except queue_mod.Empty:
            raise TransportTimeout(f"no message within {timeout}s") from None

    def send(self, worker: str, reply: Any) -> None:
        if self._closing:
            return
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        data = encode_frame(reply)

        def _write() -> None:
            w = self._writers.get(worker)
            if w is None or w.is_closing():
                return  # worker unreachable: the reply is dropped;
                # its same-seq retry will be answered from the cache
            try:
                w.write(data)
            except Exception:
                pass

        try:
            loop.call_soon_threadsafe(_write)
        except RuntimeError:
            pass  # loop shut down between the check and the call

    def close(self) -> None:
        if self._closing:
            return
        self._closing = True
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:
                pass
        self._thread.join(timeout=5.0)


class TcpClientConnection(Connection):
    """Blocking worker-side connection with reconnect and heartbeats."""

    def __init__(
        self,
        host: str,
        port: int,
        worker_id: str,
        *,
        power: float = 1.0,
        connect_timeout: float = 10.0,
        reconnect_base: float = 0.05,
        reconnect_cap: float = 2.0,
        heartbeat_interval: Optional[float] = 2.0,
        io_timeout: float = 0.25,
        rng: Optional[random.Random] = None,
        faults: Optional[SocketFaults] = None,
        peer_timeout: Optional[float] = None,
        max_reconnect_attempts: Optional[int] = None,
    ):
        self._host = host
        self._port = port
        self._worker = worker_id
        self._power = power
        self._connect_timeout = connect_timeout
        self._reconnect_base = reconnect_base
        self._reconnect_cap = reconnect_cap
        self._io_timeout = io_timeout
        self._rng = rng if rng is not None else random.Random(worker_id)
        self._faults = faults
        self._peer_timeout = peer_timeout
        self._max_reconnect_attempts = max_reconnect_attempts
        self._sock: Optional[socket.socket] = None
        self._buf = FrameBuffer()
        self._inbound: deque = deque()
        self._send_lock = threading.RLock()
        self._backoff = reconnect_base
        self._sent_frames = 0
        self._failed_attempts = 0
        self._exhausted = False
        self._last_rx = time.monotonic()
        self._last_epoch = 0
        self._epoch_changed = False
        self._closed = threading.Event()
        self.welcome: Optional[Welcome] = None
        #: total (re)connections that completed the Hello/Welcome handshake
        self.connects = 0
        self._heartbeat_thread: Optional[threading.Thread] = None
        if heartbeat_interval is not None and heartbeat_interval > 0:
            self._heartbeat_thread = threading.Thread(
                target=self._heartbeat_loop,
                args=(heartbeat_interval,),
                name=f"heartbeat-{worker_id}",
                daemon=True,
            )
            self._heartbeat_thread.start()

    # ------------------------------------------------------------- plumbing
    def _connect_once(self) -> bool:
        try:
            sock = socket.create_connection(
                (self._host, self._port), timeout=self._connect_timeout
            )
        except OSError:
            return False
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(self._io_timeout)
            buf = FrameBuffer()
            sock.sendall(
                encode_frame(
                    Hello(self._worker, self._power, epoch=self._last_epoch)
                )
            )
            deadline = time.monotonic() + self._connect_timeout
            welcome: Optional[Welcome] = None
            while welcome is None:
                if time.monotonic() >= deadline:
                    raise OSError("no Welcome before the handshake deadline")
                try:
                    data = sock.recv(_RECV_CHUNK)
                except socket.timeout:
                    continue
                if not data:
                    raise OSError("connection closed during the handshake")
                for payload in buf.feed(data):
                    if welcome is None:
                        welcome = _read_welcome(payload)
                        continue
                    message = decode_message(payload)
                    if not isinstance(message, Heartbeat):
                        self._inbound.append(message)
        except (OSError, FrameError, WireVersionError) as exc:
            try:
                sock.close()
            except OSError:
                pass
            if isinstance(exc, WireVersionError):
                raise  # no reconnect changes the server's version
            return False
        self._sock = sock
        self._buf = buf
        self._note_welcome(welcome)
        self.connects += 1
        self._backoff = self._reconnect_base
        self._failed_attempts = 0
        self._last_rx = time.monotonic()
        return True

    def _note_welcome(self, welcome: Welcome) -> None:
        self.welcome = welcome
        if (
            welcome.epoch != 0
            and self._last_epoch != 0
            and welcome.epoch != self._last_epoch
        ):
            # The coordinator we reconnected to is a new incarnation
            # recovered from a checkpoint: flag it so the worker can
            # re-reconcile its interval copy instead of trusting the
            # (possibly stale) snapshot state.
            self._epoch_changed = True
        self._last_epoch = welcome.epoch

    def _ensure_connected_locked(self, deadline: Optional[float]) -> bool:
        while not self._closed.is_set():
            if self._sock is not None:
                return True
            if self._exhausted:
                return False
            if self._connect_once():
                return True
            self._failed_attempts += 1
            if (
                self._max_reconnect_attempts is not None
                and self._failed_attempts >= self._max_reconnect_attempts
            ):
                self._exhausted = True
                return False
            delay = decorrelated_jitter(
                self._rng, self._reconnect_base, self._backoff,
                self._reconnect_cap,
            )
            self._backoff = delay
            if deadline is not None and time.monotonic() + delay >= deadline:
                return False
            time.sleep(delay)
        return False

    def _drop_locked(self, expected: Optional[socket.socket] = None) -> None:
        if expected is not None and self._sock is not expected:
            return  # someone already reconnected past this socket
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        self._sock = None
        self._buf = FrameBuffer()

    def _abort_locked(self) -> None:
        """Hard reset (RST) — the fault-injection shape of a dead network."""
        sock = self._sock
        if sock is None:
            return
        try:
            sock.setsockopt(
                socket.SOL_SOCKET,
                socket.SO_LINGER,
                struct.pack("ii", 1, 0),
            )
        except OSError:
            pass
        self._drop_locked()

    def _heartbeat_loop(self, interval: float) -> None:
        while not self._closed.wait(interval):
            with self._send_lock:
                sock = self._sock
                if sock is None:
                    continue  # never dials: reconnect is send/recv's job
                try:
                    sock.sendall(encode_frame(Heartbeat(self._worker)))
                except OSError:
                    self._drop_locked(expected=sock)

    # ------------------------------------------------------------ interface
    def open(self, timeout: Optional[float] = None) -> None:
        """Eagerly connect (and handshake); raises on failure.

        Optional — ``send``/``recv`` connect lazily — but standalone
        workers call it to fail fast on an unreachable server before
        starting the B&B loop.  A server that answers with anything
        but a Welcome of this wire version raises
        :class:`~repro.grid.net.transport.WireVersionError` at once,
        without reconnect attempts — here, and from the lazy reconnect
        of ``send`` / ``recv`` alike.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._send_lock:
            if not self._ensure_connected_locked(deadline):
                raise TransportError(
                    f"cannot reach coordinator at {self._host}:{self._port}"
                )

    def send(self, message: Any) -> None:
        if self._closed.is_set():
            return
        data = encode_frame(message)
        with self._send_lock:
            deadline = time.monotonic() + self._connect_timeout
            if not self._ensure_connected_locked(deadline):
                return  # unreachable: dropped, the RPC retry recovers
            try:
                self._sock.sendall(data)
            except OSError:
                self._drop_locked()
                if not self._ensure_connected_locked(deadline):
                    return
                try:
                    self._sock.sendall(data)
                except OSError:
                    self._drop_locked()
                    return
            self._sent_frames += 1
            faults = self._faults
            if (
                faults is not None
                and faults.reset_after_sends
                and self._sent_frames % faults.reset_after_sends == 0
            ):
                self._abort_locked()

    def recv(self, timeout: Optional[float] = None) -> Any:
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if self._inbound:
                return self._inbound.popleft()
            if self._closed.is_set():
                raise TransportClosed("connection closed")
            if deadline is not None and time.monotonic() >= deadline:
                raise TransportTimeout(f"no reply within {timeout}s")
            with self._send_lock:
                ok = self._ensure_connected_locked(deadline)
                sock, buf = self._sock, self._buf
            if not ok or sock is None:
                if self._exhausted:
                    raise TransportError(
                        f"coordinator at {self._host}:{self._port} "
                        f"unreachable after "
                        f"{self._max_reconnect_attempts} reconnect attempts"
                    )
                if deadline is None:
                    continue
                raise TransportTimeout(f"no reply within {timeout}s")
            try:
                data = sock.recv(_RECV_CHUNK)
            except socket.timeout:
                if (
                    self._peer_timeout is not None
                    and time.monotonic() - self._last_rx > self._peer_timeout
                ):
                    # Half-open link: the socket looks connected but the
                    # peer has been silent past the budget — reconnect.
                    with self._send_lock:
                        self._drop_locked(expected=sock)
                continue
            except OSError:
                data = b""
            self._ingest(sock, buf, data)

    def _ingest(self, sock: socket.socket, buf: FrameBuffer, data: bytes) -> None:
        """Queue the protocol messages in ``data`` (``b""``: the link died).

        Heartbeats are swallowed and a Welcome is noted here, for
        :meth:`recv` and :meth:`poll` alike; a frame this build cannot
        decode (a message type from a newer peer) is skipped.
        """
        payloads = None
        if data:
            try:
                payloads = buf.feed(data)
            except FrameError:
                pass  # an unrecoverable stream is a dead link too
        if payloads is None:
            with self._send_lock:
                self._drop_locked(expected=sock)
            return
        self._last_rx = time.monotonic()
        for payload in payloads:
            try:
                message = decode_message(payload)
            except FrameError:
                continue
            if isinstance(message, Heartbeat):
                continue
            if isinstance(message, Welcome):
                self._note_welcome(message)
                continue
            self._inbound.append(message)

    def poll(self) -> Any:
        if not self._inbound:
            sock, buf = self._sock, self._buf
            if sock is None:
                return None  # reconnecting is send/recv's job
            try:
                # The socket carries io_timeout, so recv() alone would
                # wait; look first.
                if not select.select([sock], [], [], 0)[0]:
                    return None
                data = sock.recv(_RECV_CHUNK)
            except (OSError, ValueError):
                data = b""
            self._ingest(sock, buf, data)
        return self._inbound.popleft() if self._inbound else None

    def take_epoch_change(self) -> bool:
        with self._send_lock:
            changed = self._epoch_changed
            self._epoch_changed = False
            return changed

    def close(self) -> None:
        if self._closed.is_set():
            return
        self._closed.set()
        if self._heartbeat_thread is not None:
            self._heartbeat_thread.join(timeout=2.0)
        with self._send_lock:
            self._drop_locked()


@dataclass(frozen=True)
class TcpConnector(Connector):
    """Picklable recipe for a worker's TCP connection."""

    host: str
    port: int
    power: float = 1.0
    connect_timeout: float = 10.0
    reconnect_base: float = 0.05
    reconnect_cap: float = 2.0
    heartbeat_interval: Optional[float] = 2.0
    faults: Optional[SocketFaults] = None
    peer_timeout: Optional[float] = None
    max_reconnect_attempts: Optional[int] = None

    def connect(self, worker_id: str) -> TcpClientConnection:
        return TcpClientConnection(
            self.host,
            self.port,
            worker_id,
            power=self.power,
            connect_timeout=self.connect_timeout,
            reconnect_base=self.reconnect_base,
            reconnect_cap=self.reconnect_cap,
            heartbeat_interval=self.heartbeat_interval,
            faults=self.faults,
            peer_timeout=self.peer_timeout,
            max_reconnect_attempts=self.max_reconnect_attempts,
        )


class TcpTransport(Transport):
    """Loopback-or-LAN TCP transport for one coordinator run."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        peer_timeout: Optional[float] = 30.0,
        connect_timeout: float = 10.0,
        heartbeat_interval: Optional[float] = 2.0,
        faults: Optional[SocketFaults] = None,
    ):
        self._host = host
        self._port = port
        self._peer_timeout = peer_timeout
        self._connect_timeout = connect_timeout
        self._heartbeat_interval = heartbeat_interval
        self._faults = faults
        self._listener: Optional[TcpListener] = None

    def listen(self) -> TcpListener:
        if self._listener is None:
            self._listener = TcpListener(
                self._host,
                self._port,
                peer_timeout=self._peer_timeout,
            )
        return self._listener

    def connector_for(self, worker_id: str) -> TcpConnector:
        listener = self.listen()
        listener.register(worker_id)
        host, port = listener.address
        return TcpConnector(
            host,
            port,
            connect_timeout=self._connect_timeout,
            heartbeat_interval=self._heartbeat_interval,
            faults=self._faults,
        )

    def close(self) -> None:
        if self._listener is not None:
            self._listener.close()
