"""TCP transport: a non-blocking coordinator server, a blocking worker client.

The coordinator side (:class:`TcpListener`) is a ``selectors`` server
with no thread and no event loop: its I/O runs inside ``recv`` /
``send`` / ``flush`` / ``close``, on the caller's thread.  It reads
frames (:mod:`repro.grid.net.framing`), answers :class:`Hello` with
:class:`Welcome` (or, at another wire version, closes the connection
unregistered), swallows :class:`Heartbeat`, reaps peers silent past
``peer_timeout``, routes replies to the connection that last said Hello
for that worker id, and drops a peer that stopped reading them.  A
connection's identity is fixed by its Hello: a peer whose first frame
is not a Hello, or whose later frame names another worker, is dropped,
so no connection can speak (or spend seqs) for another.

The worker side (:class:`TcpClientConnection`) is deliberately a plain
blocking socket on the caller's thread — the B&B process is
single-threaded compute with occasional RPCs, and a blocking client
keeps ``worker_main`` free of any event loop and of any lock.  It
maintains the connection lazily:

* **connect / reconnect with capped, decorrelated-jittered backoff**
  (:func:`~repro.grid.net.backoff.decorrelated_jitter`), so a fleet of
  workers that lost the coordinator together does not thundering-herd
  it on recovery;
* **heartbeats** that ride its own calls: a ``recv`` or ``poll`` that
  finds nothing sent for ``heartbeat_interval`` seconds sends a
  :class:`Heartbeat` first, so the server can tell a half-open peer
  (dead, but the OS never sent a FIN/RST) from a worker exploring a
  long slice (its engine polls every few hundred nodes).  There is no
  thread: a client whose owner makes no call sends nothing;
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

# ``socket.create_connection`` encodes the host name with the idna
# codec, whose module Python imports on first use: imported here, it is
# loaded once in the parent instead of in every forked worker, where
# the first dial paid about 4 ms for it.
import encodings.idna  # noqa: F401
import math
import random
import select
import selectors
import socket
import struct
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.grid.net.backoff import decorrelated_jitter
from repro.grid.net.framing import (
    MAX_FRAME_BYTES,
    WIRE_VERSION,
    FrameBuffer,
    FrameError,
    Heartbeat,
    Hello,
    Welcome,
    decode_message,
    encode_frame,
    read_welcome,
)
from repro.grid.net.transport import (
    Connection,
    Listener,
    TransportClosed,
    TransportError,
    TransportTimeout,
    WireVersionError,
)

__all__ = [
    "SocketFaults",
    "TcpClientConnection",
    "TcpListener",
]

_RECV_CHUNK = 65536
_IO_TIMEOUT = 0.25  # a client write stalled this long means a dead link


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


@dataclass(eq=False)
class _Peer:
    """One accepted connection, as the listener's loop sees it."""

    sock: socket.socket
    last_rx: float
    frames: FrameBuffer = field(default_factory=FrameBuffer)
    out: bytearray = field(default_factory=bytearray)  # not yet taken
    worker: Optional[str] = None  # set by its Hello


class TcpListener(Listener):
    """Coordinator-side non-blocking server, run by whoever calls it."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        peer_timeout: Optional[float] = 30.0,
        epoch: int = 0,
    ):
        # No timeout: no peer is ever silent past an infinite one.
        self._peer_timeout = math.inf if peer_timeout is None else peer_timeout
        self._epoch = epoch
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        try:
            server = socket.create_server((host, port), family=family, backlog=100)
        except OSError as exc:
            raise TransportError(f"cannot listen on {host}:{port}: {exc}") from exc
        server.setblocking(False)
        self._server = server
        self._address: Tuple[str, int] = server.getsockname()[:2]
        self._selector = selectors.DefaultSelector()
        self._selector.register(server, selectors.EVENT_READ)  # data None
        self._writers: Dict[str, _Peer] = {}  # worker id -> its last Hello
        self._registered: Set[str] = set()  # see connected_workers()
        self._inbox: deque = deque()
        self._next_reap = math.inf  # no peer can be silent past this sooner

    # ------------------------------------------------------------ the loop
    def _pump(self, wait: Optional[float]) -> None:
        """One pass: wait up to ``wait`` s for readiness, serve it, reap."""
        if self._next_reap < math.inf:
            until_reap = max(self._next_reap - time.monotonic(), 0.0)
            wait = until_reap if wait is None else min(wait, until_reap)
        for key, events in self._selector.select(wait):
            peer = key.data
            if peer is None:
                self._accept()
                continue
            if events & selectors.EVENT_READ:
                self._read(peer)
            if events & selectors.EVENT_WRITE:
                self._write(peer)
        now = time.monotonic()
        if now >= self._next_reap:
            self._reap(now)

    def _accept(self) -> None:
        try:
            sock, _ = self._server.accept()
        except OSError:
            return  # the caller gave up first, or a spurious wake-up
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        now = time.monotonic()
        self._selector.register(sock, selectors.EVENT_READ, _Peer(sock, now))
        self._next_reap = min(self._next_reap, now + self._peer_timeout)

    def _read(self, peer: _Peer) -> None:
        try:
            data = peer.sock.recv(_RECV_CHUNK)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if not data:
            self._drop(peer)
            return
        # Any traffic (heartbeats included) restarts the clock; a peer
        # silent past the timeout is treated as half-open and dropped.
        peer.last_rx = time.monotonic()
        try:
            messages = [decode_message(p) for p in peer.frames.feed(data)]
        except FrameError:
            self._drop(peer)  # garbage, attack or undecodable: this conn only
            return
        for message in messages:
            if peer.worker is None:
                if not isinstance(message, Hello) or message.version != WIRE_VERSION:
                    self._drop(peer)  # no handshake, or another wire version
                    return
                stale = self._writers.get(message.worker)
                if stale is not None:
                    self._drop(stale)  # a reconnect supersedes the old conn
                peer.worker = message.worker
                self._writers[message.worker] = peer
                peer.out += encode_frame(Welcome(epoch=self._epoch))
                self._write(peer)
            elif isinstance(message, Hello) or (
                getattr(message, "worker", peer.worker) != peer.worker
            ):
                self._drop(peer)  # the identity is its Hello's, for good
                return
            elif not isinstance(message, Heartbeat):
                self._inbox.append(message)

    def _write(self, peer: _Peer) -> None:
        """Send what the socket takes now; wait for writability for the
        rest, and drop a peer whose backlog passed one frame's cap."""
        if peer.sock.fileno() < 0:
            return  # dropped earlier in this pass
        if peer.out:
            try:
                del peer.out[: peer.sock.send(peer.out)]
            except BlockingIOError:
                pass
            except OSError:
                self._drop(peer)
                return
        if len(peer.out) > MAX_FRAME_BYTES:
            self._drop(peer)  # it stopped reading: its replies are lost
            return
        events = selectors.EVENT_READ
        if peer.out:
            events |= selectors.EVENT_WRITE
        self._selector.modify(peer.sock, events, peer)

    def _reap(self, now: float) -> None:
        self._next_reap = math.inf
        for key in list(self._selector.get_map().values()):
            peer = key.data
            if peer is None:
                continue
            if now - peer.last_rx > self._peer_timeout:
                self._drop(peer)
            else:
                self._next_reap = min(
                    self._next_reap, peer.last_rx + self._peer_timeout
                )

    def _drop(self, peer: _Peer) -> None:
        if peer.sock.fileno() < 0:
            return  # already dropped
        self._selector.unregister(peer.sock)
        peer.sock.close()
        if peer.worker is not None and self._writers.get(peer.worker) is peer:
            del self._writers[peer.worker]

    # ------------------------------------------------------------ interface
    @property
    def address(self) -> Optional[Tuple[str, int]]:
        return self._address

    def register(self, worker_id: str) -> None:
        """Count ``worker_id`` as connected even while its socket is down:
        a worker the caller launched, which will dial in (again)."""
        self._registered.add(worker_id)

    def connected_workers(self) -> List[str]:
        """Workers with a live, identified connection, plus the registered."""
        return sorted(self._registered.union(self._writers))

    def recv(self, timeout: Optional[float] = None) -> Any:
        """Run the loop until a protocol message is queued or ``timeout``
        passes (``0`` serves what is ready, once)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self._inbox:
            wait = None
            if deadline is not None:
                wait = max(deadline - time.monotonic(), 0.0)
            self._pump(wait)
            if wait == 0.0 and not self._inbox:
                raise TransportTimeout(f"no message within {timeout}s")
        return self._inbox.popleft()

    def send(self, worker: str, reply: Any) -> None:
        """Write at once; what the socket will not take waits for the
        next ``recv`` / ``flush`` / ``close``."""
        peer = self._writers.get(worker)
        if peer is None:
            return  # worker unreachable: the reply is dropped;
            # its same-seq retry will be answered from the cache
        peer.out += encode_frame(reply)
        self._write(peer)

    def flush(self) -> None:
        for peer in list(self._writers.values()):
            self._write(peer)

    def close(self) -> None:
        if self._server.fileno() < 0:
            return  # closed already
        self.flush()
        for key in list(self._selector.get_map().values()):
            key.fileobj.close()
        self._selector.close()


class TcpClientConnection(Connection):
    """Blocking worker-side connection with reconnect and heartbeats.

    It has no thread: all its I/O, heartbeats included (module
    docstring), runs inside ``open`` / ``send`` / ``recv`` / ``poll`` /
    ``close``, on the caller's thread.
    """

    def __init__(
        self,
        host: str,
        port: int,
        worker_id: str,
        *,
        connect_timeout: float = 10.0,
        reconnect_base: float = 0.05,
        reconnect_cap: float = 2.0,
        heartbeat_interval: Optional[float] = 2.0,
        faults: Optional[SocketFaults] = None,
        peer_timeout: Optional[float] = None,
        max_reconnect_attempts: Optional[int] = None,
    ):
        self._host = host
        self._port = port
        self._worker = worker_id
        self._connect_timeout = connect_timeout
        self._reconnect_base = reconnect_base
        self._reconnect_cap = reconnect_cap
        # None (or <= 0): no heartbeats; None peer_timeout: no reaping.
        self._heartbeat_interval = (
            heartbeat_interval
            if heartbeat_interval is not None and heartbeat_interval > 0
            else math.inf
        )
        self._peer_timeout = math.inf if peer_timeout is None else peer_timeout
        self._rng = random.Random(worker_id)  # deterministic, per-worker jitter
        self._faults = faults
        self._max_reconnect_attempts = max_reconnect_attempts
        self._sock: Optional[socket.socket] = None
        self._buf = FrameBuffer()
        self._inbound: deque = deque()
        self._backoff = reconnect_base
        self._sent_frames = 0
        self._failed_attempts = 0
        self._exhausted = False
        self._last_rx = self._last_tx = time.monotonic()
        self._last_epoch = 0
        self._epoch_changed = False
        self._closed = False
        self.welcome: Optional[Welcome] = None
        #: total (re)connections that completed the Hello/Welcome handshake
        self.connects = 0

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
            sock.settimeout(_IO_TIMEOUT)
            buf = FrameBuffer()
            sock.sendall(encode_frame(Hello(self._worker)))
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
                        welcome = read_welcome(payload)
                        continue
                    self._inbound.append(decode_message(payload))
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
        self._last_rx = self._last_tx = time.monotonic()
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

    def _ensure_connected(self, deadline: float) -> bool:
        """Dial with backoff until connected; ``False`` once closed, out
        of attempts, or when the next attempt would pass ``deadline``."""
        while self._sock is None:
            if self._closed or self._exhausted:
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
            if time.monotonic() + delay >= deadline:
                return False
            time.sleep(delay)
        return True

    def _drop(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        self._sock = None
        self._buf = FrameBuffer()

    def _abort(self) -> None:
        """Hard reset (RST) — the fault-injection shape of a dead network."""
        if self._sock is None:
            return
        try:
            self._sock.setsockopt(
                socket.SOL_SOCKET,
                socket.SO_LINGER,
                struct.pack("ii", 1, 0),
            )
        except OSError:
            pass
        self._drop()

    def _write(self, data: bytes) -> bool:
        """Send one frame on the live socket; a failure drops the link."""
        try:
            self._sock.sendall(data)
        except OSError:
            self._drop()
            return False
        self._last_tx = time.monotonic()
        return True

    def _heartbeat_if_due(self) -> None:
        """Tell the server we are alive if nothing went out for
        ``heartbeat_interval`` — on the live socket only: a heartbeat
        never dials."""
        if (
            self._sock is not None
            and time.monotonic() - self._last_tx >= self._heartbeat_interval
        ):
            self._write(encode_frame(Heartbeat()))

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
        deadline = math.inf if timeout is None else time.monotonic() + timeout
        if not self._ensure_connected(deadline):
            raise TransportError(
                f"cannot reach coordinator at {self._host}:{self._port}"
            )

    def send(self, message: Any) -> None:
        if self._closed:
            return
        data = encode_frame(message)
        deadline = time.monotonic() + self._connect_timeout
        # A failed write is retried once, on a fresh connection; then
        # the frame is dropped, and the RPC retry recovers.
        for _attempt in range(2):
            if not self._ensure_connected(deadline):
                return
            if self._write(data):
                break
        else:
            return
        self._sent_frames += 1
        faults = self._faults
        if (
            faults is not None
            and faults.reset_after_sends
            and self._sent_frames % faults.reset_after_sends == 0
        ):
            self._abort()

    def recv(self, timeout: Optional[float] = None) -> Any:
        deadline = math.inf if timeout is None else time.monotonic() + timeout
        while True:
            if self._inbound:
                return self._inbound.popleft()
            if self._closed:
                raise TransportClosed("connection closed")
            if time.monotonic() >= deadline:
                raise TransportTimeout(f"no reply within {timeout}s")
            if not self._ensure_connected(deadline):
                if self._exhausted:
                    raise TransportError(
                        f"coordinator at {self._host}:{self._port} "
                        f"unreachable after "
                        f"{self._max_reconnect_attempts} reconnect attempts"
                    )
                raise TransportTimeout(f"no reply within {timeout}s")
            self._heartbeat_if_due()
            sock = self._sock
            if sock is None:
                continue  # the heartbeat found the link dead
            # Wake for the deadline, the next heartbeat due, or the
            # moment a silent peer counts as half-open.
            wake = min(
                deadline,
                self._last_tx + self._heartbeat_interval,
                self._last_rx + self._peer_timeout,
            )
            wait = None if wake == math.inf else max(wake - time.monotonic(), 0.0)
            if not select.select([sock], [], [], wait)[0]:
                if time.monotonic() - self._last_rx >= self._peer_timeout:
                    # Half-open link: the socket looks connected but the
                    # peer has been silent past the budget — reconnect.
                    self._drop()
                continue
            try:
                data = sock.recv(_RECV_CHUNK)
            except OSError:
                data = b""
            self._ingest(data)

    def _ingest(self, data: bytes) -> None:
        """Queue the protocol messages in ``data`` (``b""``: the link died).

        A Welcome is noted here, for :meth:`recv` and :meth:`poll`
        alike; a frame this build cannot decode (a message type from a
        newer peer) is skipped.
        """
        payloads = None
        if data:
            try:
                payloads = self._buf.feed(data)
            except FrameError:
                pass  # an unrecoverable stream is a dead link too
        if payloads is None:
            self._drop()
            return
        self._last_rx = time.monotonic()
        for payload in payloads:
            try:
                message = decode_message(payload)
            except FrameError:
                continue
            if isinstance(message, Welcome):
                self._note_welcome(message)
                continue
            self._inbound.append(message)

    def poll(self) -> Any:
        self._heartbeat_if_due()
        if not self._inbound:
            sock = self._sock
            if sock is None:
                return None  # reconnecting is send/recv's job
            try:
                # A recv() on this blocking socket could wait; look first.
                if not select.select([sock], [], [], 0)[0]:
                    return None
                data = sock.recv(_RECV_CHUNK)
            except (OSError, ValueError):
                data = b""
            self._ingest(data)
        return self._inbound.popleft() if self._inbound else None

    def take_epoch_change(self) -> bool:
        changed = self._epoch_changed
        self._epoch_changed = False
        return changed

    def close(self) -> None:
        self._closed = True
        self._drop()
