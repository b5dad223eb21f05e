"""The network transport of the farmer–worker runtime.

The runtime of :mod:`repro.grid.runtime` speaks a transport
*interface* rather than a concrete channel:

* :class:`~repro.grid.net.transport.Listener` — the coordinator side:
  one inbox of worker messages plus reply routing by worker id;
* :class:`~repro.grid.net.transport.Connection` — the worker side: a
  bidirectional message channel to the coordinator.

:mod:`repro.grid.net.tcp` implements both with length-prefixed frames
over TCP: :class:`~repro.grid.net.tcp.TcpListener` is a coordinator
server with no event loop (its I/O runs inside ``recv`` / ``send`` /
``flush`` / ``close``), and :class:`~repro.grid.net.tcp.TcpClientConnection`
a blocking worker client with heartbeats and jittered reconnect, which
every worker process builds for itself — ``solve_parallel``'s forked
loopback workers and ``repro grid worker`` on another machine alike.
Fault wrappers and test fakes substitute the interface's sides.

The transport delivers *at-least-once* message semantics on top of an
unreliable channel: a dropped connection is indistinguishable from a
dropped message, and the runtime's seq/retry machinery recovers either
the same way.

:mod:`repro.grid.net.framing` defines the versioned wire encoding;
:mod:`repro.grid.net.serve` runs a standalone worker (``repro grid
worker``) against a :class:`~repro.grid.service.server.SolveService`,
which is the coordinator server of both ``repro grid serve`` (one job)
and ``repro grid service`` (many).
"""

from repro.grid.net.backoff import decorrelated_jitter
from repro.grid.net.framing import (
    WIRE_VERSION,
    FrameBuffer,
    FrameError,
    Heartbeat,
    Hello,
    MessageDecodeError,
    Welcome,
    decode_message,
    encode_frame,
    encode_message,
)
from repro.grid.net.tcp import SocketFaults, TcpListener
from repro.grid.net.transport import (
    Connection,
    Listener,
    TransportClosed,
    TransportError,
    TransportTimeout,
    WireVersionError,
)

__all__ = [
    "Connection",
    "FrameBuffer",
    "FrameError",
    "Heartbeat",
    "Hello",
    "Listener",
    "MessageDecodeError",
    "SocketFaults",
    "TcpListener",
    "TransportClosed",
    "TransportError",
    "TransportTimeout",
    "WIRE_VERSION",
    "Welcome",
    "WireVersionError",
    "decode_message",
    "decorrelated_jitter",
    "encode_frame",
    "encode_message",
]
