"""Pluggable network transports for the farmer–worker runtime.

The multiprocessing runtime of :mod:`repro.grid.runtime` speaks a
transport *interface* rather than a concrete channel:

* :class:`~repro.grid.net.transport.Listener` — the coordinator side:
  one inbox of worker messages plus reply routing by worker id;
* :class:`~repro.grid.net.transport.Connection` — the worker side: a
  bidirectional message channel to the coordinator;
* :class:`~repro.grid.net.transport.Connector` — a picklable recipe a
  forked/spawned worker uses to open its connection.

Two backends implement it:

* :class:`~repro.grid.net.inprocess.InProcessTransport` — the original
  ``multiprocessing`` queues, for single-host runs;
* :class:`~repro.grid.net.tcp.TcpTransport` — length-prefixed frames
  over TCP (asyncio coordinator server, blocking worker client with
  heartbeats and jittered reconnect), for multi-machine runs.

Both deliver *at-least-once* message semantics on top of an unreliable
channel: a dropped connection is indistinguishable from a dropped
message, and the runtime's seq/reply-cache retry machinery (PR 1)
recovers either the same way.

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
from repro.grid.net.inprocess import InProcessTransport
from repro.grid.net.tcp import SocketFaults, TcpConnector, TcpListener, TcpTransport
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
    "Connection",
    "Connector",
    "FrameBuffer",
    "FrameError",
    "Heartbeat",
    "Hello",
    "InProcessTransport",
    "Listener",
    "MessageDecodeError",
    "SocketFaults",
    "TcpConnector",
    "TcpListener",
    "TcpTransport",
    "Transport",
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
