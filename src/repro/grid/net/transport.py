"""The transport abstraction the farmer–worker runtime is written against.

The runtime's protocol (``repro.grid.runtime.protocol``) is pull-model
request/reply: workers open every connection and initiate every
exchange; the coordinator answers, and may put one advisory
:class:`~repro.grid.runtime.protocol.Notice` on a connection unasked.
A transport therefore has exactly two sides:

* the coordinator holds a :class:`Listener` — a single inbox merging
  the traffic of every worker (``recv``), plus reply routing keyed by
  worker id (``send``);
* each worker holds a :class:`Connection` — a bidirectional message
  channel to the coordinator.

Workers run in other processes (or on other machines), and each builds
its own connection there: a socket and its heartbeat thread do not
survive ``fork``, so whoever starts a worker hands it an address, and
the worker process dials.

Delivery contract
-----------------
Transports are **best-effort at-least-once substrates**, deliberately
weaker than TCP's stream guarantees:

* ``send`` may silently drop a message when the peer is unreachable
  (a dead process, a connection mid-reconnect);
* ``recv`` may never see a message that was sent;
* messages are never corrupted and never invented, and a single
  ``send`` may be observed at most a small number of times (channel
  fault wrappers can duplicate deliberately).

The runtime's seq/reply-cache retry machinery is what turns this into
a reliable RPC layer, which is exactly the point: a dropped TCP
connection then needs no special handling — it is indistinguishable
from a dropped message, and the same retry recovers both.
"""

from __future__ import annotations

import abc
from typing import Any, List, Optional, Tuple

__all__ = [
    "Connection",
    "Listener",
    "TransportClosed",
    "TransportError",
    "TransportTimeout",
    "WireVersionError",
]


class TransportError(RuntimeError):
    """Base class for transport failures."""


class TransportTimeout(TransportError):
    """``recv`` waited out its timeout with nothing delivered."""


class TransportClosed(TransportError):
    """The endpoint was closed locally; no further traffic is possible."""


class WireVersionError(TransportError):
    """The peer speaks another wire version: no retry can fix that."""


class Connection(abc.ABC):
    """A worker's bidirectional message channel to the coordinator."""

    @abc.abstractmethod
    def send(self, message: Any) -> None:
        """Best-effort send; an unreachable peer drops the message.

        A transport that reconnects lazily raises
        :class:`WireVersionError` if the peer it reaches speaks another
        wire version: that, unlike an unreachable peer, no retry fixes.
        """

    @abc.abstractmethod
    def recv(self, timeout: Optional[float] = None) -> Any:
        """Next message from the coordinator.

        Raises :class:`TransportTimeout` when nothing arrives within
        ``timeout`` seconds (``None`` blocks indefinitely), and
        :class:`WireVersionError` as :meth:`send` does.
        """

    def poll(self) -> Any:
        """A message that has already arrived, or ``None`` — never blocks.

        The worker calls this mid-slice, every ``bound_poll_nodes``
        nodes: it must not wait, reconnect or raise.  A transport that
        cannot look without blocking returns ``None`` and delivers
        through :meth:`recv` as before.
        """
        return None

    @abc.abstractmethod
    def close(self) -> None:
        """Release the channel; idempotent."""

    def take_epoch_change(self) -> bool:
        """Consume the "coordinator restarted" flag, if the transport
        tracks one.

        Network transports that handshake on every reconnection learn
        the server's epoch (its incarnation counter over one checkpoint
        directory).  This returns True exactly once after the observed
        epoch changes — the worker must then re-reconcile its interval
        copy against the recovered coordinator (eq. 14) instead of
        trusting state restored from a snapshot.  A connection without
        a handshake (a test fake) keeps this False.
        """
        return False


class Listener(abc.ABC):
    """The coordinator's side: one merged inbox, reply routing by worker."""

    @abc.abstractmethod
    def recv(self, timeout: Optional[float] = None) -> Any:
        """Next worker message from any connection.

        Raises :class:`TransportTimeout` when nothing arrives within
        ``timeout`` seconds.
        """

    @abc.abstractmethod
    def send(self, worker: str, reply: Any) -> None:
        """Route ``reply`` to ``worker``; dropped if it is unreachable."""

    @abc.abstractmethod
    def connected_workers(self) -> List[str]:
        """Live connections, plus every worker registered as launched
        against this listener: whom a draining service waits for (their
        ``Bye``, or ``SolveService.release_worker``)."""

    def flush(self) -> None:
        """Release any internally buffered traffic (fault wrappers)."""

    @property
    def address(self) -> Optional[Tuple[str, int]]:
        """``(host, port)`` for network listeners, ``None`` otherwise."""
        return None

    @abc.abstractmethod
    def close(self) -> None:
        """Stop accepting and release resources; idempotent."""

