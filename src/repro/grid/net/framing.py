"""Length-prefixed binary framing + versioned message (de)serialization.

Wire format
-----------
Every message travels as one *frame*::

    +----------------+---------------------------+
    | length: u32 BE | payload: UTF-8 JSON bytes |
    +----------------+---------------------------+

The payload is a JSON object with two envelope keys and the message's
fields::

    {"t": "Update", "version": 1, "worker": "w0",
     "interval": [128, 4096], "nodes": 311, "consumed": 128, "seq": 7}

* ``t`` names the message type (the dataclass name);
* ``version`` is the message's wire version (every protocol dataclass
  carries an explicit ``version`` field).  A decoder refuses frames
  from the *future* (``version > WIRE_VERSION``) and refuses unknown
  types — framing can evolve without silent breakage: old fields keep
  their meaning within a version, new fields must bump it.  The
  ``repro check`` RC12 gate enforces exactly this: each registered
  message is diffed against its golden schema
  (``repro/tools/check/schemas/wire.json``), and shape drift without a
  bump fails the build (``--update-schemas`` refreshes the snapshot
  once the bump is in place).

Numbers round-trip exactly (Python's ``json`` preserves ints and
``repr``-exact floats, including ``inf`` for the initial bound).  JSON
has no tuples, so sequence-typed fields (``interval``, ``solution``)
decode as tuples again — the encode/decode round trip is the identity
on every protocol message, which ``tests/test_net_framing.py`` pins
with an exhaustive hypothesis property.

Besides the runtime and job-service protocol messages, three transport-level
messages ride the same framing: :class:`Hello` (a client identifies
its worker id when (re)connecting), :class:`Welcome` (the server's
answer, optionally carrying the run's :class:`ProblemSpec` in wire
form so standalone workers need nothing but ``--connect``), and
:class:`Heartbeat` (an idle keepalive that lets the server detect
half-open peers).  Transports swallow these; the coordinator never
sees them.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.grid.runtime.protocol import (
    Ack,
    Bye,
    CancelJob,
    GrantWork,
    Idle,
    JobAccepted,
    JobList,
    JobRefused,
    JobStatus,
    JobStatusRequest,
    ListJobs,
    Notice,
    Push,
    Reconciled,
    Request,
    SubmitJob,
    Terminate,
    Update,
)

__all__ = [
    "WIRE_VERSION",
    "MAX_FRAME_BYTES",
    "FrameError",
    "MessageDecodeError",
    "Hello",
    "Welcome",
    "Heartbeat",
    "encode_message",
    "decode_message",
    "encode_frame",
    "FrameBuffer",
]

#: Highest wire version this build understands.  v2 added the server
#: ``epoch`` to the Hello/Welcome handshake (crash-only recovery); v3
#: put the job id on GrantWork/Update/Push and dropped their job-tagged
#: twins, so both ends of a handshake must speak exactly this version.
WIRE_VERSION = 3

#: Upper bound on a single frame; anything larger is a protocol error
#: (or garbage on the port), not a message worth buffering.
MAX_FRAME_BYTES = 16 << 20

_HEADER = struct.Struct("!I")


class FrameError(RuntimeError):
    """The byte stream does not contain a well-formed frame."""


class MessageDecodeError(FrameError):
    """A frame's payload is not a decodable protocol message."""


# ----------------------------------------------------------------------
# transport-level messages (never reach the coordinator)
# ----------------------------------------------------------------------


@dataclass
class Hello:
    """First frame of every (re)connection: who is calling.

    ``epoch`` is the last server epoch the client saw (0 on a first
    connection): the server can tell a reconnecting survivor of a
    previous incarnation from a fresh worker.
    """

    worker: str
    power: float = 1.0
    epoch: int = 0
    version: int = WIRE_VERSION


@dataclass
class Welcome:
    """The server's reply to :class:`Hello`.

    ``spec`` is always ``None``: every ``GrantWork`` carries its job's
    problem, so the field is dead and goes with the next wire-version
    bump.  ``epoch`` counts server incarnations over one
    checkpoint directory (0 when the server keeps no checkpoints): a
    client that sees it change knows the coordinator restarted from a
    snapshot and must re-reconcile its interval copy (eq. 14) instead
    of trusting the recovered state.
    """

    spec: Optional[Dict[str, Any]] = None
    best_cost: float = float("inf")
    epoch: int = 0
    version: int = WIRE_VERSION


@dataclass
class Heartbeat:
    """Idle keepalive so a silent-but-connected peer stays detectable."""

    worker: str = ""
    version: int = WIRE_VERSION


_WIRE_TYPES = {
    cls.__name__: cls
    for cls in (
        Request,
        Update,
        Push,
        Bye,
        GrantWork,
        Reconciled,
        Ack,
        Terminate,
        Notice,
        Idle,
        SubmitJob,
        JobAccepted,
        JobRefused,
        JobStatusRequest,
        JobStatus,
        CancelJob,
        ListJobs,
        JobList,
        Hello,
        Welcome,
        Heartbeat,
    )
}

_FIELDS = {
    name: [f.name for f in dataclasses.fields(cls)]
    for name, cls in _WIRE_TYPES.items()
}

#: Sequence-typed fields: JSON turns tuples into lists; decode restores.
_TUPLE_FIELDS = frozenset({"interval", "solution"})


def _tuplify(value: Any) -> Any:
    if isinstance(value, list):
        return tuple(_tuplify(v) for v in value)
    return value


def encode_message(message: Any) -> bytes:
    """Serialize one protocol/transport message to a frame payload."""
    cls_name = type(message).__name__
    if cls_name not in _WIRE_TYPES:
        raise MessageDecodeError(f"{cls_name} is not a wire message")
    body: Dict[str, Any] = {"t": cls_name}
    for field in _FIELDS[cls_name]:
        body[field] = getattr(message, field)
    try:
        return json.dumps(body, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise MessageDecodeError(
            f"{cls_name} carries a non-serializable field: {exc}"
        ) from exc


def decode_message(payload: bytes) -> Any:
    """Rebuild the message a frame payload encodes.

    Raises :class:`MessageDecodeError` for malformed JSON, unknown
    types, versions from the future, and missing fields.
    """
    try:
        body = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise MessageDecodeError(f"payload is not JSON: {exc}") from exc
    if not isinstance(body, dict) or "t" not in body:
        raise MessageDecodeError("payload lacks a message type")
    cls_name = body.pop("t")
    cls = _WIRE_TYPES.get(cls_name)
    if cls is None:
        raise MessageDecodeError(f"unknown message type {cls_name!r}")
    version = body.get("version", 1)
    if not isinstance(version, int) or version < 1:
        raise MessageDecodeError(f"bad wire version {version!r}")
    if version > WIRE_VERSION:
        raise MessageDecodeError(
            f"{cls_name} v{version} is from the future "
            f"(this build speaks <= v{WIRE_VERSION})"
        )
    known = _FIELDS[cls_name]
    kwargs = {}
    for field in known:
        if field in body:
            value = body[field]
            if field in _TUPLE_FIELDS:
                value = _tuplify(value)
            kwargs[field] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise MessageDecodeError(f"{cls_name}: {exc}") from exc


def encode_frame(message: Any) -> bytes:
    """One complete frame (header + payload) for ``message``."""
    payload = encode_message(message)
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(
            f"{type(message).__name__} frame of {len(payload)} bytes "
            f"exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    return _HEADER.pack(len(payload)) + payload


class FrameBuffer:
    """Incremental frame parser for a byte stream.

    Feed it whatever ``recv`` returned; it yields the complete frame
    payloads and keeps partial ones buffered.  Raises
    :class:`FrameError` on an oversized length prefix — the stream is
    then unrecoverable and the connection should be dropped.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[bytes]:
        self._buffer.extend(data)
        payloads: List[bytes] = []
        while True:
            if len(self._buffer) < _HEADER.size:
                return payloads
            (length,) = _HEADER.unpack_from(self._buffer)
            if length > MAX_FRAME_BYTES:
                raise FrameError(
                    f"frame of {length} bytes exceeds the "
                    f"{MAX_FRAME_BYTES}-byte cap"
                )
            end = _HEADER.size + length
            if len(self._buffer) < end:
                return payloads
            payloads.append(bytes(self._buffer[_HEADER.size:end]))
            del self._buffer[:end]

    def pending_bytes(self) -> int:
        """Bytes buffered toward an incomplete frame."""
        return len(self._buffer)
