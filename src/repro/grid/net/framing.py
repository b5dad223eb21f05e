"""Length-prefixed binary framing + typed message (de)serialization.

Wire format
-----------
Every message travels as one *frame*::

    +----------------+---------------------------+
    | length: u32 BE | payload: UTF-8 JSON bytes |
    +----------------+---------------------------+

The payload is a JSON object with one envelope key and the message's
fields::

    {"t": "Update", "worker": "w0", "interval": [128, 4096],
     "nodes": 311, "consumed": 128, "seq": 7, "job": ""}

``t`` names the message type (the dataclass name).  No frame carries a
version: the wire has one, :data:`WIRE_VERSION`, checked once per
connection.  A client's first frame is a :class:`Hello` and the
server's a :class:`Welcome`, each stamped with the sender's
``WIRE_VERSION``; a server closes a Hello of any other version
unanswered, and a client refuses a Welcome of any other version with
:class:`~repro.grid.net.transport.WireVersionError`
(:func:`read_welcome`).  Every field change therefore bumps
``WIRE_VERSION``: ``tests/test_net_framing.py`` diffs
:func:`wire_schema` against the golden
``repro/tools/check/schemas/wire.json`` and fails on shape drift
without a bump (``repro check --update-schemas`` refreshes the golden
once the bump is in place).

A decoder refuses unknown types, missing fields and any field whose
JSON value does not fit its annotation (an ``int`` is not a ``bool``,
an interval is exactly two ints); fields it does not know are
skipped.  A refusal is a :class:`MessageDecodeError`, so a listener
drops that one connection and serves the rest.

Numbers round-trip exactly (Python's ``json`` preserves ints and
``repr``-exact floats, including ``inf`` for the initial bound).  JSON
has no tuples, so sequence-typed fields (``interval``, ``solution``)
decode as tuples again — the encode/decode round trip is the identity
on every protocol message, which ``tests/test_net_framing.py`` pins
with an exhaustive hypothesis property.

Besides the runtime and job-service protocol messages, three transport-level
messages ride the same framing: :class:`Hello` (a client names its
worker id when (re)connecting; every later frame of that connection
must name the same one), :class:`Welcome` (the server's answer, with
its epoch; the problem itself comes on every ``GrantWork``, so
standalone workers need nothing but ``--connect``), and
:class:`Heartbeat` (an idle keepalive that lets the server detect
half-open peers).  Transports swallow these; the coordinator never
sees them.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from repro.grid.net.transport import WireVersionError
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
    "read_welcome",
    "FrameBuffer",
    "wire_schema",
]

#: The wire's one version, checked once per connection by the Hello /
#: Welcome handshake.  v2 added the server ``epoch`` to the handshake;
#: v3 put the job id on GrantWork/Update/Push and dropped their
#: job-tagged twins; v4 made a spec name a problem of a closed table
#: and dropped ``Welcome.spec``; v5 dropped every per-message
#: ``version`` field and the handshake fields nothing read.
WIRE_VERSION = 5

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
    """First frame of every (re)connection: who is calling, at which
    wire version.  ``worker`` is the connection's identity: a listener
    drops a connection whose later frames name another worker."""

    worker: str
    version: int = WIRE_VERSION


@dataclass
class Welcome:
    """The server's reply to :class:`Hello`.

    ``epoch`` counts server incarnations over one
    checkpoint directory (0 when the server keeps no checkpoints): a
    client that sees it change knows the coordinator restarted from a
    snapshot and must re-reconcile its interval copy (eq. 14) instead
    of trusting the recovered state.
    """

    epoch: int = 0
    version: int = WIRE_VERSION


@dataclass
class Heartbeat:
    """Idle keepalive so a silent-but-connected peer stays detectable.

    A worker sends one from its connection's own ``recv`` / ``poll``
    calls when nothing else went out for ``heartbeat_interval``; no
    thread sends it, so a peer whose owner makes no call goes quiet.
    The listener knows the sender from its Hello.
    """


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


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_float(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: What a field's JSON value must be, keyed by the field's annotation
#: as written (both message modules defer annotations, so they stay
#: strings).  JSON object keys are always strings.
_TYPE_CHECKS: Dict[str, Callable[[Any], bool]] = {
    "int": _is_int,
    "float": _is_float,
    "bool": lambda value: isinstance(value, bool),
    "str": lambda value: isinstance(value, str),
    "Any": lambda value: True,
    "Tuple[int, int]": lambda value: (
        isinstance(value, list) and len(value) == 2 and all(map(_is_int, value))
    ),
    "Dict[str, Any]": lambda value: isinstance(value, dict),
    "Optional[Dict[str, Any]]": lambda value: value is None or isinstance(value, dict),
    "Dict[str, float]": lambda value: (
        isinstance(value, dict) and all(map(_is_float, value.values()))
    ),
    "List[Dict[str, Any]]": lambda value: (
        isinstance(value, list) and all(isinstance(item, dict) for item in value)
    ),
}

#: Each message's fields with the check of each: a field whose
#: annotation ``_TYPE_CHECKS`` lacks fails here, at import.
_FIELDS: Dict[str, List[Tuple[str, Callable[[Any], bool]]]] = {
    name: [(f.name, _TYPE_CHECKS[f.type]) for f in dataclasses.fields(cls)]
    for name, cls in _WIRE_TYPES.items()
}


def wire_schema() -> Dict[str, Any]:
    """``{"version": WIRE_VERSION, "messages": {name: {field: annotation}}}``
    over every registered message, each annotation as written."""
    return {
        "version": WIRE_VERSION,
        "messages": {
            name: {f.name: f.type for f in dataclasses.fields(cls)}
            for name, cls in _WIRE_TYPES.items()
        },
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
    for field, _ in _FIELDS[cls_name]:
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
    types, missing fields and fields whose value their type refuses.
    """
    try:
        body = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise MessageDecodeError(f"payload is not JSON: {exc}") from exc
    if not isinstance(body, dict) or "t" not in body:
        raise MessageDecodeError("payload lacks a message type")
    cls_name = body["t"]
    cls = _WIRE_TYPES.get(cls_name) if isinstance(cls_name, str) else None
    if cls is None:
        raise MessageDecodeError(f"unknown message type {cls_name!r:.80}")
    kwargs = {}
    for field, fits in _FIELDS[cls_name]:
        if field in body:
            value = body[field]
            if not fits(value):
                raise MessageDecodeError(
                    f"{cls_name}.{field} cannot be {value!r:.80}"
                )
            kwargs[field] = _tuplify(value) if field in _TUPLE_FIELDS else value
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


def read_welcome(payload: bytes) -> Welcome:
    """A client's half of the handshake: the server's first frame,
    which must be a Welcome of this :data:`WIRE_VERSION`.

    Raises :class:`~repro.grid.net.transport.WireVersionError`
    otherwise, which no redial fixes.
    """
    try:
        message = decode_message(payload)
    except MessageDecodeError as exc:
        raise WireVersionError(f"undecodable handshake reply: {exc}") from exc
    if not isinstance(message, Welcome) or message.version != WIRE_VERSION:
        raise WireVersionError(
            f"the server answered {message!r:.200}; this build speaks "
            f"only a v{WIRE_VERSION} Welcome"
        )
    return message


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
