"""Wire framing: exhaustive encode/decode round-trip properties.

The transports promise that the frame encoding is the identity on
every protocol message — intervals keep their exact (arbitrarily
large) integers, costs keep their exact floats including ``inf``,
tuples come back as tuples.  Hypothesis drives one property per
message type plus the streaming frame parser.

Decoding is typed: a field whose JSON value its annotation refuses
fails the frame, as hostile frames do.

The wire contract is pinned here too: every message is registered,
only the Hello / Welcome handshake carries a version (``WIRE_VERSION``,
the wire's one), and the live schema equals the golden
``repro/tools/check/schemas/wire.json`` unless ``WIRE_VERSION`` was
bumped and the golden refreshed (``repro check --update-schemas``).
"""

from __future__ import annotations

import copy
import dataclasses
import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid.net import framing
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
    encode_message,
    read_welcome,
    wire_schema,
)
from repro.grid.net.transport import WireVersionError
from repro.grid.runtime import protocol
from repro.grid.runtime.protocol import (
    Ack,
    Bye,
    GrantWork,
    Push,
    Reconciled,
    Request,
    Terminate,
    Update,
)
from repro.tools.check.cli import WIRE_SCHEMA_PATH

# Leaf numbering reaches 20! and beyond: intervals must survive as
# exact bignums, which is why the payload is JSON and not a fixed-width
# binary layout.
_leaf = st.integers(min_value=0, max_value=10**40)
_interval = st.tuples(_leaf, _leaf)
_cost = st.one_of(
    st.integers(min_value=-(10**9), max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=True, width=64),
)
_worker = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=30
)
_solution = st.one_of(
    st.none(),
    st.tuples(),
    st.lists(st.integers(0, 10**6), max_size=8).map(tuple),
)
_seq = st.integers(min_value=0, max_value=2**31)
_stats = st.dictionaries(
    st.text(max_size=16),
    st.one_of(
        st.integers(-(10**6), 10**6),
        st.floats(allow_nan=False, allow_infinity=False, width=64),
    ),
    max_size=6,
)
_job = st.one_of(st.just(""), st.text(max_size=16))
_spec = st.one_of(
    st.none(),
    st.fixed_dictionaries(
        {
            "problem": st.sampled_from(["flowshop", "tsp"]),
            "args": st.lists(st.integers(), max_size=3),
        }
    ),
)

_MESSAGES = st.one_of(
    st.builds(Request, worker=_worker, power=_cost, seq=_seq),
    st.builds(
        Update,
        worker=_worker,
        interval=_interval,
        nodes=st.integers(0, 10**9),
        consumed=st.integers(0, 10**9),
        seq=_seq,
        job=_job,
    ),
    st.builds(
        Push, worker=_worker, cost=_cost, solution=_solution, seq=_seq, job=_job
    ),
    st.builds(Bye, worker=_worker, stats=_stats, seq=_seq),
    st.builds(
        GrantWork,
        interval=_interval,
        best_cost=_cost,
        seq=_seq,
        job=_job,
        spec=_spec,
    ),
    st.builds(Reconciled, interval=_interval, best_cost=_cost, seq=_seq),
    st.builds(Ack, best_cost=_cost, seq=_seq),
    st.builds(Terminate, best_cost=_cost, seq=_seq),
    st.builds(Hello, worker=_worker),
    st.builds(Welcome, epoch=st.integers(min_value=0, max_value=9)),
    st.builds(Heartbeat),
)


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(message=_MESSAGES)
    def test_message_roundtrip_is_identity(self, message):
        assert decode_message(encode_message(message)) == message

    @settings(max_examples=100, deadline=None)
    @given(message=_MESSAGES)
    def test_frame_roundtrip_is_identity(self, message):
        frame = encode_frame(message)
        buf = FrameBuffer()
        payloads = buf.feed(frame)
        assert len(payloads) == 1
        assert decode_message(payloads[0]) == message
        assert buf.pending_bytes() == 0

    def test_version_field_travels(self):
        # Only the handshake carries the version, WIRE_VERSION, once per
        # connection; no other frame spends bytes on one.
        assert b"version" not in encode_message(Request("w", seq=3))
        hello = encode_message(Hello("w"))
        assert hello == b'{"t":"Hello","worker":"w","version":%d}' % WIRE_VERSION
        assert decode_message(hello).version == WIRE_VERSION
        welcome = decode_message(encode_message(Welcome(epoch=4)))
        assert (welcome.epoch, welcome.version) == (4, WIRE_VERSION)
        assert encode_message(Heartbeat()) == b'{"t":"Heartbeat"}'

    def test_interval_bignum_exact(self):
        import math

        big = math.factorial(50)
        msg = Update("w", (big, big + 7), nodes=1, consumed=0, seq=1)
        assert decode_message(encode_message(msg)).interval == (big, big + 7)

    def test_infinite_cost_survives(self):
        msg = Ack(float("inf"), seq=1)
        assert decode_message(encode_message(msg)).best_cost == float("inf")


class TestDecodeErrors:
    def test_unknown_type_refused(self):
        with pytest.raises(MessageDecodeError):
            decode_message(b'{"t":"Nonsense"}')
        with pytest.raises(MessageDecodeError):
            decode_message(b'{"t":["Ack"]}')  # not even a name

    def test_future_version_refused(self):
        # Refused once, at the handshake: the one Welcome check both
        # clients call.  Frames after it carry no version to refuse.
        future = encode_message(Welcome(version=WIRE_VERSION + 1))
        with pytest.raises(WireVersionError, match="speaks only"):
            read_welcome(future)
        assert read_welcome(encode_message(Welcome(epoch=2))).epoch == 2

    def test_missing_required_field_refused(self):
        with pytest.raises(MessageDecodeError):
            decode_message(b'{"t":"Update","worker":"w"}')

    def test_garbage_refused(self):
        with pytest.raises(MessageDecodeError):
            decode_message(b"\xff\xfenot json")
        with pytest.raises(MessageDecodeError):
            decode_message(b"[1,2,3]")

    def test_unknown_extra_fields_ignored(self):
        # Fields this build does not know (here a pre-v5 peer's
        # per-message version) are skipped, not fatal.
        msg = decode_message(
            b'{"t":"Ack","best_cost":2.5,"seq":9,"version":1,"novel":true}'
        )
        assert msg == Ack(2.5, seq=9)

    def test_non_wire_object_refused_at_encode(self):
        with pytest.raises(MessageDecodeError):
            encode_message(object())


class TestTypedDecode:
    @pytest.mark.parametrize(
        "payload",
        [
            b'{"t":"Request","worker":"w","seq":"1"}',
            b'{"t":"Update","worker":"w","interval":5,"nodes":1,"consumed":0}',
            b'{"t":"Push","worker":"w","cost":"x","solution":null}',
            b'{"t":"Ack","best_cost":1.0,"seq":true}',  # int is not bool
            b'{"t":"Request","worker":"w","power":false}',  # nor is float
            b'{"t":"Reconciled","interval":[1,2,3],"best_cost":0}',
            b'{"t":"Reconciled","interval":[1,2.5],"best_cost":0}',
            b'{"t":"Notice","best_cost":0,"cut":1}',
            b'{"t":"Hello","worker":7}',
            b'{"t":"Hello","worker":"w","version":"5"}',
            b'{"t":"GrantWork","interval":[0,1],"best_cost":0,"spec":[]}',
            b'{"t":"SubmitJob","worker":"w","spec":null}',
            b'{"t":"Bye","worker":"w","stats":{"nodes":"many"}}',
            b'{"t":"JobList","jobs":[1]}',
        ],
    )
    def test_a_mistyped_field_fails_the_frame(self, payload):
        with pytest.raises(MessageDecodeError):
            decode_message(payload)

    def test_each_type_takes_what_it_should(self):
        # float takes an int; Optional takes None; Any takes anything.
        assert decode_message(b'{"t":"Ack","best_cost":3}') == Ack(3)
        grant = decode_message(
            b'{"t":"GrantWork","interval":[0,1],"best_cost":0,"spec":null}'
        )
        assert grant == GrantWork((0, 1), 0)
        push = decode_message(
            b'{"t":"Push","worker":"w","cost":1.5,"solution":{"a":1}}'
        )
        assert push.solution == {"a": 1}

    def test_every_field_annotation_has_a_check(self):
        annotations = {
            annotation
            for fields in wire_schema()["messages"].values()
            for annotation in fields.values()
        }
        assert annotations == set(framing._TYPE_CHECKS)


class TestFrameBuffer:
    def test_byte_by_byte_reassembly(self):
        messages = [Request("w", seq=i) for i in range(1, 4)]
        stream = b"".join(encode_frame(m) for m in messages)
        buf = FrameBuffer()
        out = []
        for i in range(len(stream)):
            out.extend(buf.feed(stream[i : i + 1]))
        assert [decode_message(p) for p in out] == messages
        assert buf.pending_bytes() == 0

    def test_many_frames_in_one_chunk(self):
        messages = [Ack(float(i), seq=i) for i in range(1, 6)]
        stream = b"".join(encode_frame(m) for m in messages)
        out = FrameBuffer().feed(stream)
        assert [decode_message(p) for p in out] == messages

    def test_partial_frame_stays_pending(self):
        frame = encode_frame(Terminate(1.0, seq=1))
        buf = FrameBuffer()
        assert buf.feed(frame[:-2]) == []
        assert buf.pending_bytes() == len(frame) - 2
        (payload,) = buf.feed(frame[-2:])
        assert decode_message(payload) == Terminate(1.0, seq=1)

    def test_oversized_prefix_poisons_stream(self):
        header = struct.pack("!I", MAX_FRAME_BYTES + 1)
        buf = FrameBuffer()
        with pytest.raises(FrameError):
            buf.feed(header)


def _message_module_dataclasses():
    for module in (protocol, framing):
        for obj in vars(module).values():
            if (
                isinstance(obj, type)
                and dataclasses.is_dataclass(obj)
                and obj.__module__ == module.__name__
            ):
                yield obj


def _field_drift(now, then):
    added = sorted(set(now) - set(then))
    removed = sorted(set(then) - set(now))
    retyped = sorted(f for f in set(now) & set(then) if now[f] != then[f])
    return "; ".join(
        f"{label}: {', '.join(names)}"
        for label, names in (
            ("added", added), ("removed", removed), ("retyped", retyped)
        )
        if names
    )


def schema_drift(live, golden):
    """Each way the ``live`` schema departs from the ``golden`` one."""
    bumped = live["version"] != golden["version"]
    found = [
        f"{name} left _WIRE_TYPES but is still in the golden: deployed "
        "peers may still speak it"
        for name in sorted(set(golden["messages"]) - set(live["messages"]))
    ]
    for name, now in sorted(live["messages"].items()):
        then = golden["messages"].get(name)
        if then is None:
            found.append(f"new message {name} is not in the golden")
        elif now != then:
            drift = _field_drift(now, then)
            if bumped:
                found.append(
                    f"{name} changed ({drift}) with a bump to "
                    f"v{live['version']}: the golden is stale"
                )
            else:
                found.append(
                    f"{name} changed ({drift}) without a WIRE_VERSION bump "
                    f"(still v{golden['version']}): peers of that version "
                    "would mis-read the new shape"
                )
    if bumped and not found:
        found.append(
            f"WIRE_VERSION is {live['version']} but the golden records "
            f"{golden['version']}: the golden is stale"
        )
    return found


class TestWireContract:
    def test_every_wire_dataclass_is_registered_and_versioned(self):
        # A dataclass is a wire message when the codec knows it or when
        # it carries the protocol's seq; plain values are neither.  Its
        # version is the connection's: only the handshake carries one.
        checked = 0
        for cls in _message_module_dataclasses():
            fields = {f.name: f for f in dataclasses.fields(cls)}
            registered = framing._WIRE_TYPES.get(cls.__name__) is cls
            if not registered and "seq" not in fields:
                continue
            checked += 1
            assert registered, (
                f"{cls.__name__} carries seq but is not in _WIRE_TYPES: "
                "it cannot travel over TCP"
            )
            if cls in (Hello, Welcome):
                assert fields["version"].default == WIRE_VERSION
            else:
                assert "version" not in fields, (
                    f"{cls.__name__} carries a version of its own: the "
                    "wire has one, WIRE_VERSION, checked at the handshake"
                )
        assert checked == len(framing._WIRE_TYPES)

    def test_live_schema_matches_the_golden(self):
        golden = json.loads(WIRE_SCHEMA_PATH.read_text(encoding="utf-8"))
        drift = schema_drift(wire_schema(), golden)
        assert not drift, "\n".join(
            drift
            + [
                "bump WIRE_VERSION, then refresh the golden: "
                "repro check --update-schemas"
            ]
        )

    @pytest.mark.parametrize(
        "edit, expected",
        [
            (
                lambda s: s["messages"]["Ack"].update(retries="int"),
                "Ack changed (added: retries) without a WIRE_VERSION bump",
            ),
            (
                lambda s: s["messages"]["Ack"].update(seq="float"),
                "Ack changed (retyped: seq) without a WIRE_VERSION bump",
            ),
            (
                lambda s: s["messages"]["Ack"].pop("best_cost"),
                "Ack changed (removed: best_cost) without a WIRE_VERSION bump",
            ),
            (
                lambda s: (
                    s["messages"]["Ack"].update(retries="int"),
                    s.update(version=6),
                ),
                "Ack changed (added: retries) with a bump to v6: the "
                "golden is stale",
            ),
            (
                lambda s: s.update(version=6),
                "WIRE_VERSION is 6 but the golden records 5",
            ),
            (
                lambda s: s["messages"].update(Cancel={"seq": "int"}),
                "new message Cancel is not in the golden",
            ),
            (
                lambda s: s["messages"].pop("Ack"),
                "Ack left _WIRE_TYPES but is still in the golden",
            ),
        ],
        ids=[
            "added", "retyped", "removed", "bumped-stale", "bump-alone",
            "new-message", "dropped",
        ],
    )
    def test_drift_is_reported(self, edit, expected):
        golden = {
            "version": 5,
            "messages": {"Ack": {"best_cost": "float", "seq": "int"}},
        }
        live = copy.deepcopy(golden)
        edit(live)
        (found,) = schema_drift(live, golden)
        assert found.startswith(expected)
