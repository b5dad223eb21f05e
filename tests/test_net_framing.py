"""Wire framing: exhaustive encode/decode round-trip properties.

The transports promise that the frame encoding is the identity on
every protocol message — intervals keep their exact (arbitrarily
large) integers, costs keep their exact floats including ``inf``,
tuples come back as tuples.  Hypothesis drives one property per
message type plus the streaming frame parser.

The wire contract is pinned here too: every message is registered and
versioned, and the live schema equals the golden
``repro/tools/check/schemas/wire.json`` unless a version was bumped
and the golden refreshed (``repro check --update-schemas``).
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
    wire_schema,
)
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
    st.builds(
        Hello,
        worker=_worker,
        power=_cost,
        epoch=st.integers(min_value=0, max_value=9),
    ),
    st.builds(
        Welcome,
        best_cost=_cost,
        epoch=st.integers(min_value=0, max_value=9),
    ),
    st.builds(Heartbeat, worker=_worker),
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
        # Unchanged runtime messages are stamped with PROTOCOL_VERSION
        # (still 1); the handshake messages carry WIRE_VERSION, bumped
        # to 2 when the epoch field joined Hello/Welcome, to 3 when
        # the job id joined GrantWork/Update/Push and to 4 when a spec
        # came to name a problem of a closed table.
        payload = encode_message(Request("w", seq=3))
        assert b'"version":1' in payload
        assert decode_message(payload).version == 1
        hello = encode_message(Hello("w", epoch=4))
        assert b'"version":%d' % WIRE_VERSION in hello
        decoded = decode_message(hello)
        assert decoded.version == WIRE_VERSION
        assert decoded.epoch == 4

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
            decode_message(b'{"t":"Nonsense","version":1}')

    def test_future_version_refused(self):
        with pytest.raises(MessageDecodeError, match="future"):
            decode_message(
                b'{"t":"Ack","best_cost":1,"seq":0,"version":%d}'
                % (WIRE_VERSION + 1)
            )

    def test_missing_required_field_refused(self):
        with pytest.raises(MessageDecodeError):
            decode_message(b'{"t":"Update","worker":"w","version":1}')

    def test_garbage_refused(self):
        with pytest.raises(MessageDecodeError):
            decode_message(b"\xff\xfenot json")
        with pytest.raises(MessageDecodeError):
            decode_message(b"[1,2,3]")

    def test_unknown_extra_fields_ignored(self):
        # Forward-compatible within a version: new optional fields from
        # a same-version peer are skipped, not fatal.
        msg = decode_message(
            b'{"t":"Ack","best_cost":2.5,"seq":9,"version":1,"novel":true}'
        )
        assert msg == Ack(2.5, seq=9)

    def test_non_wire_object_refused_at_encode(self):
        with pytest.raises(MessageDecodeError):
            encode_message(object())


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
    found = [
        f"{name} left _WIRE_TYPES but is still in the golden: deployed "
        "peers may still speak it"
        for name in sorted(set(golden) - set(live))
    ]
    for name in sorted(live):
        now, then = live[name], golden.get(name)
        if then is None:
            found.append(f"new message {name} is not in the golden")
        elif now["fields"] != then["fields"]:
            drift = _field_drift(now["fields"], then["fields"])
            if now["version"] == then["version"]:
                found.append(
                    f"{name} changed ({drift}) without a version bump "
                    f"(still {then['version']}): old decoders would "
                    "mis-read the new shape"
                )
            else:
                found.append(
                    f"{name} changed ({drift}) with a bump to "
                    f"{now['version']}: the golden is stale"
                )
        elif now["version"] != then["version"]:
            found.append(
                f"{name} is version {now['version']} but the golden "
                f"records {then['version']}: the golden is stale"
            )
    return found


class TestWireContract:
    def test_every_wire_dataclass_is_registered_and_versioned(self):
        # A dataclass is a wire message when the codec knows it or when
        # it carries the protocol's seq; plain values are neither.
        checked = 0
        for cls in _message_module_dataclasses():
            fields = {f.name for f in dataclasses.fields(cls)}
            registered = framing._WIRE_TYPES.get(cls.__name__) is cls
            if not registered and "seq" not in fields:
                continue
            checked += 1
            assert registered, (
                f"{cls.__name__} carries seq but is not in _WIRE_TYPES: "
                "it cannot travel over TCP"
            )
            assert "version" in fields, (
                f"{cls.__name__} has no version field: decoders cannot "
                "refuse its frames from the future"
            )
        assert checked == len(framing._WIRE_TYPES)

    def test_live_schema_matches_the_golden(self):
        golden = json.loads(WIRE_SCHEMA_PATH.read_text(encoding="utf-8"))
        drift = schema_drift(wire_schema(), golden["messages"])
        assert not drift, "\n".join(
            drift
            + [
                "bump the changed message's version (WIRE_VERSION for "
                "Hello/Welcome/Heartbeat), then refresh the golden: "
                "repro check --update-schemas"
            ]
        )

    @pytest.mark.parametrize(
        "edit, expected",
        [
            (
                lambda s: s["Ack"]["fields"].update(retries="int"),
                "Ack changed (added: retries) without a version bump",
            ),
            (
                lambda s: s["Ack"]["fields"].update(seq="float"),
                "Ack changed (retyped: seq) without a version bump",
            ),
            (
                lambda s: s["Ack"]["fields"].pop("best_cost"),
                "Ack changed (removed: best_cost) without a version bump",
            ),
            (
                lambda s: (
                    s["Ack"]["fields"].update(retries="int"),
                    s["Ack"].update(version=2),
                ),
                "Ack changed (added: retries) with a bump to 2: the "
                "golden is stale",
            ),
            (
                lambda s: s["Ack"].update(version=2),
                "Ack is version 2 but the golden records 1",
            ),
            (
                lambda s: s.update(
                    Cancel={"version": 1, "fields": {"seq": "int"}}
                ),
                "new message Cancel is not in the golden",
            ),
            (
                lambda s: s.pop("Ack"),
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
            "Ack": {
                "version": 1,
                "fields": {"best_cost": "float", "seq": "int", "version": "int"},
            }
        }
        live = copy.deepcopy(golden)
        edit(live)
        (found,) = schema_drift(live, golden)
        assert found.startswith(expected)
