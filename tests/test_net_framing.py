"""Wire framing: exhaustive encode/decode round-trip properties.

The transports promise that the frame encoding is the identity on
every protocol message — intervals keep their exact (arbitrarily
large) integers, costs keep their exact floats including ``inf``,
tuples come back as tuples.  Hypothesis drives one property per
message type plus the streaming frame parser.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
)
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
            "factory": st.text(max_size=20),
            "args": st.lists(st.integers(), max_size=3),
            "kwargs": st.dictionaries(
                st.text(max_size=8), st.integers(), max_size=3
            ),
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
        spec=_spec,
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
        # to 2 when the epoch field joined Hello/Welcome and to 3 when
        # the job id joined GrantWork/Update/Push.
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
