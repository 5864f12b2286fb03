"""Wire codec tests: length-prefixed JSON frames for socket transports.

The codec (:mod:`repro.network.frames`) carries :class:`Message` objects
— numpy arrays and :class:`ZoneReportFrame` payloads included — across
real TCP streams via ``encode_wire`` / :class:`WireDecoder`.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.frames import (
    MAX_WIRE_FRAME_BYTES,
    WireDecoder,
    ZoneReportFrame,
    decode_wire_body,
    encode_wire,
)
from repro.network.message import Message, MessageKind


def _msg(payload, *, kind=MessageKind.SENSE_REPORT, payload_values=3):
    return Message(
        kind=kind,
        source="nc0/node1",
        destination="nc0/broker",
        payload=payload,
        payload_values=payload_values,
        timestamp=12.5,
    )


def _round_trip(message):
    frame = encode_wire(message)
    (decoded,) = WireDecoder().feed(frame)
    return decoded


class TestRoundTrip:
    def test_scalar_payload(self):
        message = _msg({"value": 21.5, "noise_std": 0.5, "ok": True,
                        "grid_index": 7, "name": "temperature",
                        "missing": None})
        decoded = _round_trip(message)
        assert decoded.kind is message.kind
        assert decoded.source == message.source
        assert decoded.destination == message.destination
        assert decoded.timestamp == message.timestamp
        assert decoded.payload_values == message.payload_values
        assert decoded.payload == message.payload
        assert decoded.payload["ok"] is True

    def test_fresh_message_id_on_decode(self):
        message = _msg({"v": 1})
        decoded = _round_trip(message)
        assert decoded.message_id != message.message_id

    def test_ndarray_payload_bit_exact_and_readonly(self):
        arr = np.arange(12, dtype=np.float64).reshape(3, 4) * np.pi
        decoded = _round_trip(_msg({"grid": arr}))
        out = decoded.payload["grid"]
        assert out.dtype == arr.dtype
        assert np.array_equal(out, arr)
        assert not out.flags.writeable

    def test_nested_structures(self):
        payload = {
            "rows": [np.array([1, 2, 3], dtype=np.int32), "x", 4],
            "meta": {"inner": {"arr": np.zeros(2)}},
        }
        decoded = _round_trip(_msg(payload))
        assert np.array_equal(
            decoded.payload["rows"][0], np.array([1, 2, 3])
        )
        assert decoded.payload["rows"][1:] == ["x", 4]
        assert np.array_equal(
            decoded.payload["meta"]["inner"]["arr"], np.zeros(2)
        )

    def test_numpy_scalars_lowered(self):
        decoded = _round_trip(
            _msg({"f": np.float64(1.5), "i": np.int64(3),
                  "b": np.bool_(True)})
        )
        assert decoded.payload == {"f": 1.5, "i": 3, "b": True}
        assert type(decoded.payload["i"]) is int
        assert type(decoded.payload["b"]) is bool

    def test_zone_report_frame_payload(self):
        frame = ZoneReportFrame(
            zone_id=2,
            round_index=9,
            node_ids=np.array([4, 7, 11], dtype=np.int64),
            values=np.array([20.5, 21.0, 19.75]),
            noise_stds=np.array([0.5, 0.5, 0.25]),
        )
        decoded = _round_trip(
            _msg({"frame": frame}, kind=MessageKind.AGGREGATE)
        )
        out = decoded.payload["frame"]
        assert isinstance(out, ZoneReportFrame)
        assert out.zone_id == 2 and out.round_index == 9
        assert np.array_equal(out.node_ids, frame.node_ids)
        assert np.array_equal(out.values, frame.values)
        assert np.array_equal(out.noise_stds, frame.noise_stds)
        assert not out.values.flags.writeable


class TestWireDecoder:
    def test_byte_at_a_time_feed(self):
        message = _msg({"grid": np.arange(6.0)})
        frame = encode_wire(message)
        decoder = WireDecoder()
        out = []
        for i in range(len(frame)):
            out.extend(decoder.feed(frame[i : i + 1]))
        assert len(out) == 1
        assert np.array_equal(out[0].payload["grid"], np.arange(6.0))
        assert decoder.buffered == 0

    def test_multiple_frames_in_one_feed(self):
        frames = b"".join(
            encode_wire(_msg({"i": i})) for i in range(5)
        )
        decoded = WireDecoder().feed(frames)
        assert [m.payload["i"] for m in decoded] == list(range(5))

    def test_partial_frame_stays_buffered(self):
        frame = encode_wire(_msg({"i": 1}))
        decoder = WireDecoder()
        assert decoder.feed(frame[:-1]) == []
        assert decoder.buffered == len(frame) - 1
        (message,) = decoder.feed(frame[-1:])
        assert message.payload == {"i": 1}

    def test_oversized_header_rejected(self):
        decoder = WireDecoder()
        bogus = struct.pack(">I", MAX_WIRE_FRAME_BYTES + 1)
        with pytest.raises(ValueError, match="exceeds"):
            decoder.feed(bogus)

    def test_decode_wire_body_defaults(self):
        body = (
            b'{"kind":"sense_command","source":"a","destination":"b"}'
        )
        message = decode_wire_body(body)
        assert message.kind is MessageKind.SENSE_COMMAND
        assert message.payload == {}
        assert message.payload_values == 1
        assert message.timestamp == 0.0


class TestMalformedBodies:
    """A well-framed but malformed body raises ValueError, the one
    error a peer handler catches — never TypeError or KeyError."""

    @pytest.mark.parametrize(
        "body",
        [
            pytest.param(b"[]", id="list-body"),
            pytest.param(b"1", id="number-body"),
            pytest.param(b"null", id="null-body"),
            pytest.param(b'"text"', id="string-body"),
            pytest.param(b"\xff\xfe", id="bad-utf8"),
            pytest.param(b"{", id="bad-json"),
            pytest.param(
                b'{"kind":"sense_command","destination":"b"}',
                id="missing-source",
            ),
            pytest.param(
                b'{"kind":"sense_command","source":"a"}',
                id="missing-destination",
            ),
            pytest.param(
                b'{"source":"a","destination":"b"}', id="missing-kind"
            ),
            pytest.param(
                b'{"kind":"nope","source":"a","destination":"b"}',
                id="unknown-kind",
            ),
            pytest.param(
                b'{"kind":"sense_command","source":1,"destination":"b"}',
                id="number-source",
            ),
            pytest.param(
                b'{"kind":"sense_command","source":"a","destination":"b",'
                b'"payload_values":[1]}',
                id="list-payload-values",
            ),
            pytest.param(
                b'{"kind":"sense_command","source":"a","destination":"b",'
                b'"timestamp":{}}',
                id="object-timestamp",
            ),
            pytest.param(
                b'{"kind":"sense_command","source":"a","destination":"b",'
                b'"payload":[1,2]}',
                id="list-payload",
            ),
            pytest.param(
                b'{"kind":"sense_command","source":"a","destination":"b",'
                b'"payload":"x"}',
                id="string-payload",
            ),
            pytest.param(
                b'{"kind":"sense_command","source":"a","destination":"b",'
                b'"payload":{"v":{"__ndarray__":{"dtype":"<f8"}}}}',
                id="array-missing-fields",
            ),
            pytest.param(
                b'{"kind":"sense_command","source":"a","destination":"b",'
                b'"payload":{"v":{"__ndarray__":{"dtype":"zz","shape":[1],'
                b'"data":"AAAAAAAAAAA="}}}}',
                id="array-bad-dtype",
            ),
            pytest.param(
                b'{"kind":"sense_command","source":"a","destination":"b",'
                b'"payload":{"v":{"__ndarray__":{"dtype":"<f8","shape":[3],'
                b'"data":"AAAAAAAAAAA="}}}}',
                id="array-bad-shape",
            ),
            pytest.param(b"[" * 100_000, id="deep-nesting"),
        ],
    )
    def test_raises_value_error(self, body):
        with pytest.raises(ValueError):
            decode_wire_body(body)
        with pytest.raises(ValueError):
            WireDecoder().feed(struct.pack(">I", len(body)) + body)


def _json_values():
    scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(2**70), 2**70),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=8),
    )
    return st.recursive(
        scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.dictionaries(st.text(max_size=6), inner, max_size=4),
        ),
        max_leaves=12,
    )


_FIELDS = ["kind", "source", "destination", "payload", "payload_values",
           "timestamp"]


def _bodies():
    """Bodies near the real shape (each field present or not, any JSON
    value) plus arbitrary JSON values and arbitrary bytes."""
    kinds = st.sampled_from([k.value for k in MessageKind])
    near = st.fixed_dictionaries(
        {},
        optional={
            "kind": st.one_of(kinds, _json_values()),
            "source": st.one_of(st.text(min_size=1, max_size=6),
                                _json_values()),
            "destination": st.one_of(st.text(min_size=1, max_size=6),
                                     _json_values()),
            "payload": _json_values(),
            "payload_values": _json_values(),
            "timestamp": _json_values(),
        },
    )
    return st.one_of(
        near.map(lambda d: json.dumps(d).encode()),
        _json_values().map(lambda v: json.dumps(v).encode()),
        st.binary(max_size=64),
    )


def _scalar_messages():
    kinds = st.sampled_from(list(MessageKind))
    payload = st.dictionaries(
        st.text(max_size=6),
        st.one_of(st.integers(-1000, 1000), st.text(max_size=6),
                  st.booleans(), st.none()),
        max_size=4,
    )
    return st.builds(
        Message,
        kind=kinds,
        source=st.text(min_size=1, max_size=6),
        destination=st.text(min_size=1, max_size=6),
        payload=payload,
        payload_values=st.integers(0, 50),
        timestamp=st.floats(0, 1e6),
    )


class TestWireDecoderProperties:
    @given(
        messages=st.lists(_scalar_messages(), min_size=1, max_size=5),
        cuts=st.lists(st.integers(0, 4096), max_size=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_any_split_gives_the_same_messages(self, messages, cuts):
        stream = b"".join(encode_wire(m) for m in messages)
        whole = WireDecoder().feed(stream)
        bounds = sorted({c % (len(stream) + 1) for c in cuts})
        decoder = WireDecoder()
        pieces = []
        start = 0
        for end in bounds + [len(stream)]:
            pieces.extend(decoder.feed(stream[start:end]))
            start = end
        assert decoder.buffered == 0
        key = [
            (m.kind, m.source, m.destination, m.payload, m.payload_values,
             m.timestamp)
            for m in messages
        ]
        for decoded in (whole, pieces):
            assert [
                (m.kind, m.source, m.destination, m.payload,
                 m.payload_values, m.timestamp)
                for m in decoded
            ] == key

    @given(body=_bodies())
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_framed_bodies_give_message_or_value_error(self, body):
        frame = struct.pack(">I", len(body)) + body
        try:
            decoded = WireDecoder().feed(frame)
        except ValueError:
            return
        (message,) = decoded
        assert isinstance(message, Message)
        assert isinstance(message.payload, dict)
