"""Unit tests for the hand-rolled HTTP/WebSocket framing layer.

The container ships no websocket library, so :mod:`repro.gateway.
protocol` implements RFC 6455 itself; these tests pin it against the
RFC's own vectors and the frame-size edge cases.
"""

import asyncio
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gateway import protocol


def _run(coro):
    return asyncio.run(coro)


async def _reader_for(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


async def _decode(data: bytes):
    return await protocol.ws_read_message(await _reader_for(data))


class TestHandshake:
    def test_accept_key_matches_rfc_vector(self):
        # RFC 6455 section 1.3's worked example.
        assert (
            protocol.websocket_accept_key("dGhlIHNhbXBsZSBub25jZQ==")
            == "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
        )

    def test_handshake_response_carries_accept(self):
        response = protocol.ws_handshake_response(
            "dGhlIHNhbXBsZSBub25jZQ=="
        ).decode("latin-1")
        assert response.startswith("HTTP/1.1 101 ")
        assert "Sec-WebSocket-Accept: s3pPLMBiTxaQ9kYGzzhZRbK+xOo=" in (
            response
        )


class TestHttpParsing:
    def test_get_with_query(self):
        raw = (
            b"GET /sensor/connect?type=temperature&x=3&mode=poll "
            b"HTTP/1.1\r\nHost: gw\r\nUpgrade: WebSocket\r\n"
            b"Connection: keep-alive, Upgrade\r\n\r\n"
        )

        async def scenario():
            return await protocol.read_http_request(
                await _reader_for(raw)
            )

        request = _run(scenario())
        assert request.method == "GET"
        assert request.path == "/sensor/connect"
        assert request.query == {
            "type": "temperature", "x": "3", "mode": "poll",
        }
        assert request.header("host") == "gw"
        assert request.wants_websocket

    def test_body_read_by_content_length(self):
        raw = (
            b"POST /x HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd"
        )

        async def scenario():
            return await protocol.read_http_request(
                await _reader_for(raw)
            )

        request = _run(scenario())
        assert request.method == "POST"
        assert request.body == b"abcd"

    def test_garbage_returns_none(self):
        async def scenario():
            return await protocol.read_http_request(
                await _reader_for(b"\x00\x01 nonsense, no terminator")
            )

        assert _run(scenario()) is None

    def test_http_response_shape(self):
        raw = protocol.http_response(404, b'{"error":"not found"}')
        head, body = raw.split(b"\r\n\r\n", 1)
        assert head.startswith(b"HTTP/1.1 404 Not Found")
        assert b"Content-Length: 21" in head
        assert b"Connection: close" in head
        assert body == b'{"error":"not found"}'


class TestFrames:
    @pytest.mark.parametrize("size", [0, 5, 125, 126, 300, 70_000])
    @pytest.mark.parametrize("mask", [False, True])
    def test_encode_decode_all_length_forms(self, size, mask):
        payload = bytes(range(256)) * (size // 256 + 1)
        payload = payload[:size]
        frame = protocol.ws_encode(
            payload,
            opcode=protocol.OP_BINARY,
            mask=mask,
            rng=random.Random(7),
        )
        assert _run(_decode(frame)) == (protocol.OP_BINARY, payload)

    def test_text_round_trip(self):
        frame = protocol.ws_encode('{"type":"reading","value":20.5}')
        opcode, payload = _run(_decode(frame))
        assert opcode == protocol.OP_TEXT
        assert payload == b'{"type":"reading","value":20.5}'

    def test_masked_frame_is_masked_on_the_wire(self):
        payload = b"sensitive"
        frame = protocol.ws_encode(
            payload, mask=True, rng=random.Random(3)
        )
        assert payload not in frame  # masked bytes differ from payload
        assert _run(_decode(frame))[1] == payload

    def test_seeded_masks_replay(self):
        a = protocol.ws_encode(b"x", mask=True, rng=random.Random(5))
        b = protocol.ws_encode(b"x", mask=True, rng=random.Random(5))
        assert a == b

    def test_close_frame_returns_none(self):
        frame = protocol.ws_encode(b"", opcode=protocol.OP_CLOSE)
        assert _run(_decode(frame)) is None

    def test_eof_returns_none(self):
        assert _run(_decode(b"")) is None

    def test_ping_returned_to_caller(self):
        frame = protocol.ws_encode(b"hb", opcode=protocol.OP_PING)
        assert _run(_decode(frame)) == (protocol.OP_PING, b"hb")

    def test_fragmented_message_reassembled(self):
        # Hand-build TEXT(FIN=0) + CONT(FIN=1): 0x01 = text, no FIN.
        first = bytes([0x01, 3]) + b"abc"
        final = bytes([0x80 | protocol.OP_CONT, 3]) + b"def"
        assert _run(_decode(first + final)) == (
            protocol.OP_TEXT, b"abcdef",
        )

    def test_oversized_message_rejected(self):
        huge = protocol.MAX_WS_MESSAGE_BYTES + 1
        header = bytes([0x80 | protocol.OP_BINARY, 127]) + huge.to_bytes(
            8, "big"
        )
        assert _run(_decode(header)) is None


# -- property tests over the frame parsers --------------------------------

LENGTH_EDGES = [0, 1, 125, 126, 127, 65535, 65536]
OPCODES = [protocol.OP_TEXT, protocol.OP_BINARY, protocol.OP_PING,
           protocol.OP_PONG]


def _payload(size: int, seed: int) -> bytes:
    return random.Random(seed).randbytes(size)


async def _decode_bounded(data: bytes, **kwargs):
    """Decode with a deadline: a parser that waits on a closed stream
    hangs, and the deadline turns that into a test failure."""
    return await asyncio.wait_for(
        protocol.ws_read_message(await _reader_for(data), **kwargs),
        timeout=5.0,
    )


class TestFrameProperties:
    @given(
        size=st.one_of(
            st.sampled_from(LENGTH_EDGES), st.integers(0, 400)
        ),
        seed=st.integers(0, 2**32 - 1),
        opcode=st.sampled_from(OPCODES),
        mask=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_encode_read_round_trip(self, size, seed, opcode, mask):
        if opcode in (protocol.OP_PING, protocol.OP_PONG):
            # RFC 6455 section 5.5: a longer control frame is a protocol
            # error (TestProtocolErrors), not a message.
            size = min(size, protocol.MAX_CONTROL_PAYLOAD)
        payload = _payload(size, seed)
        frame = protocol.ws_encode(
            payload, opcode=opcode, mask=mask, rng=random.Random(seed)
        )
        assert _run(_decode_bounded(frame)) == (opcode, payload)

    @given(
        size=st.sampled_from(LENGTH_EDGES),
        seed=st.integers(0, 2**32 - 1),
        mask=st.booleans(),
    )
    @settings(max_examples=20, deadline=None)
    def test_close_round_trip(self, size, seed, mask):
        size = min(size, protocol.MAX_CONTROL_PAYLOAD)  # a control frame
        payload = _payload(size, seed)
        frame = protocol.ws_encode(
            payload, opcode=protocol.OP_CLOSE, mask=mask,
            rng=random.Random(seed),
        )
        assert _run(_decode_bounded(frame)) is None
        assert _run(_decode_bounded(frame, include_close=True)) == (
            protocol.OP_CLOSE, payload,
        )

    @given(
        size=st.one_of(
            st.sampled_from(LENGTH_EDGES), st.integers(0, 300)
        ),
        seed=st.integers(0, 2**32 - 1),
        mask=st.booleans(),
        cut=st.floats(0.0, 1.0, exclude_max=True),
    )
    @settings(max_examples=80, deadline=None)
    def test_truncated_stream_ends_in_none(self, size, seed, mask, cut):
        frame = protocol.ws_encode(
            _payload(size, seed), opcode=protocol.OP_BINARY, mask=mask,
            rng=random.Random(seed),
        )
        truncated = frame[: int(cut * len(frame))]
        assert _run(_decode_bounded(truncated)) is None

    @given(data=st.binary(max_size=64))
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_bytes_never_raise(self, data):
        result = _run(_decode_bounded(data))
        assert result is None or (
            isinstance(result, tuple) and isinstance(result[1], bytes)
        )

    @given(data=st.binary(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_parse_close_on_arbitrary_bytes(self, data):
        code, reason = protocol.ws_parse_close(data)
        assert isinstance(reason, str)
        if len(data) < 2:
            assert (code, reason) == (None, "")
        else:
            assert code == int.from_bytes(data[:2], "big")

    @given(
        code=st.integers(1000, 4999),
        reason=st.text(max_size=40),
    )
    @settings(max_examples=50, deadline=None)
    def test_close_payload_round_trip(self, code, reason):
        payload = protocol.ws_close_payload(code, reason)
        assert protocol.ws_parse_close(payload) == (code, reason)


class TestFrameRegressions:
    """Examples the properties above found, kept as fixed cases."""

    def test_stream_ending_inside_extended_length(self):
        frame = protocol.ws_encode(b"x" * 200, opcode=protocol.OP_BINARY)
        assert _run(_decode_bounded(frame[:3])) is None  # 1 of 2 length bytes

    def test_stream_ending_inside_mask_key(self):
        frame = protocol.ws_encode(
            b"abc", mask=True, rng=random.Random(1)
        )
        assert _run(_decode_bounded(frame[:4])) is None  # 2 of 4 key bytes

    def test_fragments_may_not_exceed_the_message_bound(self, monkeypatch):
        # Each fragment is under the bound; the reassembled message is not.
        monkeypatch.setattr(protocol, "MAX_WS_MESSAGE_BYTES", 8)
        first = bytes([protocol.OP_TEXT, 5]) + b"abcde"
        final = bytes([0x80 | protocol.OP_CONT, 5]) + b"fghij"
        assert _run(_decode_bounded(first + final)) is None
        within = bytes([0x80 | protocol.OP_CONT, 3]) + b"fgh"
        assert _run(_decode_bounded(first + within)) == (
            protocol.OP_TEXT, b"abcdefgh",
        )


def _frame(opcode: int, payload: bytes, *, fin: bool = True) -> bytes:
    """One unmasked frame with a free FIN bit (``ws_encode`` always
    sets it)."""
    head = bytes([(0x80 if fin else 0x00) | opcode])
    n = len(payload)
    if n < 126:
        return head + bytes([n]) + payload
    if n < 1 << 16:
        return head + bytes([126]) + n.to_bytes(2, "big") + payload
    return head + bytes([127]) + n.to_bytes(8, "big") + payload


async def _read_all(data: bytes, state, **kwargs):
    """Every read of one stream through one state, until ``None``."""
    reader = await _reader_for(data)
    out = []
    while True:
        message = await asyncio.wait_for(
            protocol.ws_read_message(reader, state=state, **kwargs),
            timeout=5.0,
        )
        if message is None:
            return out
        out.append(message)


class TestInterleavedControlFrames:
    def test_ping_between_fragments_keeps_the_message(self):
        data = (
            _frame(protocol.OP_TEXT, b"abc", fin=False)
            + _frame(protocol.OP_PING, b"hb")
            + _frame(protocol.OP_CONT, b"def", fin=False)
            + _frame(protocol.OP_PONG, b"")
            + _frame(protocol.OP_CONT, b"ghi")
        )
        state = protocol.WsReadState()
        assert _run(_read_all(data, state)) == [
            (protocol.OP_PING, b"hb"),
            (protocol.OP_PONG, b""),
            (protocol.OP_TEXT, b"abcdefghi"),
        ]
        assert state.failure is None

    def test_masked_fragments_around_a_ping(self):
        rng = random.Random(4)

        def masked(opcode, payload, fin=True):
            frame = bytearray(
                protocol.ws_encode(payload, opcode=opcode, mask=True, rng=rng)
            )
            if not fin:
                frame[0] &= 0x7F
            return bytes(frame)

        data = (
            masked(protocol.OP_BINARY, b"\x00\x01", fin=False)
            + masked(protocol.OP_PING, b"p")
            + masked(protocol.OP_CONT, b"\x02")
        )
        assert _run(_read_all(data, protocol.WsReadState())) == [
            (protocol.OP_PING, b"p"),
            (protocol.OP_BINARY, b"\x00\x01\x02"),
        ]


class TestProtocolErrors:
    """Each of these fails the connection with 1002 instead of being
    read as a message."""

    def _fails(self, data: bytes) -> None:
        state = protocol.WsReadState()
        assert _run(_read_all(data, state)) == []
        assert state.failure == protocol.CLOSE_PROTOCOL_ERROR

    def test_close_code_value(self):
        assert protocol.CLOSE_PROTOCOL_ERROR == 1002

    def test_control_frame_over_125_bytes(self):
        self._fails(_frame(protocol.OP_PING, b"x" * 300))
        self._fails(_frame(protocol.OP_PONG, b"x" * 126))
        self._fails(_frame(protocol.OP_CLOSE, b"\x03\xe8" + b"x" * 124))

    def test_control_frame_at_125_bytes_is_fine(self):
        state = protocol.WsReadState()
        data = _frame(protocol.OP_PING, b"x" * 125)
        assert _run(_read_all(data, state)) == [
            (protocol.OP_PING, b"x" * 125)
        ]
        assert state.failure is None

    def test_fragmented_control_frame(self):
        self._fails(_frame(protocol.OP_PING, b"hb", fin=False))

    @pytest.mark.parametrize("opcode", [0x3, 0x7, 0xB, 0xF])
    def test_reserved_opcode(self, opcode):
        self._fails(_frame(opcode, b"abc"))

    @pytest.mark.parametrize(
        "opcode", [protocol.OP_TEXT, protocol.OP_BINARY]
    )
    def test_new_message_inside_a_fragmented_one(self, opcode):
        self._fails(
            _frame(protocol.OP_TEXT, b"abc", fin=False)
            + _frame(opcode, b"def")
        )

    def test_continuation_with_nothing_to_continue(self):
        self._fails(_frame(protocol.OP_CONT, b"abc"))

    def test_clean_stream_sets_no_failure(self):
        state = protocol.WsReadState()
        data = _frame(protocol.OP_TEXT, b"a") + _frame(protocol.OP_BINARY, b"b")
        assert _run(_read_all(data, state)) == [
            (protocol.OP_TEXT, b"a"),
            (protocol.OP_BINARY, b"b"),
        ]
        assert state.failure is None


def _unmask_per_byte(payload: bytes, key: bytes) -> bytes:
    """RFC 6455 section 5.3, as written: octet i XOR key octet i mod 4."""
    return bytes(b ^ key[i % 4] for i, b in enumerate(payload))


class TestUnmask:
    @given(
        size=st.one_of(
            st.sampled_from(LENGTH_EDGES), st.integers(0, 600)
        ),
        seed=st.integers(0, 2**32 - 1),
        key=st.binary(min_size=4, max_size=4),
    )
    @settings(max_examples=120, deadline=None)
    def test_equals_the_per_byte_definition(self, size, seed, key):
        payload = _payload(size, seed)
        unmasked = protocol.ws_unmask(payload, key)
        assert unmasked == _unmask_per_byte(payload, key)
        assert protocol.ws_unmask(unmasked, key) == payload

    def test_encode_masks_with_the_helper(self):
        frame = protocol.ws_encode(
            b"payload", mask=True, rng=random.Random(9)
        )
        key, masked = frame[2:6], frame[6:]
        assert masked == _unmask_per_byte(b"payload", key)
