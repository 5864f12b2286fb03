"""Minimal HTTP/1.1 + WebSocket (RFC 6455) framing on asyncio streams.

The container ships no ``websockets``/``aiohttp``, so the gateway
speaks the protocols itself.  Scope is deliberately small: enough HTTP
to route a handful of GET endpoints and complete the WebSocket upgrade,
and the WebSocket frame subset real device streams use — text/binary
with client masking, ping/pong, close, and (rare) continuation frames.
Both server and client halves live here so the load generator exercises
the exact bytes a real device would send.

This module is on reprolint RPR002's sanctioned realtime-module
allowlist (see ``docs/invariants.md``).
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import random
from dataclasses import dataclass, field
from urllib.parse import parse_qsl, urlsplit

__all__ = [
    "HttpRequest",
    "read_http_request",
    "http_response",
    "websocket_accept_key",
    "ws_handshake_response",
    "ws_encode",
    "ws_unmask",
    "ws_read_message",
    "WsReadState",
    "ws_client_handshake",
    "ws_close_payload",
    "ws_parse_close",
    "OP_TEXT",
    "OP_BINARY",
    "OP_CLOSE",
    "OP_PING",
    "OP_PONG",
    "CLOSE_NORMAL",
    "CLOSE_GOING_AWAY",
    "CLOSE_PROTOCOL_ERROR",
    "CLOSE_POLICY_VIOLATION",
    "CLOSE_TRY_AGAIN_LATER",
]

#: RFC 6455 section 1.3: the fixed GUID concatenated to the client key.
_WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

OP_CONT = 0x0
OP_TEXT = 0x1
OP_BINARY = 0x2
OP_CLOSE = 0x8
OP_PING = 0x9
OP_PONG = 0xA

_DATA_OPCODES = (OP_CONT, OP_TEXT, OP_BINARY)
_CONTROL_OPCODES = (OP_CLOSE, OP_PING, OP_PONG)

#: RFC 6455 section 5.5: control frames carry at most 125 payload bytes.
MAX_CONTROL_PAYLOAD = 125

#: Upper bound on one WebSocket message (device frames are tiny JSON;
#: anything bigger is a broken or hostile peer).
MAX_WS_MESSAGE_BYTES = 1 << 20

_MAX_HEADER_BYTES = 16 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    503: "Service Unavailable",
    101: "Switching Protocols",
}

#: RFC 6455 section 7.4.1 status codes the gateway actually sends.
CLOSE_NORMAL = 1000
CLOSE_GOING_AWAY = 1001  # dead-peer / idle eviction
CLOSE_PROTOCOL_ERROR = 1002  # the peer broke RFC 6455 framing
CLOSE_POLICY_VIOLATION = 1008
CLOSE_TRY_AGAIN_LATER = 1013  # admission-shed: reconnect after backoff


@dataclass
class HttpRequest:
    """One parsed HTTP/1.1 request head (plus optional body)."""

    method: str
    target: str
    path: str
    query: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def header(self, name: str, default: str = "") -> str:
        return self.headers.get(name.lower(), default)

    @property
    def wants_websocket(self) -> bool:
        return (
            "websocket" in self.header("upgrade").lower()
            and "upgrade" in self.header("connection").lower()
        )


async def read_http_request(
    reader: asyncio.StreamReader,
) -> HttpRequest | None:
    """Parse one request from the stream; ``None`` on EOF/garbage."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except (
        asyncio.IncompleteReadError,
        asyncio.LimitOverrunError,
        ConnectionError,
    ):
        return None
    if len(head) > _MAX_HEADER_BYTES:
        return None
    try:
        lines = head.decode("latin-1").split("\r\n")
        method, target, _version = lines[0].split(" ", 2)
    except (UnicodeDecodeError, ValueError):
        return None
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    split = urlsplit(target)
    body = b""
    length = headers.get("content-length")
    if length is not None:
        try:
            n = int(length)
        except ValueError:
            return None
        if not 0 <= n <= _MAX_HEADER_BYTES:
            return None
        try:
            body = await reader.readexactly(n)
        except (asyncio.IncompleteReadError, ConnectionError):
            return None
    return HttpRequest(
        method=method.upper(),
        target=target,
        path=split.path,
        query=dict(parse_qsl(split.query)),
        headers=headers,
        body=body,
    )


def http_response(
    status: int,
    body: bytes | str = b"",
    *,
    content_type: str = "application/json",
) -> bytes:
    """Serialise one plain (non-upgrade) HTTP response."""
    if isinstance(body, str):
        body = body.encode("utf-8")
    reason = _REASONS.get(status, "OK")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body


# -- websocket handshake ---------------------------------------------------


def websocket_accept_key(client_key: str) -> str:
    """Sec-WebSocket-Accept for a client's Sec-WebSocket-Key."""
    digest = hashlib.sha1(
        (client_key + _WS_GUID).encode("latin-1")
    ).digest()
    return base64.b64encode(digest).decode("latin-1")


def ws_handshake_response(client_key: str) -> bytes:
    return (
        "HTTP/1.1 101 Switching Protocols\r\n"
        "Upgrade: websocket\r\n"
        "Connection: Upgrade\r\n"
        f"Sec-WebSocket-Accept: {websocket_accept_key(client_key)}\r\n"
        "\r\n"
    ).encode("latin-1")


async def ws_client_handshake(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    path: str,
    *,
    host: str = "gateway",
    rng: random.Random | None = None,
) -> None:
    """Send the upgrade request and verify the server's accept key.

    ``rng`` seeds the nonce (and later, frame masks) so load-generator
    byte streams replay deterministically; ``None`` uses an unseeded
    generator, which is fine for interactive clients.
    """
    rng = rng or random.Random()
    key = base64.b64encode(rng.randbytes(16)).decode("latin-1")
    writer.write(
        (
            f"GET {path} HTTP/1.1\r\n"
            f"Host: {host}\r\n"
            "Upgrade: websocket\r\n"
            "Connection: Upgrade\r\n"
            f"Sec-WebSocket-Key: {key}\r\n"
            "Sec-WebSocket-Version: 13\r\n"
            "\r\n"
        ).encode("latin-1")
    )
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    if " 101 " not in lines[0] + " ":
        raise ConnectionError(f"websocket upgrade refused: {lines[0]!r}")
    accept = ""
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "sec-websocket-accept":
            accept = value.strip()
    if accept != websocket_accept_key(key):
        raise ConnectionError("websocket accept key mismatch")


# -- websocket frames ------------------------------------------------------


def ws_close_payload(code: int, reason: str = "") -> bytes:
    """Close-frame payload: 2-byte status code + optional UTF-8 reason.

    RFC 6455 section 5.5.1 — the seed gateway dropped the TCP stream
    without ever sending a close frame; server-initiated disconnects now
    say *why* (``CLOSE_GOING_AWAY`` for dead-peer eviction,
    ``CLOSE_TRY_AGAIN_LATER`` for admission shedding) so clients can
    pick reconnect-now vs back-off.
    """
    if not 1000 <= code <= 4999:
        raise ValueError(f"close code {code} outside RFC 6455 range")
    return code.to_bytes(2, "big") + reason.encode("utf-8")


def ws_parse_close(payload: bytes) -> tuple[int | None, str]:
    """Decode a close-frame payload into ``(code, reason)``.

    An empty payload is legal (no code given); a malformed reason is
    replaced rather than raised — peers close with what they have.
    """
    if len(payload) < 2:
        return None, ""
    code = int.from_bytes(payload[:2], "big")
    return code, payload[2:].decode("utf-8", errors="replace")


def ws_encode(
    payload: bytes | str,
    *,
    opcode: int = OP_TEXT,
    mask: bool = False,
    rng: random.Random | None = None,
) -> bytes:
    """Encode one complete (FIN) WebSocket frame.

    Servers send unmasked (``mask=False``); clients MUST mask
    (``mask=True``) per RFC 6455 section 5.3 — ``rng`` supplies the
    masking key so client streams stay reproducible under a seed.
    """
    if isinstance(payload, str):
        payload = payload.encode("utf-8")
    header = bytearray([0x80 | (opcode & 0x0F)])
    mask_bit = 0x80 if mask else 0x00
    n = len(payload)
    if n < 126:
        header.append(mask_bit | n)
    elif n < 1 << 16:
        header.append(mask_bit | 126)
        header += n.to_bytes(2, "big")
    else:
        header.append(mask_bit | 127)
        header += n.to_bytes(8, "big")
    if not mask:
        return bytes(header) + payload
    key = (rng or random.Random()).randbytes(4)
    return bytes(header) + key + ws_unmask(payload, key)


def ws_unmask(payload: bytes, key: bytes) -> bytes:
    """XOR ``payload`` with the repeating 4-byte masking ``key``.

    RFC 6455 section 5.3; masking and unmasking are the same operation.
    One big-integer XOR instead of a per-byte loop, so a 1 MiB frame
    costs milliseconds on the event loop, not a tenth of a second.
    """
    n = len(payload)
    if n == 0:
        return b""
    stream = (key * (n // 4 + 1))[:n]
    return (
        int.from_bytes(payload, "little") ^ int.from_bytes(stream, "little")
    ).to_bytes(n, "little")


@dataclass
class WsReadState:
    """One connection's inbound reassembly state, kept across reads.

    RFC 6455 section 5.4 lets control frames arrive between the
    fragments of a message; :func:`ws_read_message` returns each one as
    it arrives, so the partial message has to outlive the call.
    ``failure`` is the close code the connection must be failed with
    once a read has returned ``None`` for a protocol error.
    """

    opcode: int | None = None
    parts: list[bytes] = field(default_factory=list)
    size: int = 0
    failure: int | None = None

    def fail(self) -> None:
        self.failure = CLOSE_PROTOCOL_ERROR


async def ws_read_message(
    reader: asyncio.StreamReader,
    *,
    include_close: bool = False,
    state: WsReadState | None = None,
) -> tuple[int, bytes] | None:
    """Read one complete message; ``None`` on EOF or a close frame.

    Reassembles continuation fragments and unmasks client frames.
    Control frames interleaved inside a fragmented message are returned
    to the caller in arrival order (the caller answers pings); pass the
    connection's ``state`` on every read so the partial message survives
    them.  A stream that ends anywhere inside a frame and a frame or a
    reassembled message longer than :data:`MAX_WS_MESSAGE_BYTES` end in
    ``None``.  So does a protocol error, which also sets
    ``state.failure`` to :data:`CLOSE_PROTOCOL_ERROR`: a reserved
    opcode, a control frame over 125 bytes or fragmented, a new
    TEXT/BINARY frame inside a fragmented message, or a continuation
    with nothing to continue.  Nothing is raised.

    ``include_close=True`` surfaces a close frame as ``(OP_CLOSE,
    payload)`` instead of folding it into ``None`` — resilient clients
    need the status code (:func:`ws_parse_close`) to distinguish an
    admission shed (1013, back off) from a normal goodbye.
    """
    if state is None:
        state = WsReadState()
    try:
        while True:
            b1, b2 = await reader.readexactly(2)
            fin = bool(b1 & 0x80)
            frame_op = b1 & 0x0F
            masked = bool(b2 & 0x80)
            length = b2 & 0x7F
            control = frame_op in _CONTROL_OPCODES
            if not control and frame_op not in _DATA_OPCODES:
                state.fail()  # reserved opcode
                return None
            if control and (not fin or length > MAX_CONTROL_PAYLOAD):
                state.fail()
                return None
            if length == 126:
                length = int.from_bytes(await reader.readexactly(2), "big")
            elif length == 127:
                length = int.from_bytes(await reader.readexactly(8), "big")
            if length > MAX_WS_MESSAGE_BYTES:
                return None
            key = await reader.readexactly(4) if masked else b""
            payload = await reader.readexactly(length)
            if masked:
                payload = ws_unmask(payload, key)
            if frame_op == OP_CLOSE:
                return (OP_CLOSE, payload) if include_close else None
            if control:
                return (frame_op, payload)
            if frame_op != OP_CONT:
                if state.opcode is not None:
                    state.fail()  # a new message inside a fragmented one
                    return None
                state.opcode = frame_op
            elif state.opcode is None:
                state.fail()  # continuation with nothing to continue
                return None
            state.parts.append(payload)
            state.size += length
            if state.size > MAX_WS_MESSAGE_BYTES:
                return None  # the bound is per message, not per frame
            if fin:
                message = (state.opcode, b"".join(state.parts))
                state.opcode, state.parts, state.size = None, [], 0
                return message
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
