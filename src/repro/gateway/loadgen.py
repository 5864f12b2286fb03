"""Seeded WebSocket load generator: thousands of concurrent devices.

Replays mobility+sensor traces against a running
:class:`repro.gateway.server.IngestionGateway`: each client connects to
``/sensor/connect``, parks on a deterministic cell, and pushes readings
sampled from the ground-truth field plus seeded Gaussian noise at its
configured rate.  Clients are plain asyncio coroutines speaking the
masked client frames of :mod:`repro.gateway.protocol`, so the gateway
sees byte-exact real WebSocket traffic; every random draw (mask keys,
noise, phase jitter, backoff jitter) comes from per-client
``random.Random(seed)`` streams, so a run replays exactly.

With ``reconnect=True`` each client survives connection loss the way a
real device SDK would: capped exponential backoff with seeded jitter,
then a fresh dial — and with ``resume=True`` it replays the resume
token from its ``joined`` frame so the gateway reattaches it to its
parked session (node identity, trust, cached reading) instead of
admitting a stranger.  A close frame carrying 1013 ("try again later",
the gateway's admission shed) is honoured with a full backoff step
before redialling.  Both default off: the calm-path byte stream is
identical to the PR-8 generator.

This module is on reprolint RPR002's sanctioned realtime-module
allowlist (see ``docs/invariants.md``).
"""

from __future__ import annotations

import asyncio
import json
import random
from dataclasses import dataclass

import numpy as np

from . import protocol

__all__ = ["LoadGenerator", "LoadReport"]


@dataclass
class LoadReport:
    """Aggregate outcome of one load-generation run."""

    clients: int
    connected: int
    failures: int
    frames_sent: int
    commands_seen: int
    duration_s: float
    #: Successful redials after a lost connection (reconnect mode).
    reconnects: int = 0
    #: Redials the gateway acknowledged with a ``resumed`` frame.
    resumes: int = 0
    #: Close frames carrying 1013 — admission sheds the fleet absorbed.
    shed_closes: int = 0

    @property
    def frames_per_s(self) -> float:
        return self.frames_sent / self.duration_s if self.duration_s else 0.0


class _ClientState:
    """Mutable per-client tallies shared between the pump and drain."""

    __slots__ = (
        "frames", "commands", "reconnects", "resumes", "shed_closes",
        "resume_token", "ever_connected", "closed",
    )

    def __init__(self) -> None:
        self.frames = 0
        self.commands = 0
        self.reconnects = 0
        self.resumes = 0
        self.shed_closes = 0
        self.resume_token: str | None = None
        self.ever_connected = False
        self.closed: asyncio.Event | None = None


class LoadGenerator:
    """Drives ``n_clients`` concurrent device streams at one gateway.

    Parameters
    ----------
    host / port:
        The gateway frontend.
    n_clients:
        Concurrent WebSocket devices.
    rate_hz:
        Per-client reading rate.
    truth:
        Ground-truth grid readings are sampled from; ``None`` fetches it
        from the gateway's ``/field/truth`` endpoint at run start.
    noise_std:
        Measurement noise each client adds to (and claims about) its
        readings.
    zone_width / zone_height:
        Zone geometry used to park clients cell-by-cell so the first
        ``width*height`` clients cover every cell.
    seed:
        Master seed; client ``i`` derives its own independent stream.
    connect_concurrency:
        Cap on simultaneous connection attempts (a thundering herd of
        thousands of TCP dials would spuriously fail).
    reconnect:
        Survive connection loss: redial with capped exponential backoff
        plus seeded jitter until the run's deadline.  Off (the
        default), a lost connection fails the client exactly as the
        seed generator did.
    resume:
        Replay the resume token from the ``joined`` frame on each
        redial so the gateway reattaches the parked session (requires
        the gateway's ``resume_enabled``); implies nothing without
        ``reconnect``.
    backoff_initial_s / backoff_max_s:
        The reconnect backoff ladder: delay doubles from the initial
        value, capped at the max, and every step is jittered by a
        seeded factor in [0.5, 1.5) to break fleet synchrony.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        n_clients: int,
        rate_hz: float = 2.0,
        truth: np.ndarray | None = None,
        noise_std: float = 0.5,
        zone_width: int = 8,
        zone_height: int = 8,
        seed: int = 0,
        connect_concurrency: int = 64,
        reconnect: bool = False,
        resume: bool = False,
        backoff_initial_s: float = 0.05,
        backoff_max_s: float = 1.0,
    ) -> None:
        if n_clients < 1:
            raise ValueError("n_clients must be positive")
        if rate_hz <= 0:
            raise ValueError("rate_hz must be positive")
        if backoff_initial_s <= 0 or backoff_max_s < backoff_initial_s:
            raise ValueError(
                "need 0 < backoff_initial_s <= backoff_max_s"
            )
        self.host = host
        self.port = port
        self.n_clients = n_clients
        self.rate_hz = rate_hz
        self.truth = truth
        self.noise_std = noise_std
        self.zone_width = zone_width
        self.zone_height = zone_height
        self.seed = seed
        self.reconnect = reconnect
        self.resume = resume
        self.backoff_initial_s = backoff_initial_s
        self.backoff_max_s = backoff_max_s
        self._gate = asyncio.Semaphore(connect_concurrency)

    async def run(self, duration_s: float) -> LoadReport:
        """Run every client for ``duration_s``; returns the aggregate."""
        truth = self.truth
        if truth is None:
            truth = await self._fetch_truth()
        truth = np.asarray(truth, dtype=float)
        results = await asyncio.gather(
            *(
                self._client(idx, truth, duration_s)
                for idx in range(self.n_clients)
            ),
            return_exceptions=True,
        )
        report = LoadReport(
            clients=self.n_clients,
            connected=0,
            failures=0,
            frames_sent=0,
            commands_seen=0,
            duration_s=duration_s,
        )
        for result in results:
            if isinstance(result, BaseException):
                report.failures += 1
                continue
            report.connected += 1
            report.frames_sent += result.frames
            report.commands_seen += result.commands
            report.reconnects += result.reconnects
            report.resumes += result.resumes
            report.shed_closes += result.shed_closes
        return report

    async def _fetch_truth(self) -> np.ndarray:
        reader, writer = await asyncio.open_connection(self.host, self.port)
        try:
            writer.write(
                f"GET /field/truth HTTP/1.1\r\nHost: {self.host}\r\n\r\n"
                .encode("latin-1")
            )
            await writer.drain()
            raw = await reader.read()  # Connection: close bounds it
        finally:
            writer.close()
        body = raw.split(b"\r\n\r\n", 1)[1]
        return np.asarray(json.loads(body)["grid"], dtype=float)

    # -- one device ----------------------------------------------------

    async def _client(
        self, idx: int, truth: np.ndarray, duration_s: float
    ) -> _ClientState:
        """One device: connect, stream, and (optionally) outlive faults."""
        rng = random.Random(self.seed * 1_000_003 + idx)
        cell = idx % (self.zone_width * self.zone_height)
        x = cell // self.zone_height
        y = cell % self.zone_height
        value_true = float(truth[y, x])
        base_path = (
            f"/sensor/connect?x={x}&y={y}&mode=stream&id=load{idx}"
        )
        state = _ClientState()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + duration_s
        period = 1.0 / self.rate_hz
        backoff = self.backoff_initial_s
        first_session = True
        while loop.time() < deadline:
            path = base_path
            if self.resume and state.resume_token:
                path += f"&resume={state.resume_token}"
            try:
                async with self._gate:
                    reader, writer = await asyncio.open_connection(
                        self.host, self.port
                    )
                    await protocol.ws_client_handshake(
                        reader, writer, path, rng=rng
                    )
            except (OSError, asyncio.IncompleteReadError) as exc:
                if not self.reconnect:
                    raise ConnectionError(f"client {idx} dial failed") from exc
                await asyncio.sleep(
                    min(backoff, self.backoff_max_s) * (0.5 + rng.random())
                )
                backoff = min(backoff * 2.0, self.backoff_max_s)
                continue
            if not first_session:
                state.reconnects += 1
            backoff = self.backoff_initial_s
            state.ever_connected = True
            clean = await self._stream_session(
                reader, writer, state, rng, value_true, period,
                deadline, jitter=first_session,
            )
            first_session = False
            if clean:
                break  # ran to the deadline; the close was ours
            if not self.reconnect:
                raise ConnectionError(f"client {idx} connection lost")
            await asyncio.sleep(
                min(backoff, self.backoff_max_s) * (0.5 + rng.random())
            )
            backoff = min(backoff * 2.0, self.backoff_max_s)
        if not state.ever_connected:
            raise ConnectionError(f"client {idx} never connected")
        return state

    async def _stream_session(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        state: _ClientState,
        rng: random.Random,
        value_true: float,
        period: float,
        deadline: float,
        *,
        jitter: bool,
    ) -> bool:
        """Stream readings on one connection; True = reached the deadline."""
        loop = asyncio.get_running_loop()
        closed = asyncio.Event()
        state.closed = closed

        async def drain_inbound() -> None:
            inbound = protocol.WsReadState()
            try:
                while True:
                    message = await protocol.ws_read_message(
                        reader, include_close=True, state=inbound
                    )
                    if message is None:
                        return
                    opcode, payload = message
                    if opcode == protocol.OP_CLOSE:
                        code, _reason = protocol.ws_parse_close(payload)
                        if code == protocol.CLOSE_TRY_AGAIN_LATER:
                            state.shed_closes += 1
                        return
                    if opcode == protocol.OP_PING:
                        writer.write(
                            protocol.ws_encode(
                                payload,
                                opcode=protocol.OP_PONG,
                                mask=True,
                                rng=rng,
                            )
                        )
                        continue
                    if opcode == protocol.OP_TEXT:
                        try:
                            frame = json.loads(payload)
                        except json.JSONDecodeError:
                            continue
                        kind = frame.get("type")
                        if kind == "command":
                            state.commands += 1
                        elif kind == "joined":
                            token = frame.get("resume")
                            if isinstance(token, str):
                                state.resume_token = token
                        elif kind == "resumed":
                            state.resumes += 1
            except (ConnectionError, asyncio.IncompleteReadError):
                pass
            finally:
                closed.set()

        drainer = asyncio.ensure_future(drain_inbound())
        clean = False
        try:
            # Phase jitter (first session only): desynchronise the fleet
            # so readings arrive spread over the period, not in a burst.
            if jitter:
                await asyncio.sleep(rng.uniform(0.0, period))
            while loop.time() < deadline and not closed.is_set():
                reading = {
                    "type": "reading",
                    "value": value_true + rng.gauss(0.0, self.noise_std),
                    "noise_std": self.noise_std,
                }
                writer.write(
                    protocol.ws_encode(
                        json.dumps(reading, separators=(",", ":")),
                        mask=True,
                        rng=rng,
                    )
                )
                await writer.drain()
                state.frames += 1
                await asyncio.sleep(period)
            clean = not closed.is_set()
        except (ConnectionError, OSError):
            clean = False
        finally:
            drainer.cancel()
            try:
                writer.write(
                    protocol.ws_encode(
                        protocol.ws_close_payload(protocol.CLOSE_NORMAL),
                        opcode=protocol.OP_CLOSE,
                        mask=True,
                        rng=rng,
                    )
                )
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            writer.close()
        return clean
