"""End-to-end ingestion gateway tests over real localhost sockets.

The acceptance path of PR 8: WebSocket devices connect to
``/sensor/connect``, push readings, the **unmodified**
:class:`repro.middleware.rounds.ZoneRoundDriver` runs real sensing
rounds on the wall clock, and the query frontend serves the resulting
ZoneEstimates over plain HTTP.
"""

import asyncio
import json
import random

import pytest

from repro.gateway import protocol
from repro.gateway.loadgen import LoadGenerator
from repro.gateway.server import (
    LATENCY_WINDOW_ROUNDS,
    GatewayConfig,
    IngestionGateway,
)
from repro.middleware.rounds import ZoneRoundOutcome

W = H = 4
PERIOD_S = 0.25


@pytest.fixture
def gateway():
    gw = IngestionGateway(
        GatewayConfig(
            zone_width=W, zone_height=H, period_s=PERIOD_S, seed=7
        )
    )
    yield gw
    gw.clock.close()


async def _http_get(port: int, path: str) -> tuple[int, dict]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode("latin-1")
    )
    await writer.drain()
    raw = await reader.read()  # Connection: close bounds it
    writer.close()
    head, body = raw.split(b"\r\n\r\n", 1)
    return int(head.split()[1]), json.loads(body)


class TestHttpFrontend:
    def test_endpoints_before_any_device(self, gateway):
        async def scenario():
            await gateway.start()
            port = gateway.port
            status, health = await _http_get(port, "/healthz")
            assert status == 200 and health["ok"] is True
            status, latest = await _http_get(port, "/zones/latest")
            assert status == 200
            assert latest == {"round": None, "rounds_completed": 0}
            status, truth = await _http_get(port, "/field/truth")
            assert status == 200
            assert truth["sensor"] == "temperature"
            assert len(truth["grid"]) == H
            assert len(truth["grid"][0]) == W
            status, stats = await _http_get(port, "/stats")
            assert status == 200
            assert stats["devices"] == 0
            assert stats["transport"]["deferred"] is True
            status, _ = await _http_get(port, "/nope")
            assert status == 404
            await gateway.stop()

        gateway.clock.run_until_complete(scenario())


class TestDeviceRoundTrip:
    def test_stream_device_feeds_a_round(self, gateway):
        async def scenario():
            await gateway.start()
            port = gateway.port
            rng = random.Random(11)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            await protocol.ws_client_handshake(
                reader, writer,
                "/sensor/connect?x=1&y=2&mode=stream&id=t1",
                rng=rng,
            )
            opcode, payload = await protocol.ws_read_message(reader)
            joined = json.loads(payload)
            assert joined["type"] == "joined"
            assert joined["node_id"] == "gw/nc0/t1"
            assert joined["cell"] == 1 * H + 2
            assert gateway.nanocloud.broker.members["gw/nc0/t1"] == (
                joined["cell"]
            )

            # Push a reading, then sit through rounds answering pings
            # and counting commands until an estimate lands.
            writer.write(
                protocol.ws_encode(
                    '{"type":"reading","value":21.5,"noise_std":0.4}',
                    mask=True, rng=rng,
                )
            )
            await writer.drain()
            commands = 0
            deadline = gateway.clock.now + 10 * PERIOD_S
            while (
                gateway.driver.rounds_completed < 2
                and gateway.clock.now < deadline
            ):
                try:
                    message = await asyncio.wait_for(
                        protocol.ws_read_message(reader),
                        timeout=PERIOD_S,
                    )
                except asyncio.TimeoutError:
                    continue
                if message is None:
                    break
                opcode, payload = message
                if opcode == protocol.OP_PING:
                    writer.write(
                        protocol.ws_encode(
                            payload, opcode=protocol.OP_PONG,
                            mask=True, rng=rng,
                        )
                    )
                elif opcode == protocol.OP_TEXT:
                    if json.loads(payload).get("type") == "command":
                        commands += 1
            assert gateway.driver.rounds_completed >= 2
            assert commands >= 1
            node = gateway.sessions["gw/nc0/t1"].node
            assert node.readings_received == 1
            assert node.commands_answered >= 1

            status, latest = await _http_get(port, "/zones/latest")
            assert status == 200
            assert latest["rounds_completed"] >= 2
            assert len(latest["field"]) == H
            assert latest["estimates"][0]["reports_ok"] >= 1

            # Disconnect: the member must churn out everywhere.
            writer.write(
                protocol.ws_encode(
                    b"", opcode=protocol.OP_CLOSE, mask=True, rng=rng
                )
            )
            await writer.drain()
            writer.close()
            await asyncio.sleep(0.1)
            assert "gw/nc0/t1" not in gateway.sessions
            assert "gw/nc0/t1" not in gateway.nanocloud.nodes
            assert "gw/nc0/t1" not in gateway.nanocloud.broker.members
            await gateway.stop()

        gateway.clock.run_until_complete(scenario())

    def test_bad_mode_rejected(self, gateway):
        async def scenario():
            await gateway.start()
            port = gateway.port
            status, body = await _http_get(
                port, "/sensor/connect?mode=teleport"
            )
            # Not an upgrade request -> routed as plain HTTP -> 404;
            # an upgrade with a bad mode is refused with 400.
            assert status == 404 or "error" in body
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            with pytest.raises(ConnectionError):
                await protocol.ws_client_handshake(
                    reader, writer, "/sensor/connect?mode=teleport"
                )
            writer.close()
            await gateway.stop()

        gateway.clock.run_until_complete(scenario())


class TestLoadGenerator:
    def test_seeded_fleet_drives_rounds(self, gateway):
        async def scenario():
            await gateway.start()
            port = gateway.port
            load = LoadGenerator(
                "127.0.0.1", port,
                n_clients=20, rate_hz=4.0,
                zone_width=W, zone_height=H, seed=3,
            )
            report = await load.run(1.5)
            status, stats = await _http_get(port, "/stats")
            await gateway.stop()
            return report, status, stats

        report, status, stats = gateway.clock.run_until_complete(
            scenario()
        )
        assert report.connected == 20
        assert report.failures == 0
        assert report.frames_sent >= 20
        assert report.commands_seen >= 1
        assert status == 200
        assert stats["devices_joined"] == 20
        assert stats["frames_in"] >= report.frames_sent
        assert stats["rounds_completed"] >= 2
        assert stats["round_latency_p50_s"] > 0.0
        assert stats["round_latency_p99_s"] >= stats["round_latency_p50_s"]
        assert stats["transport"]["messages"] > 0


class TestLatencyWindow:
    def test_latency_state_is_a_bounded_window(self, gateway):
        # More rounds than the window holds, each with a distinct
        # latency; stale re-serves never enter the window.
        n = LATENCY_WINDOW_ROUNDS
        rounds = n + 300
        for i in range(rounds):
            for stale in (False, True):
                gateway.driver.on_complete(
                    ZoneRoundOutcome(
                        zone_id=0, result=None, started_at=10.0,
                        completed_at=10.0 + 1e-3 * (i + 1), index=i,
                        stale=stale,
                    )
                )
        assert len(gateway.latencies_s) == n
        stats = gateway.stats()
        assert stats["round_latency_window"] == n
        window = [1e-3 * (i + 1) for i in range(rounds - n, rounds)]
        assert stats["round_latency_p50_s"] == pytest.approx(
            window[int(0.50 * n)]
        )
        assert stats["round_latency_p99_s"] == pytest.approx(
            window[int(0.99 * n)]
        )
        # The oldest rounds have left: a lifetime p50 would be far lower.
        assert stats["round_latency_p50_s"] > 1e-3 * rounds / 2
