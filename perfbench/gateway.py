"""gateway-live: a real-socket ``python -m repro.gateway`` under load.

The gateway serves one 32x32 zone with a fixed sensor every 4 cells and
a 0.1 s round period under a fixed gateway seed, so every run serves the
same field; the workload seed drives the load (device cell, reading
noise, WebSocket nonce and masks).  This process is
the load generator, with two connections' worth of clients on one
asyncio loop:

- one WebSocket device streaming readings **open loop** at 500/s; each
  frame is timed from when it was due, and a run whose p99 lateness
  exceeds ``LATE_BOUND_MS`` is invalid;
- one **closed-loop** HTTP reader polling ``/zones/latest`` (the
  gateway closes every HTTP connection after one response, so each
  query is a fresh connection, one at a time).

Round time and estimate freshness are measured from outside: the
reader's clock is aligned to the gateway's through the ``now`` field of
``/healthz`` (minimum-RTT probe), and a round's time is the aligned
time at which the reader first sees its index minus the round's
``started_at``.  The gateway's own ``completed_at``/``latency_s``
cannot be used: they are stamped before the synchronous solve runs.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from repro.gateway import protocol

import layers
from passes import Outcome, Pass, end_to_end

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HOST = "127.0.0.1"
RATE_HZ = 500
LATE_BOUND_MS = 50.0
#: Highest acceptable median rmse at full and at small size.
RMSE_CEILING = (2.0, 2.0)
SETUP_SAMPLES = 7
GATEWAY_SEED = 0
READY_TIMEOUT_S = 60.0
clock = time.monotonic


@dataclass
class GatewayPass(Pass):
    lateness_s: list[float] = field(default_factory=list)
    #: The gateway's own /stats round latency, kept only to show that it
    #: leaves out the solve (see README.md, "Findings").
    reported_latency_p50_s: float = 0.0


# -- process control -------------------------------------------------------


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind((HOST, 0))
        return int(sock.getsockname()[1])


def _gateway_args(port: int, small: bool) -> list[str]:
    edge, every = ("8", "2") if small else ("32", "4")
    return [
        "--host", HOST, "--port", str(port), "--zone-width", edge,
        "--zone-height", edge, "--infrastructure-every", every,
        "--period", "0.1", "--seed", str(GATEWAY_SEED),
    ]


async def _get(port: int, path: str) -> tuple[int, bytes]:
    """One HTTP GET on a fresh connection; (0, b"") when it fails."""
    try:
        reader, writer = await asyncio.open_connection(HOST, port)
    except OSError:
        return 0, b""
    try:
        writer.write(f"GET {path} HTTP/1.1\r\nHost: gateway\r\n\r\n".encode())
        data = await asyncio.wait_for(reader.read(), 10.0)
    except (OSError, asyncio.TimeoutError):
        return 0, b""
    finally:
        writer.close()
        with contextlib.suppress(OSError):
            await writer.wait_closed()
    head, _, body = data.partition(b"\r\n\r\n")
    try:
        return int(head.split(b" ", 2)[1]), body
    except (IndexError, ValueError):
        return 0, b""


class Gateway:
    """One gateway child process, started and waited on."""

    def __init__(self, workdir: Path, small: bool, core: int | None,
                 spans_out: Path | None = None):
        self.port = _free_port()
        args = _gateway_args(self.port, small)
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro.gateway", *args]
        else:
            cmd = [sys.executable, str(HERE / "gateway_child.py"), str(spans_out), *args]
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""))
        if core is not None:  # one core: more BLAS threads would only contend
            env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.log = workdir / f"gateway-{self.port}.log"
        started = clock()
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=log
            )
        if core is not None:
            os.sched_setaffinity(self.proc.pid, {core})
        try:
            self.setup_s = asyncio.run(self._ready()) - started
        except BaseException:
            self.stop()
            raise

    async def _ready(self) -> float:
        deadline = clock() + READY_TIMEOUT_S
        while clock() < deadline:
            if self.proc.poll() is not None:
                break
            status, _ = await _get(self.port, "/healthz")
            if status == 200:
                return clock()
            await asyncio.sleep(0.005)
        raise RuntimeError(f"gateway never became ready: {self.log.read_text()[-2000:]}")

    def stop(self) -> None:
        """SIGINT is the gateway's own clean shutdown; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


# -- load ------------------------------------------------------------------


def _zone_shaped(doc: object, edge: int) -> bool:
    """Does the body carry a round and an edge x edge field?"""
    if not isinstance(doc, dict) or doc.get("round") is None:
        return False
    grid = doc.get("field")
    return (
        isinstance(grid, list)
        and len(grid) == edge
        and all(isinstance(row, list) and len(row) == edge for row in grid)
    )


async def _stream(writer, frames: list[bytes], t0: float, out: GatewayPass) -> None:
    """Open-loop sender: frame k is due at t0 + k / RATE_HZ."""
    period = 1.0 / RATE_HZ
    k = 0
    while k < len(frames):
        now = clock()
        due = t0 + k * period
        if due > now:
            await asyncio.sleep(due - now)
            continue
        while k < len(frames) and t0 + k * period <= now:
            writer.write(frames[k])
            out.lateness_s.append(now - (t0 + k * period))
            k += 1
        await writer.drain()


async def _drain_device(reader) -> None:
    while await protocol.ws_read_message(reader) is not None:
        pass


async def _poll(port: int, end: float, offset: float, truth: np.ndarray,
                skip_round: int, out: GatewayPass, plant) -> None:
    """Closed-loop reader of ``/zones/latest`` until ``end``."""
    edge = truth.shape[0]
    last = skip_round
    while clock() < end:
        q0 = clock()
        status, body = await _get(port, "/zones/latest")
        q1 = clock()
        out.query_s.append(q1 - q0)
        out.attempted += 1
        try:
            doc = json.loads(body)
        except ValueError:
            doc = None
        if plant is not None and isinstance(doc, dict) and doc.get("field"):
            plant(doc)
        if status != 200 or not _zone_shaped(doc, edge):
            out.failed += 1
            continue
        index = int(doc["round"])
        if index <= last:
            continue
        last = index
        try:
            grid = np.asarray(doc["field"], dtype=float)
        except (TypeError, ValueError):
            out.failed += 1
            continue
        out.attempted += 1  # each new round is an operation too
        if doc.get("stale"):
            out.failed += 1
            out.problems.append(f"round {index} served stale")
        out.round_s.append(q1 + offset - float(doc["started_at"]))
        out.rmse.append(float(np.sqrt(np.mean((grid - truth) ** 2))))
        out.reports += sum(int(e["m"]) for e in doc.get("estimates", []))


async def _session(port: int, seed: int, seconds: float, out: GatewayPass, plant) -> None:
    # Align the reader's clock to the gateway's (minimum-RTT probe).
    probes = []
    for _ in range(20):
        c0 = clock()
        status, body = await _get(port, "/healthz")
        c1 = clock()
        if status == 200:
            probes.append((c1 - c0, float(json.loads(body)["now"]) - (c0 + c1) / 2))
    if not probes:
        raise RuntimeError("no /healthz answer for clock alignment")
    offset = min(probes)[1]
    _, body = await _get(port, "/field/truth")
    truth = np.asarray(json.loads(body)["grid"], dtype=float)
    edge = truth.shape[0]

    rng = random.Random(seed)
    x, y = edge // 2 + 1, edge // 3  # a fixed cell, so rmse does not depend on the seed
    noise = np.random.default_rng(seed).normal(0.0, 0.3, int(seconds * RATE_HZ))
    frames = [
        protocol.ws_encode(
            json.dumps({"type": "reading", "value": float(truth[y, x] + n), "noise_std": 0.3}),
            mask=True, rng=rng,
        )
        for n in noise
    ]
    reader, writer = await asyncio.open_connection(HOST, port)
    await protocol.ws_client_handshake(
        reader, writer, f"/sensor/connect?type=temperature&x={x}&y={y}&id=bench", rng=rng
    )
    drain = asyncio.create_task(_drain_device(reader))

    # Start the window once a first estimate exists; that round is not scored.
    current = None
    while current is None:
        status, body = await _get(port, "/zones/latest")
        current = json.loads(body).get("round") if status == 200 else None
        if current is None:
            await asyncio.sleep(0.02)
    t0 = clock()
    await asyncio.gather(
        _stream(writer, frames, t0, out),
        _poll(port, t0 + seconds, offset, truth, int(current), out, plant),
    )
    out.attempted += len(frames)
    await asyncio.sleep(0.3)  # let the gateway apply the last frames
    status, body = await _get(port, "/stats")
    stats = json.loads(body) if status == 200 else {}
    applied = int(stats.get("frames_in", 0))
    if applied != len(frames):
        out.failed += abs(len(frames) - applied)
        out.problems.append(f"gateway applied {applied} of {len(frames)} frames sent")
    if stats.get("rounds_failed", 0):
        out.problems.append(f"{stats['rounds_failed']} gateway round(s) failed")
    out.reported_latency_p50_s = float(stats.get("round_latency_p50_s", 0.0))
    writer.close()
    with contextlib.suppress(OSError):
        await writer.wait_closed()
    await drain


def _measure(seed: int, seconds: float, workdir: Path, small: bool, core: int | None, *,
             setups: int, spans_out: Path | None = None, plant=None) -> GatewayPass:
    out = GatewayPass()

    def setup_only(n: int) -> None:
        for _ in range(n):
            gw = Gateway(workdir, small, core)
            out.setup_s.append(gw.setup_s)
            gw.stop()

    # Set-up-only starts before and after the session, so the median
    # samples the host's speed at both ends of the run.
    before = (setups - 1) // 2
    setup_only(before)
    gw = Gateway(workdir, small, core, spans_out)
    out.setup_s.append(gw.setup_s)
    try:
        asyncio.run(_session(gw.port, seed, seconds, out, plant))
    finally:
        gw.stop()
    setup_only(setups - 1 - before)
    if not out.round_s:
        out.problems.append("the reader saw no new round")
    late = _late_p99_ms(out)
    if late > LATE_BOUND_MS:
        out.problems.append(f"invalid run: generator late p99 {late:.1f} ms > {LATE_BOUND_MS} ms")
    return out


def _late_p99_ms(p: GatewayPass) -> float:
    return 1e3 * float(np.percentile(p.lateness_s, 99)) if p.lateness_s else 0.0


def run(seed: int, seconds: float, trace: bool, *, small: bool = False, plant=None) -> Outcome:
    """One benchmark run of gateway-live."""
    workdir = Path(tempfile.mkdtemp(prefix=".run-", dir=HERE))
    cpus = sorted(os.sched_getaffinity(0))
    core = None
    if len(cpus) >= 2:
        # The gateway and the load generator get a core each, so neither
        # migrates onto the other's.
        core = cpus[-1]
        os.sched_setaffinity(0, {cpus[0]})
    try:
        setups = 1 if small else SETUP_SAMPLES
        plain = _measure(seed, seconds, workdir, small, core, setups=setups, plant=plant)
        outcome = Outcome([plain], RMSE_CEILING[small], record={
            "generator_late_p99_ms": _late_p99_ms(plain),
            "gateway_stats_round_latency_p50_ms": 1e3 * plain.reported_latency_p50_s,
            "rate_hz": RATE_HZ,
            "gateway_seed": GATEWAY_SEED,
            "gateway_core": core,
            "gateway_blas_threads": 1 if core is not None else None,
        })
        if trace and plain.round_s:
            spans_out = workdir / "spans.json"
            traced = _measure(seed, seconds, workdir, small, core, setups=1,
                              spans_out=spans_out, plant=plant)
            outcome.passes.append(traced)
            if traced.round_s:
                spans = json.loads(spans_out.read_text())
                # Per round the gateway solved over the traced child's
                # whole life, the same span of time as the spans.
                solved = spans["names"].count("middleware.localcloud.finish_round")
                outcome.per_layer = layers.per_layer(
                    spans,
                    solved,
                    late_p99_ms=_late_p99_ms(traced),
                    overhead_ratio=(
                        end_to_end(traced)["query_p50_ms"] / end_to_end(plain)["query_p50_ms"]
                    ),
                )
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(workdir, ignore_errors=True)
    return outcome
