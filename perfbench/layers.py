"""The layer calls the traced runs wrap, and the per-layer metrics.

Layers are the program's packages: ``sim`` (population, mega),
``network`` (bus, frames; the gateway's ``AsyncioTransport`` inherits
``MessageBus.send``, so its traffic is ``network.bus``), ``core`` (robust, omp,
reconstruct), ``middleware`` (nanocloud, broker, localcloud, storage)
and ``gateway`` (protocol, streams, server).  Every ``*_s``, ``calls``,
``bytes``, ``rows``, ``frames``, ``lost`` and ``rows_rejected`` figure
is a mean per round of the traced pass.  Times are inclusive span
times, except ``middleware.broker.collect_round_s``, which is self time
(the broker's collect span minus the bus sends and node work it
drives).
"""

from __future__ import annotations

import numpy as np

from spans import Target, percentile, self_times

#: (metric, unit) in the order they are printed.
PER_LAYER: list[tuple[str, str]] = [
    ("core.robust.s", "s"),
    ("core.robust.calls", "count"),
    ("core.robust.zone_p50_ms", "ms"),
    ("core.robust.zone_p99_ms", "ms"),
    ("core.robust.rows_rejected", "count"),
    ("core.robust.reject_precision", "ratio"),
    ("core.robust.reject_recall", "ratio"),
    ("core.omp.calls", "count"),
    ("core.omp.fits_per_zone", "count"),
    ("core.reconstruct.s", "s"),
    ("core.reconstruct.calls", "count"),
    ("sim.population.tick_s", "s"),
    ("sim.population.sense_round_s", "s"),
    ("sim.population.update_trust_s", "s"),
    ("network.frames.encode_s", "s"),
    ("network.frames.decode_s", "s"),
    ("network.frames.bytes", "bytes"),
    ("network.bus.send_calls", "count"),
    ("network.bus.send_s", "s"),
    ("network.bus.bytes", "bytes"),
    ("network.bus.lost", "count"),
    ("middleware.nanocloud.prepare_round_s", "s"),
    ("middleware.broker.collect_round_s", "s"),
    ("middleware.broker.solve_round_s", "s"),
    ("middleware.broker.solve_round_p99_ms", "ms"),
    ("middleware.broker.finalize_round_s", "s"),
    ("middleware.localcloud.finish_round_s", "s"),
    ("middleware.storage.log_readings_s", "s"),
    ("middleware.storage.rows", "count"),
    ("gateway.protocol.ws_read_message_s", "s"),
    ("gateway.protocol.http_response_s", "s"),
    ("gateway.streams.parse_device_frame_s", "s"),
    ("gateway.streams.handle_device_frame_s", "s"),
    ("gateway.streams.frames", "count"),
    ("gateway.server.latest_estimate_s", "s"),
    ("phase.collect_s", "s"),
    ("phase.solve_s", "s"),
    ("phase.finalize_s", "s"),
    ("phase.other_s", "s"),
    ("generator.late_p99_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
]


def _bus_send(args, kwargs, delivered):
    return {"network.bus.bytes": args[1].size_bytes, "network.bus.lost": not delivered}


def _rows_rejected(args, kwargs, fit):
    return {"core.robust.rows_rejected": fit.rejected_rows.size}


def _trust_scoring(afflicted: np.ndarray | None):
    """Score each zone's trim verdicts against the afflicted node set."""

    def count(args, kwargs, _result):
        ids = np.asarray(args[1], dtype=np.int64)
        rejected = np.asarray(args[2], dtype=bool)
        bad = afflicted[ids] if afflicted is not None else np.zeros(ids.size, bool)
        return {
            "trust.rejected": rejected.sum(),
            "trust.afflicted": bad.sum(),
            "trust.true_rejections": (rejected & bad).sum(),
        }

    return count


def targets(afflicted: np.ndarray | None = None) -> list[Target]:
    """Every wrapped call; ``afflicted`` masks the faulty mega node ids."""
    return [
        Target("sim.population.tick", "repro.sim.population", "NodePopulation.tick"),
        Target("sim.population.sense_round", "repro.sim.population", "NodePopulation.sense_round"),
        Target(
            "sim.population.update_trust", "repro.sim.population",
            "NodePopulation.update_trust", _trust_scoring(afflicted),
        ),
        Target(
            "network.frames.encode", "repro.network.frames", "encode_zone_report",
            lambda a, k, msg: {"network.frames.bytes": msg.size_bytes},
        ),
        Target("network.frames.decode", "repro.network.frames", "decode_zone_report"),
        Target("network.bus.send", "repro.network.bus", "MessageBus.send", _bus_send),
        Target("core.robust", "repro.core.robust", "robust_reconstruct", _rows_rejected),
        Target("core.omp", "repro.core.omp", "omp"),
        Target("core.reconstruct", "repro.core.reconstruction", "reconstruct"),
        Target(
            "middleware.nanocloud.prepare_round", "repro.middleware.nanocloud",
            "NanoCloud.prepare_round",
        ),
        Target("middleware.broker.collect_round", "repro.middleware.broker", "Broker.collect_round"),
        Target("middleware.broker.solve_round", "repro.middleware.broker", "Broker.solve_round"),
        Target("middleware.broker.finalize_round", "repro.middleware.broker", "Broker.finalize_round"),
        Target(
            "middleware.localcloud.finish_round", "repro.middleware.localcloud",
            "LocalCloud.finish_round",
        ),
        Target(
            "middleware.storage.log_readings", "repro.middleware.storage",
            "DataStore.log_readings", lambda a, k, rows: {"middleware.storage.rows": rows},
        ),
        Target("gateway.protocol.ws_read_message", "repro.gateway.protocol", "ws_read_message"),
        Target("gateway.protocol.http_response", "repro.gateway.protocol", "http_response"),
        Target("gateway.streams.parse_device_frame", "repro.gateway.streams", "parse_device_frame"),
        Target(
            "gateway.streams.handle_device_frame", "repro.gateway.streams",
            "GatewayNode.handle_device_frame", lambda a, k, r: {"gateway.streams.frames": 1},
        ),
        Target("gateway.server.latest_estimate", "repro.gateway.server", "IngestionGateway.latest_estimate"),
    ]


def per_layer(
    spans: dict,
    rounds: int,
    *,
    phase_of: dict[str, str] | None = None,
    round_walls: list[float] | None = None,
    late_p99_ms: float = 0.0,
    overhead_ratio: float = 1.0,
) -> dict[str, float]:
    """Per-round layer metrics from one traced pass's exported spans.

    ``phase_of`` maps the name of a *top-level* span (one with no traced
    parent) to collect/solve/finalize; ``round_walls`` are the traced
    rounds' wall times, and whatever part of them no mapped span covers
    is ``phase.other_s``.
    """
    rounds = max(rounds, 1)
    names = spans["names"]
    busy = spans["busy"]
    own = self_times(spans)
    counters = spans["counters"]
    total: dict[str, float] = {}
    own_total: dict[str, float] = {}
    samples: dict[str, list[float]] = {}
    calls: dict[str, int] = {}
    for idx, name in enumerate(names):
        if spans["rounds"][idx] < 0:
            continue
        total[name] = total.get(name, 0.0) + busy[idx]
        own_total[name] = own_total.get(name, 0.0) + own[idx]
        samples.setdefault(name, []).append(busy[idx])
        calls[name] = calls.get(name, 0) + 1

    def per_round(name: str) -> float:
        return total.get(name, 0.0) / rounds

    def count(key: str) -> float:
        return counters.get(key, 0.0) / rounds

    robust_calls = calls.get("core.robust", 0)
    rejected = counters.get("trust.rejected", 0.0)
    afflicted = counters.get("trust.afflicted", 0.0)
    true_rej = counters.get("trust.true_rejections", 0.0)
    out = {
        "core.robust.s": per_round("core.robust"),
        "core.robust.calls": robust_calls / rounds,
        "core.robust.zone_p50_ms": 1e3 * percentile(samples.get("core.robust", []), 0.50),
        "core.robust.zone_p99_ms": 1e3 * percentile(samples.get("core.robust", []), 0.99),
        "core.robust.rows_rejected": count("core.robust.rows_rejected"),
        "core.robust.reject_precision": true_rej / rejected if rejected else 1.0,
        "core.robust.reject_recall": true_rej / afflicted if afflicted else 1.0,
        "core.omp.calls": calls.get("core.omp", 0) / rounds,
        "core.omp.fits_per_zone": (
            calls.get("core.omp", 0) / robust_calls if robust_calls else 0.0
        ),
        "core.reconstruct.s": per_round("core.reconstruct"),
        "core.reconstruct.calls": calls.get("core.reconstruct", 0) / rounds,
        "sim.population.tick_s": per_round("sim.population.tick"),
        "sim.population.sense_round_s": per_round("sim.population.sense_round"),
        "sim.population.update_trust_s": per_round("sim.population.update_trust"),
        "network.frames.encode_s": per_round("network.frames.encode"),
        "network.frames.decode_s": per_round("network.frames.decode"),
        "network.frames.bytes": count("network.frames.bytes"),
        "network.bus.send_calls": calls.get("network.bus.send", 0) / rounds,
        "network.bus.send_s": per_round("network.bus.send"),
        "network.bus.bytes": count("network.bus.bytes"),
        "network.bus.lost": count("network.bus.lost"),
        "middleware.nanocloud.prepare_round_s": per_round("middleware.nanocloud.prepare_round"),
        "middleware.broker.collect_round_s": (
            own_total.get("middleware.broker.collect_round", 0.0) / rounds
        ),
        "middleware.broker.solve_round_s": per_round("middleware.broker.solve_round"),
        "middleware.broker.solve_round_p99_ms": 1e3 * percentile(
            samples.get("middleware.broker.solve_round", []), 0.99
        ),
        "middleware.broker.finalize_round_s": per_round("middleware.broker.finalize_round"),
        "middleware.localcloud.finish_round_s": per_round("middleware.localcloud.finish_round"),
        "middleware.storage.log_readings_s": per_round("middleware.storage.log_readings"),
        "middleware.storage.rows": count("middleware.storage.rows"),
        "gateway.protocol.ws_read_message_s": per_round("gateway.protocol.ws_read_message"),
        "gateway.protocol.http_response_s": per_round("gateway.protocol.http_response"),
        "gateway.streams.parse_device_frame_s": per_round("gateway.streams.parse_device_frame"),
        "gateway.streams.handle_device_frame_s": per_round("gateway.streams.handle_device_frame"),
        "gateway.streams.frames": count("gateway.streams.frames"),
        "gateway.server.latest_estimate_s": per_round("gateway.server.latest_estimate"),
        "generator.late_p99_ms": late_p99_ms,
        "trace.overhead_ratio": overhead_ratio,
    }
    phases = {"collect": 0.0, "solve": 0.0, "finalize": 0.0}
    if phase_of:
        for idx, name in enumerate(names):
            top = spans["parents"][idx] < 0 and spans["rounds"][idx] >= 0
            if top and name in phase_of:
                phases[phase_of[name]] += busy[idx]
    accounted = sum(phases.values())
    for phase, seconds in phases.items():
        out[f"phase.{phase}_s"] = seconds / rounds
    out["phase.other_s"] = (
        (sum(round_walls) - accounted) / rounds if round_walls else 0.0
    )
    return out
