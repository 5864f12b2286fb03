"""The three in-process workloads: mega-clean, mega-byzantine, hierarchy-dense.

A run repeats *episodes* until its time is spent (at least three, so
set-up is sampled several times).  An episode builds a fresh deployment
from the workload seed (timed as set-up) and drives the same fixed
sequence of rounds, so every episode of every run with that seed does
identical work and must end in byte-identical estimates.

There is no reader besides the caller: a round call returns the
estimate, so each round's wall time is both its round time and the
latency of the caller's query for a fresh estimate (see ``passes.py``).
"""

from __future__ import annotations

import gc
import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

import layers
from passes import Outcome, Pass, end_to_end
from spans import Tracer

MIN_EPISODES = 3


@dataclass
class SimPass(Pass):
    #: SHA-256 of each episode's final estimate.
    digests: set[str] = field(default_factory=set)


# -- deployments ---------------------------------------------------------


class MegaDeployment:
    """``MegaSimulation`` at MEGA-SCALE's 25k step (or a small test size)."""

    ROUNDS = 4

    def __init__(self, seed: int, small: bool, byzantine: bool) -> None:
        from repro.sensors.faults import Adversarial, SensorFaultInjector, afflict_fraction
        from repro.sim.mega import MegaConfig, MegaSimulation
        from repro.sim.population import PopulationConfig

        nodes, edge, zones = (2_000, 64, 2) if small else (25_000, 128, 4)
        self.sim = MegaSimulation(
            MegaConfig(
                population=PopulationConfig(
                    n_nodes=nodes, width=edge, height=edge, zones_x=zones,
                    zones_y=zones, mobility="gauss_markov", seed=seed,
                ),
                reports_per_zone=128,
                sparsity=16,
            )
        )
        self.afflicted = np.zeros(nodes, dtype=bool)
        if byzantine:
            # ROB-BYZ's attacker: plausible offset, understated claimed std.
            injector = SensorFaultInjector()
            names = [self.sim.population.node_name(i) for i in range(nodes)]
            hit = afflict_fraction(
                injector, names, 0.10,
                lambda _nid: Adversarial(offset=9.0, claimed_std=0.01), seed=seed,
            )
            self.afflicted[[int(n.rsplit("-", 1)[1]) for n in hit]] = True
            self.sim.sensor_fault_injector = injector
        self.n_zones = zones * zones

    def run_round(self) -> tuple[int, int]:
        """One round; returns (reports fused, zones unsolved or stale)."""
        record = self.sim.run_round()
        bad = self.n_zones - record.zones_solved + record.zones_stale
        return record.reports_delivered, bad

    def estimate(self) -> np.ndarray:
        return self.sim.estimate

    def truth(self) -> np.ndarray:
        return self.sim.truth

    def close(self) -> None:
        self.sim.shutdown()


class HierarchyDeployment:
    """``SenseDroid`` over 8x8 zones of 128-node NanoClouds (8,192 nodes)."""

    ROUNDS = 3

    def __init__(self, seed: int, small: bool) -> None:
        from repro.fields.generators import urban_temperature_field
        from repro.middleware.api import SenseDroid
        from repro.middleware.config import BrokerConfig, HierarchyConfig
        from repro.sensors.base import Environment

        edge, zones, per_nc = (32, 2, 32) if small else (128, 8, 128)
        self._truth = urban_temperature_field(edge, edge, rng=seed)
        self.sd = SenseDroid(
            Environment(fields={"temperature": self._truth}),
            hierarchy_config=HierarchyConfig(
                zones_x=zones, zones_y=zones, nodes_per_nanocloud=per_nc
            ),
            broker_config=BrokerConfig(),
            rng=seed,
        )
        self.afflicted = None
        self.n_zones = zones * zones
        self.last = None

    def run_round(self) -> tuple[int, int]:
        self.last = self.sd.sense_field()
        results = self.last.zone_results
        reports = sum(e.m for r in results.values() for e in r.nc_estimates)
        bad = self.n_zones - len(results) + sum(
            1 for r in results.values()
            if any(e.staleness_rounds > 0 for e in r.nc_estimates)
        )
        return reports, bad

    def estimate(self) -> np.ndarray:
        return self.last.field.grid

    def truth(self) -> np.ndarray:
        return self._truth.grid

    def close(self) -> None:
        self.sd.close()


@dataclass(frozen=True)
class SimWorkload:
    name: str
    build: object  # (seed, small) -> deployment
    phase_of: dict[str, str]
    #: Highest acceptable median rmse at full and at small size.
    rmse_ceiling: tuple[float, float]
    faulty: bool = False
    #: Set-up-only builds per episode, where a build is cheap enough
    #: that a steadier set-up median costs little.
    extra_setups: int = 0


_MEGA_PHASES = {
    "sim.population.tick": "collect",
    "sim.population.sense_round": "collect",
    "network.frames.encode": "collect",
    "network.bus.send": "collect",
    "network.frames.decode": "collect",
    "core.robust": "solve",
    "sim.population.update_trust": "finalize",
}
_HIERARCHY_PHASES = {
    "middleware.nanocloud.prepare_round": "collect",
    "middleware.broker.collect_round": "collect",
    "middleware.broker.solve_round": "solve",
    "middleware.localcloud.finish_round": "finalize",
    "middleware.storage.log_readings": "finalize",
}

WORKLOADS = {
    "mega-clean": SimWorkload(
        "mega-clean", lambda s, small: MegaDeployment(s, small, False), _MEGA_PHASES,
        (1.0, 1.5), extra_setups=3,
    ),
    "mega-byzantine": SimWorkload(
        "mega-byzantine", lambda s, small: MegaDeployment(s, small, True), _MEGA_PHASES,
        (1.0, 1.5), faulty=True, extra_setups=3,
    ),
    "hierarchy-dense": SimWorkload(
        "hierarchy-dense", lambda s, small: HierarchyDeployment(s, small), _HIERARCHY_PHASES,
        (0.6, 1.5),
    ),
}


# -- measurement ---------------------------------------------------------


def _episode(workload: SimWorkload, seed: int, small: bool, out: SimPass,
             tracer: Tracer | None, plant=None) -> None:
    clock = time.perf_counter
    gc.collect()
    start = clock()
    dep = workload.build(seed, small)
    out.setup_s.append(clock() - start)
    for _ in range(workload.extra_setups):
        start = clock()
        workload.build(seed, small).close()
        out.setup_s.append(clock() - start)
    try:
        for _ in range(dep.ROUNDS):
            if tracer is not None:
                tracer.round_id = len(out.round_s)
            out.attempted += 1
            start = clock()
            try:
                reports, bad = dep.run_round()
            except Exception as exc:  # a raising round is a failed operation
                out.failed += 1
                out.problems.append(f"round raised {exc!r}")
                return
            finally:
                if tracer is not None:
                    tracer.round_id = -1
            wall = clock() - start
            out.round_s.append(wall)
            out.query_s.append(wall)
            if plant is not None:
                plant(dep)
            out.reports += reports
            out.failed += bad
            if bad:
                out.problems.append(f"{bad} zone(s) unsolved or stale")
            estimate = dep.estimate()
            out.rmse.append(float(np.sqrt(np.mean((estimate - dep.truth()) ** 2))))
        out.digests.add(hashlib.sha256(np.ascontiguousarray(dep.estimate()).tobytes()).hexdigest())
    finally:
        dep.close()


def measure(workload: SimWorkload, seed: int, seconds: float, *, small: bool = False,
            tracer: Tracer | None = None, plant=None) -> SimPass:
    """Episodes of the workload until ``seconds`` have passed."""
    out = SimPass()
    # Warm-up, not measured: the process's first round pays one-off lazy
    # initialisation (imports, BLAS start-up, the basis registry) that a
    # long-lived deployment pays once.
    warm = workload.build(seed, small)
    try:
        warm.run_round()
    except Exception as exc:  # a raising round is a failed operation
        out.attempted, out.failed = 1, 1
        out.problems.append(f"warm-up round raised {exc!r}")
        return out
    finally:
        warm.close()
    start = time.perf_counter()
    episodes = 0
    while True:
        _episode(workload, seed, small, out, tracer, plant)
        episodes += 1
        if out.problems and not out.round_s:
            break
        # Start another episode only if at least half of it fits.
        elapsed = time.perf_counter() - start
        if episodes >= MIN_EPISODES and elapsed + 0.5 * elapsed / episodes > seconds:
            break
    return out


def run(name: str, seed: int, seconds: float, trace: bool, *, small: bool = False,
        plant=None) -> Outcome:
    """One benchmark run of a sim workload."""
    workload = WORKLOADS[name]
    plain = measure(workload, seed, seconds, small=small, plant=plant)
    outcome = Outcome([plain], workload.rmse_ceiling[small])
    if trace and plain.round_s:
        afflicted = None
        if workload.faulty:
            probe = workload.build(seed, small)
            afflicted = probe.afflicted
            probe.close()
        tracer = Tracer()
        tracer.round_id = -1
        tracer.install(layers.targets(afflicted))
        try:
            traced = measure(workload, seed, seconds, small=small, tracer=tracer, plant=plant)
        finally:
            tracer.uninstall()
        outcome.passes.append(traced)
        if traced.round_s:
            outcome.per_layer = layers.per_layer(
                tracer.export(),
                len(traced.round_s),
                phase_of=workload.phase_of,
                round_walls=traced.round_s,
                overhead_ratio=(
                    end_to_end(traced)["round_p50_s"] / end_to_end(plain)["round_p50_s"]
                ),
            )
    digests = set().union(*(p.digests for p in outcome.passes))
    if len(digests) > 1:
        outcome.problems.append(
            f"final estimates differ across episodes/passes of seed {seed}: {len(digests)} digests"
        )
    return outcome
