"""The object-per-node population path, kept as the array core's oracle.

:class:`repro.sim.population.NodePopulation` advances every node with
the vectorized mobility kernels and draws each zone's sensing noise in
one chunk.  This module is the same simulation one node at a time: real
:class:`repro.sensors.base.NodeState` objects stepped through the
scalar mobility models, and one scalar ``standard_normal`` per report.
Both run on the population's own streams (``_mob_rng`` and the per-zone
``_zone_rngs``), so a same-seeded pair must match bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.mobility.models import (
    MODE_NAMES,
    GaussMarkov,
    RandomWaypoint,
    StaticPlacement,
)
from repro.network.frames import ZoneReportFrame
from repro.sensors.base import NodeState
from repro.sim.population import NodePopulation

__all__ = ["ObjectStepper", "scalar_sense_round"]


class ObjectStepper:
    """Steps a population's nodes as ``NodeState`` objects.

    Built from the population's arrays after construction; each
    :meth:`tick` steps every state through the scalar mobility model,
    drawing from the population's ``_mob_rng``, and writes positions,
    velocities and modes back into the arrays.
    """

    def __init__(self, population: NodePopulation) -> None:
        self.population = population
        cfg = population.config
        model: StaticPlacement | RandomWaypoint | GaussMarkov
        if cfg.mobility == "static":
            model = StaticPlacement(cfg.width, cfg.height)
        elif cfg.mobility == "random_waypoint":
            model = RandomWaypoint(
                cfg.width,
                cfg.height,
                speed_range=cfg.speed_range,
                pause_range=cfg.pause_range,
            )
            model._rng = population._mob_rng  # share the population stream
        else:
            model = GaussMarkov(
                cfg.width,
                cfg.height,
                mean_speed=cfg.mean_speed,
                alpha=cfg.alpha,
                speed_std=cfg.speed_std,
                heading_std=cfg.heading_std,
            )
            model._rng = population._mob_rng
        self.model = model
        self.states: list[NodeState] = []
        for i in range(cfg.n_nodes):
            state = NodeState(
                x=float(population.x[i]),
                y=float(population.y[i]),
                speed=float(population.speed[i]),
                heading=float(population.heading[i]),
                mode=MODE_NAMES[int(population.mode[i])],
            )
            if cfg.mobility == "random_waypoint":
                # Mirror the pre-drawn initial leg so the lazy _new_leg
                # branch never fires and the streams stay aligned.
                state._rwp_target = (
                    float(population.target_x[i]),
                    float(population.target_y[i]),
                )
                state._rwp_pause = float(population.pause_next[i])
                state._rwp_speed = float(population.leg_speed[i])
                state._rwp_pause_left = 0.0
            self.states.append(state)

    def tick(self) -> None:
        """Advance every node by ``config.dt`` and refresh zone ids."""
        pop = self.population
        dt = pop.config.dt
        for i, state in enumerate(self.states):
            self.model.step(state, dt)
            pop.x[i] = state.x
            pop.y[i] = state.y
            pop.speed[i] = state.speed
            pop.heading[i] = state.heading
            pop.mode[i] = MODE_NAMES.index(state.mode)
        pop.zone_id = pop._zones_from_positions()


def scalar_sense_round(
    population: NodePopulation,
    truth: np.ndarray,
    *,
    round_index: int,
    reports_per_zone: int,
    fault_injector=None,
    now: float = 0.0,
) -> list[ZoneReportFrame]:
    """:meth:`NodePopulation.sense_round` with one scalar noise draw per
    report instead of the batched chunk."""
    truth = np.asarray(truth, dtype=float)
    frames: list[ZoneReportFrame] = []
    for zone in range(population.config.n_zones):
        members = population.zone_members(zone)
        if members.size == 0:
            continue
        zrng = population._zone_rngs[zone]
        m = min(reports_per_zone, members.size)
        picked = members[zrng.choice(members.size, size=m, replace=False)]
        gi, gj = population.grid_indices(picked)
        truth_vals = truth[gi, gj]
        stds = population.noise_std[picked].copy()
        values = np.empty(m)
        for k in range(m):
            values[k] = truth_vals[k] + stds[k] * zrng.standard_normal()
        if fault_injector is not None:
            for k in range(m):
                name = population.node_name(int(picked[k]))
                if fault_injector.is_faulty(name):
                    values[k], stds[k] = fault_injector.corrupt(
                        name, float(values[k]), float(stds[k]), now
                    )
        frames.append(
            ZoneReportFrame(
                zone_id=zone,
                round_index=round_index,
                node_ids=picked,
                values=values,
                noise_stds=stds,
            )
        )
    return frames
