"""The transport refactor changes nothing: SimTransport == frozen bus.

PR 8 split transport out of ``repro.network.bus`` behind the
backend-agnostic :class:`repro.network.transport.Transport` protocol.
The sim backend, :class:`repro.network.transport.SimTransport`, must be
the pre-refactor bus *bit for bit*: this module property-tests paired
seeded deployments — one on the frozen pre-refactor oracle
(:mod:`tests.oracles.bus`, moved verbatim out of ``src``), one on
``SimTransport`` — through full event-driven sensing rounds with link
latency, channel loss and bounded-inbox backpressure, and requires
identical estimates and identical loss accounting.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fields.generators import smooth_field
from repro.middleware.api import SenseDroid
from repro.middleware.config import BrokerConfig, HierarchyConfig
from repro.network.bus import MessageBus
from repro.network.links import WIFI
from repro.network.message import Message, MessageKind
from tests.oracles.bus import MessageBus as ReferenceMessageBus
from repro.network.transport import SimTransport, Transport
from repro.sensors.base import Environment
from repro.sim.clock import SimClock


def _deployment(bus_cls, seed):
    """One seeded two-zone deployment on the given bus class; runs
    three event-driven rounds with latency, loss and backpressure."""
    gen = np.random.default_rng(seed)
    truth = smooth_field(
        16, 8, cutoff=0.2, amplitude=4.0, offset=20.0,
        rng=gen.integers(2**31),
    )
    env = Environment(fields={"temperature": truth})
    transport = bus_cls(
        loss_rate=0.05,
        seed=seed + 1,
        inbox_capacity=6,
        drop_policy="drop-newest",
    )
    system = SenseDroid(
        env,
        hierarchy_config=HierarchyConfig(
            zones_x=2, zones_y=1, nodes_per_nanocloud=10
        ),
        broker_config=BrokerConfig(),
        transport=transport,
        rng=gen.integers(2**31),
    )
    clock = SimClock()
    transport.attach_clock(clock, "link")
    outcomes = []
    drivers = system.hierarchy.async_drivers(
        env, clock, default_period_s=30.0, on_complete=outcomes.append
    )
    for zone_id in sorted(drivers):
        drivers[zone_id].start(until=90.0)
    clock.run_until(100.0)
    return transport, outcomes


def _outcomes_identical(a, b) -> bool:
    if (
        a.zone_id != b.zone_id
        or a.started_at != b.started_at
        or a.latency_s != b.latency_s
        or a.partial != b.partial
    ):
        return False
    if (a.result is None) != (b.result is None):
        return False
    if a.result is None:
        return True
    if not np.array_equal(a.result.field.grid, b.result.field.grid):
        return False
    for ea, eb in zip(a.result.nc_estimates, b.result.nc_estimates):
        if not np.array_equal(
            ea.reconstruction.x_hat, eb.reconstruction.x_hat
        ):
            return False
        if not np.array_equal(ea.plan.locations, eb.plan.locations):
            return False
        if (
            ea.planned_m != eb.planned_m
            or ea.reports_ok != eb.reports_ok
            or ea.reports_refused != eb.reports_refused
            or ea.commands_lost != eb.commands_lost
            or ea.reports_lost != eb.reports_lost
            or ea.retries_used != eb.retries_used
        ):
            return False
    return True


class TestSimTransportBitIdentity:
    """The Hypothesis pin: SimTransport == ReferenceMessageBus."""

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=5, deadline=None)
    def test_paired_deployments_identical(self, seed):
        bus_ref, outcomes_ref = _deployment(ReferenceMessageBus, seed)
        bus_sim, outcomes_sim = _deployment(SimTransport, seed)

        assert len(outcomes_ref) == len(outcomes_sim) > 0
        for a, b in zip(outcomes_ref, outcomes_sim):
            assert _outcomes_identical(a, b)

        # Loss accounting identical per reason (channel loss and
        # bounded-inbox backpressure must both replay bit-exactly).
        assert dict(bus_ref.stats.losses_by_reason) == dict(
            bus_sim.stats.losses_by_reason
        )
        assert bus_ref.stats.messages == bus_sim.stats.messages
        assert bus_ref.stats.bytes == bus_sim.stats.bytes
        assert dict(bus_ref.stats.by_kind) == dict(bus_sim.stats.by_kind)
        assert bus_ref.stats.latency_sum_s == bus_sim.stats.latency_sum_s

    def test_channel_loss_exercised(self):
        # The pin above is only meaningful if the scenario actually
        # sheds messages; guard against a silently-too-gentle setup.
        bus, _ = _deployment(SimTransport, seed=3)
        losses = bus.stats.losses_by_reason
        assert losses.get("iid-loss", 0) > 0

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_backpressure_accounting_identical(self, seed):
        # Bounded inboxes shed identically on both backends: blast a
        # 2-deep endpoint through a lossy channel and compare every
        # loss bucket, including the distinct "backpressure" reason.
        def blast(bus_cls):
            bus = bus_cls(loss_rate=0.2, seed=seed, inbox_capacity=2)
            bus.register("src", WIFI)
            bus.register("sink", WIFI)
            for i in range(25):
                bus.send(
                    Message(
                        kind=MessageKind.SENSE_REPORT,
                        source="src",
                        destination="sink",
                        payload={"i": i},
                    ),
                    strict=False,
                )
            return bus

        ref = blast(ReferenceMessageBus)
        sim = blast(SimTransport)
        assert ref.stats.losses_by_reason.get("backpressure", 0) > 0
        assert dict(ref.stats.losses_by_reason) == dict(
            sim.stats.losses_by_reason
        )
        assert ref.stats.messages == sim.stats.messages
        assert ref.endpoint("sink").pending() == sim.endpoint(
            "sink"
        ).pending()


class TestSimTransportIsPureAlias:
    def test_adds_no_behaviour(self):
        # A SimTransport that overrode anything could drift from the
        # bus it claims to be; the subclass must stay empty.
        assert SimTransport.__slots__ == ()
        assert SimTransport.__mro__[1] is MessageBus
        overridden = {
            name
            for name, value in vars(SimTransport).items()
            if callable(value) or isinstance(value, property)
        }
        assert overridden == set()

    def test_satisfies_transport_protocol(self):
        assert isinstance(SimTransport(), Transport)
        assert isinstance(MessageBus(), Transport)

    def test_send_and_stats_round_trip(self):
        transport = SimTransport()
        transport.register("a", WIFI)
        transport.register("b", WIFI)
        message = Message(
            kind=MessageKind.SENSE_COMMAND,
            source="a",
            destination="b",
            payload={"grid_index": 5},
        )
        assert transport.send(message)
        assert transport.endpoint("b").pending() == 1
        snapshot = transport.stats_snapshot()
        assert snapshot["messages"] == 1
        assert snapshot["endpoints"] == 2
