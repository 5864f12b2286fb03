"""Zone reconstruction across a deployment: shared bases, reference pin.

Every same-shaped broker solves against one registry basis.  The seed's
reference arm (:mod:`tests.oracles.substitution`: the reference loops
and a private dense basis per broker, patched in with ``monkeypatch``)
gives the same global field as the shipped solvers over a full
``sense_field`` round.
"""

import numpy as np

from repro.fields import urban_temperature_field
from repro.middleware.api import SenseDroid
from repro.middleware.config import BrokerConfig, HierarchyConfig
from repro.sensors.base import Environment
from tests.oracles.substitution import (
    use_private_dense_bases,
    use_reference_solvers,
)


def _deploy(broker_config, *, seed=123, zones=2, nodes=24):
    truth = urban_temperature_field(32, 32, rng=7)
    env = Environment(fields={"temperature": truth})
    return SenseDroid(
        env,
        hierarchy_config=HierarchyConfig(
            zones_x=zones, zones_y=zones, nodes_per_nanocloud=nodes
        ),
        broker_config=broker_config,
        rng=seed,
    )


def _brokers(system):
    return [
        nc.broker
        for lc in system.hierarchy.localclouds.values()
        for nc in lc.nanoclouds
    ]


class TestSharedBasisRegistry:
    def test_same_shaped_brokers_share_one_basis_object(self):
        brokers = _brokers(_deploy(BrokerConfig()))
        assert len(brokers) >= 2
        first = brokers[0]._basis()
        for broker in brokers[1:]:
            assert broker._basis() is first

    def test_dense_registry_basis_when_operators_disabled(self):
        brokers = _brokers(_deploy(BrokerConfig(operator_basis=False)))
        a, b = brokers[0]._basis(), brokers[1]._basis()
        assert isinstance(a, np.ndarray)
        assert a is b
        assert not a.flags.writeable

    def test_reference_engine_builds_private_dense_bases(self, monkeypatch):
        # The PERF-ROUND baseline arm: every broker builds and owns its
        # dense basis, as the seed did, instead of sharing the registry's.
        brokers = _brokers(_deploy(BrokerConfig()))
        use_private_dense_bases(monkeypatch, brokers)
        a, b = brokers[0]._basis(), brokers[1]._basis()
        assert isinstance(a, np.ndarray)
        assert a is not b
        assert np.array_equal(a, b)
        assert a.flags.writeable  # private, not a frozen registry view


class TestReferenceEngineEndToEnd:
    def test_reference_round_matches_fast_round(self, monkeypatch):
        fast = _deploy(BrokerConfig()).sense_field()
        system = _deploy(BrokerConfig())
        use_reference_solvers(monkeypatch)
        use_private_dense_bases(monkeypatch, _brokers(system))
        ref = system.sense_field()
        assert np.allclose(ref.field.grid, fast.field.grid, atol=1e-8)
