"""Tests for the star topology."""

import math

import pytest

from repro.errors import ConfigurationError, RoutingError
from repro.net.engine import Simulator
from repro.net.flownet import FlowNetwork
from repro.net.topology import StarTopology, per_link_loss


@pytest.fixture()
def topo():
    topology = StarTopology()
    topology.add_node("a", 128_000.0, latency_to_hub=0.0125, loss_rate=0.02)
    topology.add_node("b", 256_000.0, latency_to_hub=0.0125, loss_rate=0.02)
    return topology


class TestConstruction:
    def test_nodes_registered(self, topo):
        assert len(topo) == 2
        assert "a" in topo
        assert topo.node("a").name == "a"

    def test_duplicate_name_rejected(self, topo):
        with pytest.raises(ConfigurationError):
            topo.add_node("a", 1.0)

    def test_unknown_node_lookup(self, topo):
        with pytest.raises(RoutingError):
            topo.node("zzz")

    def test_node_has_up_and_down_links(self, topo):
        node = topo.node("a")
        assert node.uplink.name == "a:up"
        assert node.downlink.name == "a:down"
        assert node.bandwidth == 128_000.0
        assert node.latency_to_hub == pytest.approx(0.0125)


class TestRouting:
    def test_route_is_uplink_then_downlink(self, topo):
        a, b = topo.node("a"), topo.node("b")
        route = topo.route(a, b)
        assert route == [a.uplink, b.downlink]

    def test_route_to_self_rejected(self, topo):
        a = topo.node("a")
        with pytest.raises(RoutingError):
            topo.route(a, a)

    def test_route_with_foreign_node_rejected(self, topo):
        other = StarTopology()
        foreign = other.add_node("x", 1.0)
        with pytest.raises(RoutingError):
            topo.route(topo.node("a"), foreign)

    def test_one_way_latency(self, topo):
        a, b = topo.node("a"), topo.node("b")
        assert topo.one_way_latency(a, b) == pytest.approx(0.025)

    def test_one_way_latency_is_the_route_sum_exactly(self):
        topology = StarTopology()
        a = topology.add_node("a", 1.0, latency_to_hub=0.1)
        b = topology.add_node("b", 1.0, latency_to_hub=0.2)
        assert topology.one_way_latency(a, b) == sum(
            link.latency for link in topology.route(a, b)
        )

    def test_one_way_latency_checks_the_pair(self, topo):
        a = topo.node("a")
        foreign = StarTopology().add_node("x", 1.0)
        with pytest.raises(RoutingError):
            topo.one_way_latency(a, a)
        with pytest.raises(RoutingError):
            topo.one_way_latency(a, foreign)


class TestPerLinkLoss:
    def test_compounds_back_to_path_loss(self):
        per_link = per_link_loss(0.05)
        path = 1.0 - (1.0 - per_link) ** 2
        assert path == pytest.approx(0.05)

    def test_paper_value(self):
        assert per_link_loss(0.05) == pytest.approx(
            1.0 - math.sqrt(0.95)
        )

    def test_zero(self):
        assert per_link_loss(0.0) == 0.0

    def test_invalid_rejected(self):
        with pytest.raises(ConfigurationError):
            per_link_loss(1.0)


class TestBandwidthChanges:
    def test_set_node_bandwidth_updates_both_directions(self, topo):
        sim = Simulator()
        network = FlowNetwork(sim)
        node = topo.node("a")
        topo.set_node_bandwidth(network, node, 999_000.0)
        assert node.uplink.capacity == 999_000.0
        assert node.downlink.capacity == 999_000.0

    def test_set_bandwidth_reshapes_active_flows(self, topo):
        sim = Simulator()
        network = FlowNetwork(sim)
        a, b = topo.node("a"), topo.node("b")
        ends = []
        network.start_flow(
            topo.route(a, b), 256_000.0,
            on_complete=lambda f: ends.append(sim.now),
        )
        # a's uplink is the 128 kB/s bottleneck; raise it mid-flight.
        sim.schedule(
            1.0, lambda: topo.set_node_bandwidth(network, a, 256_000.0)
        )
        sim.run()
        # 128 kB in 1 s, then 128 kB at 256 kB/s = 0.5 s.
        assert ends == [pytest.approx(1.5)]
