"""Unit tests for network construction and the synthetic sensor fields."""

import pytest

from repro.geometry.shapes import Rect
from repro.geometry.vec import Vec2
from repro.net.field import (
    Hotspot,
    HotspotField,
    UniformField,
    fire_scenario_field,
)
from repro.net.network import NetworkConfig, build_network, uniform_positions
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStreams

from .conftest import line_positions, make_network


class TestNetworkConfig:
    def test_paper_defaults(self):
        config = NetworkConfig()
        assert config.n_nodes == 200
        assert config.region.width == pytest.approx(450.0)
        assert config.comm_range_m == pytest.approx(105.0)
        assert config.sensing_range_m == pytest.approx(50.0)
        assert config.bitrate_bps == pytest.approx(2e6)
        assert config.active_window_s == pytest.approx(0.1)

    def test_with_sleep_period(self):
        config = NetworkConfig().with_sleep_period(15.0)
        assert config.sleep_period_s == 15.0
        assert config.psm.beacon_interval_s == 15.0

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkConfig(n_nodes=0)
        with pytest.raises(ValueError):
            NetworkConfig(comm_range_m=-1.0)


class TestBuildNetwork:
    def test_uniform_positions_inside_region(self):
        config = NetworkConfig(n_nodes=50)
        positions = uniform_positions(config, RandomStreams(1))
        assert len(positions) == 50
        assert all(config.region.contains(p) for p in positions)

    def test_uniform_positions_reproducible(self):
        config = NetworkConfig(n_nodes=10)
        a = uniform_positions(config, RandomStreams(3))
        b = uniform_positions(config, RandomStreams(3))
        assert a == b

    def test_position_count_mismatch_rejected(self, sim):
        config = NetworkConfig(n_nodes=5)
        with pytest.raises(ValueError):
            build_network(sim, config, RandomStreams(1), positions=[Vec2(0, 0)])

    def test_neighbors_match_brute_force(self):
        """Neighbour lists and disk queries come from the channel's grid, the
        field's one static index: a node's neighbours *are* its static
        listeners, in their order, and a disk query is the grid's answer —
        on a small field and on the 600-node one."""
        for n_nodes, side in ((60, 300.0), (600, 450.0)):
            config = NetworkConfig(n_nodes=n_nodes, region=Rect.square(side))
            network = build_network(Simulator(), config, RandomStreams(7))
            channel = network.channel
            rc, rs = config.comm_range_m, config.sensing_range_m
            for node in network.nodes[:20]:
                expected = {
                    other.node_id
                    for other in network.nodes
                    if other is not node
                    and other.position.distance_to(node.position) <= rc + 1e-9
                }
                assert {n.node_id for n in node.neighbors} == expected
            for node in network.nodes:
                assert node.neighbors == channel.static_listeners(node.node_id)
            for node in network.nodes[:: n_nodes // 30]:
                for radius in (rs, rc, 2.0 * rs):  # coverage, neighbours, CCP
                    found = network.nodes_in_disk(node.position, radius)
                    assert found == channel.grid.query_disk(node.position, radius)
                    assert {n.node_id for n in found} == {
                        other.node_id
                        for other in network.nodes
                        if other.position.distance_sq_to(node.position)
                        <= radius * radius + 1e-9
                    }

    def test_nodes_in_disk(self, sim):
        network = make_network(sim, line_positions(5, 50.0))
        found = network.nodes_in_disk(Vec2(0, 0), 120.0)
        assert sorted(n.node_id for n in found) == [0, 1, 2]

    def test_node_by_id(self, sim):
        network = make_network(sim, line_positions(3, 50.0))
        assert network.node_by_id(2).position == Vec2(100, 0)


class TestBackbone:
    def test_apply_backbone_sets_roles(self, sim):
        network = make_network(sim, line_positions(4, 50.0))
        network.apply_backbone([0, 2])
        assert [n.is_active for n in network.nodes] == [True, False, True, False]
        assert len(network.active_nodes) == 2
        assert len(network.sleeper_nodes) == 2

    def test_apply_backbone_twice_rejected(self, sim):
        network = make_network(sim, line_positions(2, 50.0))
        network.apply_backbone([0])
        with pytest.raises(RuntimeError):
            network.apply_backbone([1])

    def test_active_neighbors_populated(self, sim):
        network = make_network(sim, line_positions(4, 50.0))
        network.apply_backbone([0, 2])
        node1 = network.node_by_id(1)
        assert {n.node_id for n in node1.active_neighbors} == {0, 2}

    def test_backbone_connectivity_check(self, sim):
        network = make_network(sim, line_positions(4, 100.0))
        network.apply_backbone([0, 1, 3])  # 3 is isolated (200 m gap to 1)
        assert not network.is_backbone_connected()

    def test_connected_backbone(self, sim):
        network = make_network(sim, line_positions(4, 100.0))
        network.apply_backbone([0, 1, 2, 3])
        assert network.is_backbone_connected()


class TestFields:
    def test_uniform(self):
        field = UniformField(level=37.5)
        assert field.value(Vec2(1, 2), 10.0) == 37.5

    def test_hotspot_peak_at_center(self):
        spot = Hotspot(center=Vec2(0, 0), amplitude=100.0, sigma=10.0)
        assert spot.value(Vec2(0, 0), 0.0) == pytest.approx(100.0)
        assert spot.value(Vec2(30, 0), 0.0) < 2.0

    def test_hotspot_drift(self):
        spot = Hotspot(center=Vec2(0, 0), amplitude=100.0, sigma=10.0, drift=Vec2(1, 0))
        assert spot.value(Vec2(10, 0), 10.0) == pytest.approx(100.0)

    def test_hotspot_growth(self):
        spot = Hotspot(center=Vec2(0, 0), amplitude=100.0, sigma=10.0, growth_per_s=0.01)
        assert spot.value(Vec2(0, 0), 100.0) == pytest.approx(200.0)

    def test_hotspot_field_sums(self):
        field = HotspotField(
            base=20.0,
            hotspots=(
                Hotspot(center=Vec2(0, 0), amplitude=50.0, sigma=5.0),
                Hotspot(center=Vec2(0, 0), amplitude=30.0, sigma=5.0),
            ),
        )
        assert field.value(Vec2(0, 0), 0.0) == pytest.approx(100.0)

    def test_fire_scenario_warmer_near_front(self):
        field = fire_scenario_field(450.0)
        near_front = field.value(Vec2(340, 315), 0.0)
        far_corner = field.value(Vec2(30, 30), 0.0)
        assert near_front > far_corner

    def test_node_reads_field_with_noise(self, sim):
        from repro.net.node import SensorNode

        network = make_network(sim, line_positions(1, 0.0))
        node = network.nodes[0]
        node.field = UniformField(level=25.0)
        assert node.read_sensor() == pytest.approx(25.0)
        node.sensor_noise_std = 1.0
        readings = {node.read_sensor() for _ in range(5)}
        assert len(readings) > 1  # noise actually applied
