"""Tests for backbone-selection protocols: CCP, SPAN, GAF, repair."""

import pytest

from repro.geometry.shapes import Rect
from repro.net.network import NetworkConfig, build_network
from repro.power.base import repair_connectivity
from repro.power.ccp import CcpProtocol
from repro.power.coverage import covered_fraction, sample_points
from repro.power.gaf import AlwaysOnProtocol, GafProtocol
from repro.power.span import SpanProtocol
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStreams

from .ccp_oracle import kernel_active_set
from .conftest import line_positions, make_network


def paper_network(seed=1, n=200):
    sim = Simulator()
    config = NetworkConfig(n_nodes=n)
    return build_network(sim, config, RandomStreams(seed)), RandomStreams(seed)


class TestCcp:
    def test_preserves_coverage(self):
        network, streams = paper_network(seed=1)
        active = CcpProtocol().select_active(network, streams.stream("p"))
        assert covered_fraction(network, active) == pytest.approx(1.0)

    def test_substantially_reduces_active_set(self):
        network, streams = paper_network(seed=2)
        active = CcpProtocol().select_active(network, streams.stream("p"))
        assert len(active) < 0.5 * len(network.nodes)

    def test_backbone_connected_when_rc_geq_2rs(self):
        # Paper parameters: Rc=105 >= 2*Rs=100, so coverage => connectivity.
        network, streams = paper_network(seed=3)
        active = kernel_active_set(network, streams.stream("p"), True, 1, repair=False)
        network.apply_backbone(active)
        assert network.is_backbone_connected()

    def test_isolated_node_stays_active(self, sim):
        # Two nodes far apart: nobody can cover anybody.
        network = make_network(sim, line_positions(2, 500.0))
        active = kernel_active_set(
            network, RandomStreams(1).stream("p"), True, 1, repair=False
        )
        assert active == {0, 1}

    def test_redundant_center_thins_out(self, sim):
        # A cross: the centre node's disk is covered by the four ring nodes
        # (every boundary direction has a nearby neighbour), so CCP may put
        # the centre to sleep.  Ring nodes stay: their outward boundary is
        # theirs alone.
        from repro.geometry.vec import Vec2

        positions = [
            Vec2(500, 500),
            Vec2(501, 500),
            Vec2(499, 500),
            Vec2(500, 501),
            Vec2(500, 499),
        ]
        network = make_network(sim, positions)
        active = CcpProtocol().select_active(network, RandomStreams(1).stream("p"))
        assert 0 not in active
        assert active == {1, 2, 3, 4}

    def test_collinear_stack_cannot_thin(self, sim):
        # Collinear near-coincident nodes: the perpendicular boundary points
        # are covered by nobody else, so exact coverage keeps all active.
        network = make_network(sim, line_positions(3, 0.5, x0=500.0, y=500.0))
        active = CcpProtocol().select_active(network, RandomStreams(1).stream("p"))
        assert active == {0, 1, 2}

    def test_coverage_degree_two_keeps_more(self):
        network1, streams1 = paper_network(seed=4)
        network2, streams2 = paper_network(seed=4)
        k1 = CcpProtocol().select_active(network1, streams1.stream("p"))
        k2 = kernel_active_set(network2, streams2.stream("p"), True, 2)
        assert len(k2) > len(k1)

    def test_deterministic_given_rng(self):
        network1, streams1 = paper_network(seed=5)
        network2, streams2 = paper_network(seed=5)
        a = CcpProtocol().select_active(network1, streams1.stream("p"))
        b = CcpProtocol().select_active(network2, streams2.stream("p"))
        assert a == b


class TestSpan:
    def test_backbone_connected(self):
        network, streams = paper_network(seed=1)
        active = SpanProtocol().select_active(network, streams.stream("p"))
        network.apply_backbone(active)
        assert network.is_backbone_connected()

    def test_reduces_active_set(self):
        network, streams = paper_network(seed=2)
        active = SpanProtocol().select_active(network, streams.stream("p"))
        assert len(active) < len(network.nodes)

    def test_neighbors_of_sleepers_stay_reachable(self):
        """Every pair of neighbours of a sleeping node must have a short
        coordinator path — SPAN's defining invariant, checked globally via
        2-hop reachability over coordinators."""
        network, streams = paper_network(seed=3, n=80)
        active = SpanProtocol().select_active(network, streams.stream("p"))
        network.apply_backbone(active)
        # check: each sleeper has at least one active neighbour (weaker but
        # necessary condition for its traffic to be carried)
        for node in network.sleeper_nodes:
            if node.neighbors:
                assert any(nb.is_active for nb in node.neighbors)


class TestGaf:
    def test_one_leader_per_cell(self):
        network, streams = paper_network(seed=1)
        protocol = GafProtocol(repair=False)
        active = protocol.select_active(network, streams.stream("p"))
        side = protocol.cell_side(network)
        cells = {}
        for node_id in active:
            node = network.node_by_id(node_id)
            cell = (int(node.position.x // side), int(node.position.y // side))
            assert cell not in cells, "two leaders in one GAF cell"
            cells[cell] = node_id

    def test_cell_side_formula(self):
        network, _ = paper_network(seed=1)
        side = GafProtocol().cell_side(network)
        assert side == pytest.approx(105.0 / 5**0.5)

    def test_always_on_selects_everyone(self):
        network, streams = paper_network(seed=1, n=30)
        active = AlwaysOnProtocol().select_active(network, streams.stream("p"))
        assert active == {n.node_id for n in network.nodes}


class TestRepairConnectivity:
    def test_bridges_disconnected_islands(self, sim):
        # active: 0 and 4 far apart; sleeper 2 in the middle can bridge.
        network = make_network(sim, line_positions(5, 52.0), comm_range=105.0)
        active = {0, 4}
        repaired = repair_connectivity(network, active)
        network.apply_backbone(repaired)
        assert network.is_backbone_connected()

    def test_noop_when_connected(self, sim):
        network = make_network(sim, line_positions(3, 50.0))
        active = {0, 1, 2}
        assert repair_connectivity(network, set(active)) == active

    def test_gives_up_when_impossible(self, sim):
        network = make_network(sim, line_positions(2, 900.0), comm_range=50.0)
        active = {0, 1}
        repaired = repair_connectivity(network, active)
        assert repaired == {0, 1}  # nothing bridges a 900 m gap


class TestCoverageUtils:
    def test_sample_points_cover_region(self):
        network, _ = paper_network(seed=1, n=10)
        points = sample_points(network, step_m=45.0)
        assert len(points) == 100  # (450/45)^2

    def test_covered_fraction_empty_set(self):
        network, _ = paper_network(seed=1, n=50)
        assert covered_fraction(network, set()) == 0.0

    def test_covered_fraction_full_set(self):
        network, _ = paper_network(seed=1, n=50)
        all_ids = {n.node_id for n in network.nodes}
        assert covered_fraction(network, all_ids) == pytest.approx(1.0)
