"""Shared fixtures and small-network builders for the test suite."""

from typing import List, Optional, Sequence

import pytest

from repro.geometry.shapes import Rect
from repro.geometry.vec import Vec2
from repro.net.network import Network, NetworkConfig, build_network
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.trace import Tracer


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def streams() -> RandomStreams:
    return RandomStreams(12345)


@pytest.fixture
def tracer() -> Tracer:
    return Tracer()


def make_network(
    sim: Simulator,
    positions: Sequence[Vec2],
    comm_range: float = 105.0,
    sleep_period: float = 9.0,
    active_window: float = 0.1,
    psm_offset: float = 0.0,
    region_side: float = 1000.0,
    seed: int = 12345,
    tracer: Optional[Tracer] = None,
) -> Network:
    """Build a deterministic test network from explicit positions."""
    config = NetworkConfig(
        n_nodes=len(positions),
        region=Rect.square(region_side),
        comm_range_m=comm_range,
        sensing_range_m=comm_range / 2.1,
        sleep_period_s=sleep_period,
        active_window_s=active_window,
        psm_offset_s=psm_offset,
    )
    return build_network(
        sim,
        config,
        RandomStreams(seed),
        tracer=tracer,
        positions=list(positions),
    )


def line_positions(n: int, spacing: float, y: float = 0.0, x0: float = 0.0) -> List[Vec2]:
    """``n`` nodes in a straight line, ``spacing`` metres apart."""
    return [Vec2(x0 + i * spacing, y) for i in range(n)]


def all_active(network: Network) -> None:
    """Make every node a backbone node (no duty cycling)."""
    network.apply_backbone(node.node_id for node in network.nodes)
