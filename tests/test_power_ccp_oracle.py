"""CCP's float eligibility kernel against the object-based oracle.

``CcpProtocol.select_active`` must return the identical active set as
``tests/ccp_oracle.py`` — same RNG stream, same field — with the coverage
requirement clipped to the region and not, at 1- and 2-coverage.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.shapes import Rect
from repro.geometry.vec import Vec2
from repro.net.network import NetworkConfig, build_network
from repro.power.ccp import CcpConfig, CcpProtocol
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStreams

from .ccp_oracle import oracle_select_active

#: (clip_to_region, coverage_degree)
CONFIGS = [(True, 1), (True, 2), (False, 1), (False, 2)]


def both_active_sets(network, seed, clip, k):
    config = CcpConfig(coverage_degree=k, clip_to_region=clip)
    kernel = CcpProtocol(config).select_active(network, RandomStreams(seed).stream("p"))
    oracle = oracle_select_active(network, RandomStreams(seed).stream("p"), config)
    return kernel, oracle


def placed_network(positions, side):
    config = NetworkConfig(
        n_nodes=len(positions), region=Rect.square(side), sensing_range_m=50.0
    )
    return build_network(Simulator(), config, RandomStreams(1), positions=positions)


class TestFixedTable:
    @pytest.mark.parametrize("seed", range(1, 9))
    @pytest.mark.parametrize("n_nodes", [200, 400, 600])
    def test_paper_fields(self, n_nodes, seed):
        """The paper's field at three densities, eight seeds each.  The
        (clip, K) combination rotates with the seed, so every density sees
        each of the four twice (the oracle takes seconds per 600-node run)."""
        clip, k = CONFIGS[(seed - 1) % len(CONFIGS)]
        network = build_network(
            Simulator(), NetworkConfig(n_nodes=n_nodes), RandomStreams(seed)
        )
        kernel, oracle = both_active_sets(network, seed, clip, k)
        assert kernel == oracle
        assert len(kernel) < n_nodes  # the rule did put nodes to sleep

    @pytest.mark.parametrize("clip,k", CONFIGS)
    def test_duplicates_and_the_containment_branch(self, clip, k):
        """Three nodes on one spot, far from every edge: coincident circles
        have no intersection points (``d == 0``), so each node has no check
        point at all and sleeps only if K duplicates contain its disk.  A
        fourth node out of everyone's reach must stay up."""
        spot = Vec2(500.0, 500.0)
        network = placed_network([spot, spot, spot, Vec2(100.0, 100.0)], 1000.0)
        kernel, oracle = both_active_sets(network, 3, clip, k)
        assert kernel == oracle
        assert 3 in kernel
        assert len(kernel & {0, 1, 2}) == k


# A 25 m lattice on a 200 m square with Rs = 50 m: duplicates, tangent
# circles (d == 2 Rs, a single intersection point), nodes on the region's
# edges and corners all occur by construction.
lattice = st.tuples(st.integers(0, 8), st.integers(0, 8))


class TestProperty:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(lattice, min_size=2, max_size=12), st.integers(0, 2**16))
    def test_random_lattice_fields(self, cells, seed):
        positions = [Vec2(25.0 * cx, 25.0 * cy) for cx, cy in cells]
        network = placed_network(positions, 200.0)
        for clip, k in CONFIGS:
            kernel, oracle = both_active_sets(network, seed, clip, k)
            assert kernel == oracle
