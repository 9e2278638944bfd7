"""CCP's float eligibility kernel against the object-based oracle.

``CcpProtocol.select_active`` must return the identical active set as
``tests/ccp_oracle.py`` — same RNG stream, same field — with the coverage
requirement clipped to the region and not, at 1- and 2-coverage.  The kernel
tries coverage where it is likely (the neighbour that covered the previous
check point, then the neighbours nearest first); the oracle tests every
point against every neighbour in list order.
"""

import inspect

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import repro.power.ccp as ccp_module
from repro.geometry.shapes import Circle, Rect
from repro.geometry.vec import Vec2
from repro.net.network import NetworkConfig, build_network
from repro.power.ccp import CcpConfig, CcpProtocol
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStreams

from .ccp_oracle import circle_rect_edge_intersections, oracle_select_active

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
        kernel_matches_oracle((200.0, positions), seed)


# Dense fields: 30-120 nodes on a 150-300 m square with Rs = 50 m, so a node
# has tens of coverage neighbours and which of them answers for a check point
# is decided by the kernel's memo and its nearest-first order.  Free floats
# are mixed with the 25 m lattice above (duplicates, tangent pairs, nodes on
# the region's edges and corners).
@st.composite
def dense_fields(draw):
    side = draw(st.sampled_from([150.0, 200.0, 250.0, 300.0]))
    steps = int(side // 25.0)
    free = st.tuples(st.floats(0.0, side), st.floats(0.0, side))
    on_lattice = st.tuples(
        st.integers(0, steps).map(lambda c: 25.0 * c),
        st.integers(0, steps).map(lambda c: 25.0 * c),
    )
    spots = draw(st.lists(st.one_of(free, free, on_lattice), min_size=30, max_size=120))
    return side, [Vec2(x, y) for x, y in spots]


def kernel_matches_oracle(field, seed):
    side, positions = field
    network = placed_network(positions, side)
    for clip, k in CONFIGS:
        kernel, oracle = both_active_sets(network, seed, clip, k)
        assert kernel == oracle, (clip, k)


# A fixed dense field that every named mutant gets wrong: 60 nodes on the
# lattice points of a 150 m square (eleven spots taken twice).
LATTICE_60 = (150.0, [Vec2(25.0 * (i % 7), 25.0 * (i // 7 % 7)) for i in range(60)])


class TestDenseProperty:
    @settings(max_examples=25, deadline=None)
    @given(dense_fields(), st.integers(0, 2**16))
    @example(LATTICE_60, 7)
    def test_random_dense_fields(self, field, seed):
        kernel_matches_oracle(field, seed)


#: name -> (text of ``_disk_k_covered`` to replace, replacement)
MUTATIONS = {
    "memo trusted without the range test": (
        "            if dx * dx + dy * dy < cover_thr:\n                continue\n",
        "            if True:\n                continue\n",
    ),
    "a pair's crossings kept whatever their distance from v": (
        "(centers[i + 1:], inside_thr)", "(centers[i + 1:], inf)",
    ),
    "nearest-first scan stops one neighbour short": (
        "for _, cx, cy in nearest:", "for _, cx, cy in nearest[:-1]:",
    ),
    "K = 2 answered by the K = 1 fast path": ("if k == 1:", "if True:"),
}


@pytest.mark.parametrize("name", MUTATIONS)
def test_property_fails_under_named_mutations(name, monkeypatch):
    """The dense property is strong enough to tell: with any of the mutants
    in the kernel's place the same generator finds a counterexample."""
    old, new = MUTATIONS[name]
    source = inspect.getsource(ccp_module._disk_k_covered)
    assert source.count(old) == 1, f"mutation {name!r} no longer applies"
    scope = {}
    exec(source.replace(old, new), vars(ccp_module), scope)
    monkeypatch.setattr(ccp_module, "_disk_k_covered", scope["_disk_k_covered"])

    @settings(
        max_examples=10, deadline=None, derandomize=True, database=None,
        phases=[Phase.explicit, Phase.generate],
    )
    @given(dense_fields(), st.integers(0, 2**16))
    @example(LATTICE_60, 7)
    def mutated(field, seed):
        kernel_matches_oracle(field, seed)

    with pytest.raises(AssertionError):
        mutated()


def test_edge_crossings_derived_once_are_the_oracles():
    """What ``select_active`` derives once per node for the whole pass — a
    sensing circle's crossings with the region's edges — is, float for float
    and in order, what the oracle derives again for every neighbour that
    asks; on a 600-node field some nodes have crossings and most have none."""
    network = build_network(Simulator(), NetworkConfig(n_nodes=600), RandomStreams(5))
    rs, region = network.config.sensing_range_m, network.config.region
    with_crossings = 0
    for node in network.nodes:
        derived = ccp_module._circle_rect_edge_intersections(
            node.position.x, node.position.y, rs, region
        )
        expected = circle_rect_edge_intersections(Circle(node.position, rs), region)
        assert derived == [(p.x, p.y) for p in expected]
        with_crossings += bool(derived)
    assert 0 < with_crossings < len(network.nodes)
