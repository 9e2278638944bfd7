"""CCP's float eligibility kernel against the object-based oracle.

CCP's kernel pass (``_eligibility_pass``, which ``CcpProtocol.select_active``
runs clipped to the region at 1-coverage) must return the identical active
set as ``tests/ccp_oracle.py`` — same RNG stream, same field — with the
coverage requirement clipped to the region and not, at 1- and 2-coverage.  The kernel
takes pair crossings from one per-pass table and tests check points against
the nearest neighbours first; the oracle builds every node's points as
objects, each pair's crossings derived once per call and shared by the
nodes near it, and tests each point against every neighbour in list order.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import repro.power.ccp as ccp_module
from repro.geometry.shapes import Circle, Rect
from repro.geometry.vec import Vec2
from repro.net.network import NetworkConfig, build_network
from repro.power.ccp import CcpProtocol
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStreams

from .ccp_oracle import (
    circle_rect_edge_intersections,
    kernel_active_set,
    oracle_select_active,
)
from .mutants import mutate

#: (clip_to_region, coverage_degree)
CONFIGS = [(True, 1), (True, 2), (False, 1), (False, 2)]


def both_active_sets(network, seed, clip, k):
    kernel = kernel_active_set(network, RandomStreams(seed).stream("p"), clip, k)
    oracle = oracle_select_active(network, RandomStreams(seed).stream("p"), clip, k)
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

    @pytest.mark.parametrize("seed", [1, 2])
    def test_the_protocol_runs_the_checked_kernel(self, seed):
        """``CcpProtocol.select_active`` is the kernel pass the matrix
        checks, at the paper's (clip, K): same shuffle, region and repair."""
        network = build_network(
            Simulator(), NetworkConfig(n_nodes=200), RandomStreams(seed)
        )
        protocol = CcpProtocol().select_active(
            network, RandomStreams(seed).stream("p")
        )
        kernel, oracle = both_active_sets(
            network, seed, True, ccp_module.COVERAGE_DEGREE
        )
        assert protocol == kernel == oracle

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


#: name -> (function of ``repro.power.ccp``, text of it to replace, replacement)
MUTATIONS = {
    "nearest-first stage trusted without the range test": (
        "_k_covered",
        "count = _covering(points, centres[:, :_NEAREST], cover_thr)",
        "count = np.full(points.shape[1], min(k, centres.shape[1]))",
    ),
    "a pair's crossings kept whatever their distance from v": (
        "_eligibility_pass", "keep = dx <= inside_thr", "keep = dx >= 0.0",
    ),
    "edge crossings kept whatever their distance from v": (
        "_own_points",
        "inside = np.flatnonzero(dx <= inside_thr)",
        "inside = np.arange(len(dx))",
    ),
    "nearest-first scan stops one neighbour short": (
        "_k_covered", "centres[:, stop:4 * stop]", "centres[:, stop:4 * stop - 1]",
    ),
    "the nearest-first stage's count taken as final for K = 2": (
        "_k_covered",
        "    stop = _NEAREST\n",
        "    stop = centres.shape[1] if k == 2 else _NEAREST\n",
    ),
    "K = 2 answered as K = 1": (
        "_k_covered",
        "short = np.flatnonzero(count < k)",
        "short = np.flatnonzero(count < 1)",
    ),
}


#: Mutants that change no active set, so no property can fail under them.
#: A sleeper's crossings lie in a disk its active neighbours already cover.
#: At K = 1 every hole in the coverage has a vertex that is its pair's
#: first crossing: walking the hole's boundary, the ranks of the circles
#: met cannot fall at every step.  Random search over 4 000 sparse K = 2
#: and K = 3 fields and 3 000 dense lattice and free fields found no
#: counterexample to either.
EQUIVALENT_MUTATIONS = {
    "a sleeping neighbour's crossings kept (one end's active mask dropped)": (
        "_eligibility_pass", "            keep &= mask[ends[1]]\n", "",
    ),
    "the second crossing dropped when h != 0": (
        "_crossings",
        "second = np.flatnonzero(h != 0.0)",
        "second = np.flatnonzero(h < 0.0)",
    ),
}


@pytest.mark.parametrize("name", MUTATIONS)
def test_property_fails_under_named_mutations(name, monkeypatch):
    """The dense property is strong enough to tell: with any of the mutants
    in the kernel's place the same generator finds a counterexample."""
    mutate(monkeypatch, ccp_module, *MUTATIONS[name])

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


@pytest.mark.parametrize("name", EQUIVALENT_MUTATIONS)
def test_equivalent_mutants_change_no_active_set(name, monkeypatch):
    """Why those two mutants are not named above: on the pinned dense field
    and a 200-node paper field, every configuration's active set is the
    kernel's own.  Should this fail, the mutant has become telling: move it
    to ``MUTATIONS``."""
    paper = build_network(Simulator(), NetworkConfig(n_nodes=200), RandomStreams(2))
    fields = [(placed_network(LATTICE_60[1], LATTICE_60[0]), 7), (paper, 2)]

    def active_sets():
        return [
            kernel_active_set(network, RandomStreams(seed).stream("p"), clip, k)
            for network, seed in fields
            for clip, k in CONFIGS
        ]

    before = active_sets()
    mutate(monkeypatch, ccp_module, *EQUIVALENT_MUTATIONS[name])
    assert active_sets() == before


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


def test_crossing_table_is_the_oracles_float_for_float():
    """The per-pass table holds, for every pair of sensing circles, exactly
    what :meth:`Circle.intersection_points` gives for that pair, float for
    float, in grid-query orientation: the circle a ``nodes_in_disk`` list
    returns first is the first circle.  Unclipped and clipped to the region,
    on a 600-node field.  A 1-ulp move of a crossing shows here even where
    no active set would change."""
    network = build_network(Simulator(), NetworkConfig(n_nodes=600), RandomStreams(5))
    rs, region = network.config.sensing_range_m, network.config.region
    ranked = ccp_module._grid_ranked(network)
    rank = {node.node_id: r for r, node in enumerate(ranked)}
    expected = {}
    for node in network.nodes:
        found = network.nodes_in_disk(node.position, 2.0 * rs)
        assert [rank[other.node_id] for other in found] == sorted(
            rank[other.node_id] for other in found
        )
        # The pairs this node opens: itself, then every node after it.
        for other in found[found.index(node) + 1:]:
            points = Circle(node.position, rs).intersection_points(
                Circle(other.position, rs)
            )
            if points:
                expected[(node.node_id, other.node_id)] = sorted((p.x, p.y) for p in points)
    xy = np.array([[node.position.x for node in ranked], [node.position.y for node in ranked]])
    for clip in (None, region):
        box = None if clip is None else (
            region.x_min - 1e-9, region.y_min - 1e-9, region.x_max + 1e-9, region.y_max + 1e-9
        )
        table = ccp_module._CrossingTable(xy, rs, box)
        held = {}
        for point, (i, j) in zip(table.xy.T.tolist(), table.ends.T.tolist()):
            held.setdefault((ranked[i].node_id, ranked[j].node_id), []).append(tuple(point))
        want = {
            pair: kept
            for pair, points in expected.items()
            if (kept := [p for p in points if clip is None or clip.contains(Vec2(*p), tol=1e-9)])
        }
        assert {pair: sorted(points) for pair, points in held.items()} == want
        # Every crossing sits in the cell run the table files it under.
        for cell in range(table.rows * table.cols):
            s, e = table.starts[cell], table.starts[cell + 1]
            assert (table._key(table.xy[:, s:e]) == cell).all()


def test_one_pass_on_the_dense48_field_traces_at_most_3_mb():
    """The table and its transients stay small: one ``select_active`` on the
    600-node field ``dense48`` builds (seed 1) peaks at no more than 3 MB of
    traced allocations (the table itself is ~0.9 MB)."""
    network = build_network(Simulator(), NetworkConfig(n_nodes=600), RandomStreams(1))
    rng = RandomStreams(1).stream("power-ccp")
    tracemalloc.start()
    try:
        CcpProtocol().select_active(network, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3_000_000, f"traced peak {peak / 1e6:.2f} MB"
