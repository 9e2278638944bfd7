"""SPAN-style coordinator election.

SPAN (Chen, Jamieson, Balakrishnan, Morris — MobiCom'01) maintains a
*connectivity* backbone: a node volunteers as coordinator when two of its
neighbours cannot reach each other directly or through one or two existing
coordinators.  The paper's simulations use CCP, but cite SPAN as an equally
valid backbone provider — we include it for the backbone-ablation example
and for configurations where ``Rc < 2 Rs`` makes CCP's coverage rule
insufficient for connectivity.

As with CCP we compress the distributed randomized-slotting into a
sequential pass in random order (SPAN's announcement backoff randomizes the
same decision order).
"""

from __future__ import annotations

from typing import List, Set

import numpy as np

from ..net.network import Network
from ..net.node import SensorNode
from .base import PowerManagementProtocol, repair_connectivity


class SpanProtocol(PowerManagementProtocol):
    """Connectivity-backbone election after SPAN's coordinator rule."""

    name = "span"

    def select_active(self, network: Network, rng: np.random.Generator) -> Set[int]:
        coordinators: Set[int] = set()
        order = list(network.nodes)
        rng.shuffle(order)  # type: ignore[arg-type]
        for node in order:
            if self._should_coordinate(node, coordinators):
                coordinators.add(node.node_id)
        repair_connectivity(network, coordinators)
        return coordinators

    @staticmethod
    def _should_coordinate(node: SensorNode, coordinators: Set[int]) -> bool:
        """SPAN rule: some neighbour pair lacks a 1- or 2-coordinator path."""
        neighbors = node.neighbors
        if len(neighbors) < 2:
            return False
        neighbor_ids = {nb.node_id for nb in neighbors}
        coord_neighbors = [nb for nb in neighbors if nb.node_id in coordinators]
        # Pre-compute which of my neighbours each coordinator neighbour reaches.
        coord_reach: List[Set[int]] = []
        for coord in coord_neighbors:
            coord_reach.append(
                {nb.node_id for nb in coord.neighbors if nb.node_id in neighbor_ids}
            )
        for i, a in enumerate(neighbors):
            a_adjacent = {nb.node_id for nb in a.neighbors}
            for b in neighbors[i + 1 :]:
                if b.node_id in a_adjacent:
                    continue  # direct link exists
                if SpanProtocol._coordinator_path(a, b, coord_neighbors, coord_reach):
                    continue
                return True
        return False

    @staticmethod
    def _coordinator_path(
        a: SensorNode,
        b: SensorNode,
        coord_neighbors: List[SensorNode],
        coord_reach: List[Set[int]],
    ) -> bool:
        """Is there a path a -> coord [-> coord] -> b using my coordinator nbrs?"""
        # One-coordinator path.
        via_one = [
            idx
            for idx, reach in enumerate(coord_reach)
            if a.node_id in reach and b.node_id in reach
        ]
        if via_one:
            return True
        # Two-coordinator path: coord_i adjacent to a, coord_j adjacent to b,
        # and coord_i adjacent to coord_j.
        reaches_a = [idx for idx, reach in enumerate(coord_reach) if a.node_id in reach]
        reaches_b = [idx for idx, reach in enumerate(coord_reach) if b.node_id in reach]
        for i in reaches_a:
            ci = coord_neighbors[i]
            ci_adjacent = {nb.node_id for nb in ci.neighbors}
            for j in reaches_b:
                if i == j:
                    continue
                if coord_neighbors[j].node_id in ci_adjacent:
                    return True
        return False
