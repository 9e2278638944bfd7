"""Power-management protocol interface.

A power-management protocol decides which nodes form the always-on
*backbone* and which may duty-cycle (paper assumption 3: "the network runs a
power management protocol that selects a small subset of nodes to keep
active").  Protocols here run as a configuration round before the query
session starts, which is how the paper uses CCP for a 400 s experiment.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Set

import numpy as np

from ..net.network import Network
from ..sim.rng import RandomStreams


class PowerManagementProtocol(abc.ABC):
    """Chooses the set of backbone (always-active) node ids."""

    #: human-readable protocol name for reports
    name: str = "abstract"

    @abc.abstractmethod
    def select_active(self, network: Network, rng: np.random.Generator) -> Set[int]:
        """Return the ids of nodes that must stay active."""

    def apply(self, network: Network, streams: RandomStreams) -> Set[int]:
        """Run selection and commit the partition to the network."""
        rng = streams.stream(f"power-{self.name}")
        active = self.select_active(network, rng)
        network.apply_backbone(active)
        return active


def repair_connectivity(network: Network, active: Set[int]) -> Set[int]:
    """Promote sleepers until the active subgraph is connected.

    With the paper's parameters (``Rc >= 2 * Rs``) CCP's coverage-preserving
    backbone is provably connected, but other range ratios or protocols can
    leave islands.  This greedy repair promotes, at each step, the sleeper
    whose neighbours touch the most distinct active components (at least
    two; the first such sleeper in node order on a tie), until one
    component is left or no sleeper touches two.

    Returns the augmented active set (mutates and returns ``active``).
    """
    while True:
        components = _active_components(network, active)
        if len(components) <= 1:
            return active
        bridge = _best_bridge(network, active, components)
        if bridge is None:
            # Disconnected even in the full graph; nothing more to do.
            return active
        active.add(bridge)


def _active_components(network: Network, active: Set[int]) -> List[Set[int]]:
    unvisited = set(active)
    components: List[Set[int]] = []
    while unvisited:
        root = next(iter(unvisited))
        component = {root}
        frontier = [network.node_by_id(root)]
        unvisited.discard(root)
        while frontier:
            node = frontier.pop()
            for nb in node.neighbors:
                if nb.node_id in unvisited:
                    unvisited.discard(nb.node_id)
                    component.add(nb.node_id)
                    frontier.append(nb)
        components.append(component)
    return components


def _best_bridge(
    network: Network, active: Set[int], components: List[Set[int]]
) -> Optional[int]:
    """The sleeper id touching the most distinct active components, or None."""
    comp_index = {}
    for idx, component in enumerate(components):
        for node_id in component:
            comp_index[node_id] = idx
    best_id = None
    best_touch = 1
    for node in network.nodes:
        if node.node_id in active:
            continue
        touched = {comp_index[nb.node_id] for nb in node.neighbors if nb.node_id in comp_index}
        if len(touched) > best_touch:
            best_touch = len(touched)
            best_id = node.node_id
    return best_id
