"""GAF: Geographic Adaptive Fidelity backbone selection.

GAF (Xu, Heidemann, Estrin — MobiCom'01) overlays a virtual grid with cell
side ``Rc / sqrt(5)``, chosen so any node in one cell can talk to any node
in the four edge-adjacent cells.  One node per occupied cell stays awake;
everyone else in the cell sleeps.  Cited by the paper as another backbone
maintainer MobiQuery composes with.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, List, Set, Tuple

import numpy as np

from ..geometry.grid import cell_of
from ..net.network import Network
from ..net.node import SensorNode
from .base import PowerManagementProtocol, repair_connectivity


class GafProtocol(PowerManagementProtocol):
    """One active node per virtual grid cell of side ``Rc / sqrt(5)``."""

    name = "gaf"

    def __init__(self, repair: bool = True) -> None:
        self.repair = repair

    def cell_side(self, network: Network) -> float:
        """The GAF virtual-grid cell side for this network's radio range."""
        return network.config.comm_range_m / math.sqrt(5.0)

    def select_active(self, network: Network, rng: np.random.Generator) -> Set[int]:
        side = self.cell_side(network)
        cells: Dict[Tuple[int, int], List[SensorNode]] = defaultdict(list)
        for node in network.nodes:
            x, y = node.position.x, node.position.y
            cells[cell_of(x, y, 0.0, 0.0, side, side)].append(node)
        active: Set[int] = set()
        for members in cells.values():
            # GAF ranks candidates by expected lifetime; with identical
            # batteries the election is effectively random.
            leader = members[int(rng.integers(0, len(members)))]
            active.add(leader.node_id)
        if self.repair:
            repair_connectivity(network, active)
        return active


class AlwaysOnProtocol(PowerManagementProtocol):
    """Degenerate baseline: every node stays active (no duty cycling)."""

    name = "always-on"

    def select_active(self, network: Network, rng: np.random.Generator) -> Set[int]:
        return {node.node_id for node in network.nodes}
