"""Coverage measurement utilities.

Used by tests and the backbone-ablation example to verify that a protocol's
backbone actually preserves sensing coverage — the property CCP promises and
SPAN/GAF do not.
"""

from __future__ import annotations

from typing import Iterable, List, Set

from ..geometry.vec import Vec2
from ..net.network import Network


#: spacing of the probe grid :func:`covered_fraction` scores
PROBE_STEP_M = 15.0


def sample_points(network: Network, step_m: float) -> List[Vec2]:
    """A regular grid of probe points over the deployment region."""
    region = network.config.region
    points: List[Vec2] = []
    y = region.y_min + step_m / 2.0
    while y < region.y_max:
        x = region.x_min + step_m / 2.0
        while x < region.x_max:
            points.append(Vec2(x, y))
            x += step_m
        y += step_m
    return points


def covered_fraction(network: Network, node_ids: Iterable[int]) -> float:
    """Fraction of region probe points within sensing range of ``node_ids``.

    Probe points that no node at all could sense (deployment holes) are
    excluded from the denominator, so a perfect coverage-preserving backbone
    scores exactly 1.0 regardless of holes in the original deployment.
    """
    ids: Set[int] = set(node_ids)
    rs = network.config.sensing_range_m
    total = 0
    covered = 0
    for point in sample_points(network, PROBE_STEP_M):
        reachable = network.nodes_in_disk(point, rs)
        if not reachable:
            continue  # nobody could ever sense here
        total += 1
        if any(node.node_id in ids for node in reachable):
            covered += 1
    if total == 0:
        return 1.0
    return covered / total
