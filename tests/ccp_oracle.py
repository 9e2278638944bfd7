"""Brute-force, object-based CCP eligibility — the float kernel's oracle.

``repro.power.ccp`` decides sleeping eligibility with one float kernel that
tests each check point as it is produced.  This module evaluates the same
rule the slow, obvious way — build every check point as a
:class:`~repro.geometry.vec.Vec2` through the public
:meth:`~repro.geometry.shapes.Circle.intersection_points`, then count the
covering disks of each — so ``tests/test_power_ccp_oracle.py`` can require
the identical active set from both.  A pair of circles meets again in the
checks of every node near it, so one call of :func:`oracle_select_active`
keeps each ordered pair's crossings (:class:`Crossings`), keyed on the
exact floats of both circles: ``intersection_points`` is pure, so the
points are the ones it would derive again.
"""

import math
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.geometry.shapes import Circle, Rect
from repro.geometry.vec import Vec2
from repro.net.network import Network
from repro.power.base import repair_connectivity
from repro.power import ccp

#: margin for strict-interior containment (open-disk semantics)
INTERIOR_EPS = 1e-6


class Crossings:
    """``Circle.intersection_points`` of each ordered pair, derived once."""

    def __init__(self) -> None:
        self._points: Dict[Tuple[float, ...], Tuple[Vec2, ...]] = {}

    def of(self, a: Circle, b: Circle) -> Tuple[Vec2, ...]:
        key = (a.center.x, a.center.y, a.radius, b.center.x, b.center.y, b.radius)
        points = self._points.get(key)
        if points is None:
            points = self._points[key] = tuple(a.intersection_points(b))
        return points


def kernel_active_set(
    network: Network, rng, clip: bool, k: int, repair: bool = True
) -> Set[int]:
    """``CcpProtocol().select_active`` at any coverage degree ``k``, with
    coverage clipped to the region or not, and with or without the
    connectivity repair: the protocol runs the kernel pass at the paper's
    (clip, K = 1) and repairs."""
    order = list(network.nodes)
    rng.shuffle(order)
    region = network.config.region if clip else None
    # Looked up on the module at each call, so a mutant put in its place
    # (``tests/mutants.py``) is the one that runs.
    active = ccp._eligibility_pass(
        network, order, network.config.sensing_range_m, k, region
    )
    if repair:
        repair_connectivity(network, active)
    return active


def oracle_select_active(network: Network, rng, clip: bool, k: int) -> Set[int]:
    """:func:`kernel_active_set` with object-based eligibility."""
    rs = network.config.sensing_range_m
    region = network.config.region if clip else None
    active = {node.node_id for node in network.nodes}
    order = list(network.nodes)
    rng.shuffle(order)
    crossings = Crossings()
    for node in order:
        if eligible_to_sleep(network, node, active, rs, region, k, crossings):
            active.discard(node.node_id)
    repair_connectivity(network, active)
    return active


def eligible_to_sleep(network, node, active, rs, region, k, crossings) -> bool:
    my_disk = Circle(node.position, rs)
    neighbor_disks = [
        Circle(other.position, rs)
        for other in network.nodes_in_disk(node.position, 2.0 * rs)
        if other.node_id != node.node_id and other.node_id in active
    ]
    if len(neighbor_disks) < k:
        return False
    points = check_points(my_disk, neighbor_disks, region, crossings)
    if not points:
        # no check point at all: eligible iff k neighbour disks hold all of mine
        containing = sum(
            1
            for disk in neighbor_disks
            if disk.center.distance_to(my_disk.center) + my_disk.radius <= disk.radius + 1e-9
        )
        return containing >= k
    # Points x disks in one broadcast: every pair is tested, nothing is
    # skipped (the kernel's early exits are what this oracle checks).
    cxs = np.array([disk.center.x for disk in neighbor_disks])
    cys = np.array([disk.center.y for disk in neighbor_disks])
    dx = cxs[None, :] - np.array([p.x for p in points])[:, None]
    dy = cys[None, :] - np.array([p.y for p in points])[:, None]
    covered = (dx * dx + dy * dy < (rs - INTERIOR_EPS) ** 2).sum(axis=1)
    return bool((covered >= k).all())


def check_points(
    my_disk: Circle,
    neighbor_disks: List[Circle],
    region: Optional[Rect],
    crossings: Crossings,
) -> List[Vec2]:
    """Every check point of the intersection-point theorem for ``my_disk``."""
    points = []
    n = len(neighbor_disks)
    for i in range(n):
        for p in crossings.of(neighbor_disks[i], my_disk):
            if region is None or region.contains(p, tol=1e-9):
                points.append(p)
        for j in range(i + 1, n):
            for p in crossings.of(neighbor_disks[i], neighbor_disks[j]):
                if not my_disk.contains(p):
                    continue
                if region is None or region.contains(p, tol=1e-9):
                    points.append(p)
    if region is not None:
        for disk in neighbor_disks + [my_disk]:
            for p in circle_rect_edge_intersections(disk, region):
                if my_disk.contains(p):
                    points.append(p)
        for corner in region.corners():
            if my_disk.contains(corner):
                points.append(corner)
    return points


def circle_rect_edge_intersections(disk: Circle, region: Rect) -> List[Vec2]:
    """Points where ``disk``'s boundary crosses the rectangle's edges."""
    cx, cy, r = disk.center.x, disk.center.y, disk.radius
    points = []
    for x in (region.x_min, region.x_max):
        dx = x - cx
        if abs(dx) <= r:
            dy = math.sqrt(max(0.0, r * r - dx * dx))
            for y in (cy - dy, cy + dy):
                if region.y_min - 1e-9 <= y <= region.y_max + 1e-9:
                    points.append(Vec2(x, y))
    for y in (region.y_min, region.y_max):
        dy = y - cy
        if abs(dy) <= r:
            dx = math.sqrt(max(0.0, r * r - dy * dy))
            for x in (cx - dx, cx + dx):
                if region.x_min - 1e-9 <= x <= region.x_max + 1e-9:
                    points.append(Vec2(x, y))
    return points
