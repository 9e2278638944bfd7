"""Coverage Configuration Protocol (CCP).

The power-management protocol the paper runs under MobiQuery (Wang, Xing,
Zhang, Lu, Pless, Gill — SenSys'03).  CCP keeps just enough nodes active to
preserve *sensing coverage* of the monitored region, relying on the theorem
that when ``Rc >= 2 * Rs`` a coverage-preserving set is also connected —
which holds for the paper's parameters (105 m >= 2 x 50 m).

**Eligibility rule** (the heart of CCP): a node may sleep when its sensing
disk is already K-covered by the *other* active nodes.  By the
intersection-point theorem, a convex region is K-covered iff every
intersection point of sensing-circle pairs inside the region — plus the
intersection points of those circles with the region's boundary — is
K-covered.  For a node ``v`` the region is ``v``'s own sensing disk, so the
check points are:

* intersections between the sensing circles of pairs of active coverage
  neighbours, if inside ``v``'s disk, and
* intersections between each such circle and ``v``'s sensing circle.

With no check points at all, the disk is covered only if a single active
neighbour's disk contains it outright.

The distributed protocol reaches this state through randomized backoff
timers (nodes volunteer to withdraw one at a time).  We reproduce that as a
sequential pass in random order, which yields the same family of backbones
the distributed rounds converge to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

import numpy as np

from ..geometry.shapes import Rect
from ..net.network import Network
from ..net.node import SensorNode
from .base import PowerManagementProtocol, repair_connectivity


@dataclass(frozen=True)
class CcpConfig:
    """CCP tuning.

    Attributes:
        coverage_degree: required K (paper uses 1-coverage).
        clip_to_region: only require coverage inside the deployment region
            (nodes at the field edge need not cover points outside it).
        repair_connectivity: promote bridge nodes if the coverage backbone
            is disconnected (cannot happen when ``Rc >= 2 Rs``; kept for
            other configurations, mirroring CCP+SPAN in the CCP paper).
    """

    coverage_degree: int = 1
    clip_to_region: bool = True
    repair_connectivity: bool = True


class CcpProtocol(PowerManagementProtocol):
    """Coverage Configuration Protocol backbone selection."""

    name = "ccp"

    def __init__(self, config: Optional[CcpConfig] = None) -> None:
        self.config = config or CcpConfig()

    def select_active(self, network: Network, rng: np.random.Generator) -> Set[int]:
        sensing_range = network.config.sensing_range_m
        region = network.config.region if self.config.clip_to_region else None
        active: Set[int] = {node.node_id for node in network.nodes}
        order = list(network.nodes)
        rng.shuffle(order)  # type: ignore[arg-type]
        for node in order:
            if self._eligible_to_sleep(network, node, active, sensing_range, region):
                active.discard(node.node_id)
        if self.config.repair_connectivity:
            repair_connectivity(network, active)
        return active

    # ------------------------------------------------------------------
    # Eligibility rule
    # ------------------------------------------------------------------
    def _eligible_to_sleep(
        self,
        network: Network,
        node: SensorNode,
        active: Set[int],
        rs: float,
        region: Optional[Rect],
    ) -> bool:
        # Coverage neighbours: active nodes whose sensing disks can overlap
        # mine, i.e. within 2 * Rs.
        centers = [
            (other.position.x, other.position.y)
            for other in network.nodes_in_disk(node.position, 2.0 * rs)
            if other.node_id != node.node_id and other.node_id in active
        ]
        k = self.config.coverage_degree
        if len(centers) < k:
            return False
        return _disk_k_covered(
            node.position.x, node.position.y, centers, rs, k, region
        )


#: margin for strict-interior containment tests
_INTERIOR_EPS = 1e-6


def _disk_k_covered(
    vx: float,
    vy: float,
    centers: List[Tuple[float, float]],
    rs: float,
    k: int,
    region: Optional[Rect],
) -> bool:
    """Whether the disk of radius ``rs`` at ``(vx, vy)`` is K-covered.

    The eligibility rule as one float kernel: every check point of the
    intersection-point theorem is produced in turn — neighbour circles
    crossing ``v``'s circle, neighbour-circle pairs crossing inside ``v``'s
    disk and, when ``region`` clips the requirement, circles crossing the
    region's edges plus its corners, all restricted to ``disk(v) ∩ region``
    — and tested against the neighbour disks as it is produced, returning
    at the first one fewer than ``k`` of them cover.  With no check point
    at all, coverage needs ``k`` neighbour disks that contain ``v``'s.

    Every intersection is computed with the operation order of
    :meth:`~repro.geometry.shapes.Circle.intersection_points` on
    :class:`~repro.geometry.vec.Vec2` (all radii equal ``rs``), so the
    decision is bit-identical to evaluating the rule on those objects —
    ``tests/ccp_oracle.py`` does, and the suite compares the two.
    """
    two_rs = rs + rs
    rs_sq = rs * rs
    inside_thr = (rs + 1e-9) ** 2  # Circle.contains: boundary included
    # Strict-interior containment: a point on a circle's own boundary is
    # NOT covered by that circle for the purposes of the theorem — the area
    # just beyond the boundary would be uncovered (open-disk semantics).
    cover_thr = (rs - _INTERIOR_EPS) ** 2
    clipped = region is not None
    if clipped:
        x_lo, x_hi = region.x_min - 1e-9, region.x_max + 1e-9
        y_lo, y_hi = region.y_min - 1e-9, region.y_max + 1e-9
    hypot = math.hypot
    sqrt = math.sqrt

    def uncovered(px: float, py: float) -> bool:
        count = 0
        for cx, cy in centers:
            dx = cx - px
            dy = cy - py
            if dx * dx + dy * dy < cover_thr:
                count += 1
                if count >= k:
                    return False
        return True

    any_point = False
    n = len(centers)
    for i in range(n):
        ax, ay = centers[i]
        # Circle i against v's own circle (j == i), then against every
        # later circle; only the latter's points need filtering to v's disk.
        for j in range(i, n):
            if j == i:
                bx, by = vx, vy
            else:
                bx, by = centers[j]
            ex = bx - ax
            ey = by - ay
            d = hypot(ex, ey)
            if d == 0.0 or d > two_rs:
                continue
            # Equal radii: Circle's (r0^2 - r1^2 + d^2) / 2d is (d^2) / 2d
            # exactly (0.0 + x == x) — but not d / 2, which rounds apart.
            a = (d * d) / (2.0 * d)
            h_sq = rs_sq - a * a
            if h_sq < 0.0:
                h_sq = 0.0
            h = sqrt(h_sq)
            ux = ex / d
            uy = ey / d
            mx = ax + ux * a
            my = ay + uy * a
            ox = -uy * h
            oy = ux * h
            if h == 0.0:
                points = ((mx, my),)
            else:
                points = ((mx + ox, my + oy), (mx - ox, my - oy))
            for px, py in points:
                if j != i:
                    dx = vx - px
                    dy = vy - py
                    if dx * dx + dy * dy > inside_thr:
                        continue
                if clipped and not (x_lo <= px <= x_hi and y_lo <= py <= y_hi):
                    continue
                if uncovered(px, py):
                    return False
                any_point = True
    if clipped:
        # disk(v) ∩ region: the theorem also needs every circle (v's own
        # last) crossing the region's edges inside disk(v), and the region
        # corners inside disk(v).
        boundary = []
        for cx, cy in centers + [(vx, vy)]:
            boundary.extend(_circle_rect_edge_intersections(cx, cy, rs, region))
        boundary += [
            (region.x_min, region.y_min), (region.x_max, region.y_min),
            (region.x_max, region.y_max), (region.x_min, region.y_max),
        ]
        for px, py in boundary:
            dx = vx - px
            dy = vy - py
            if dx * dx + dy * dy <= inside_thr:
                if uncovered(px, py):
                    return False
                any_point = True
    if any_point:
        return True
    # No intersection structure: coverage requires containment by a set of
    # disks, which for circles means one disk contains mine (k of them).
    containing = 0
    for cx, cy in centers:
        if hypot(cx - vx, cy - vy) + rs <= rs + 1e-9:
            containing += 1
    return containing >= k


def _circle_rect_edge_intersections(
    cx: float, cy: float, r: float, region: Rect
) -> List[Tuple[float, float]]:
    """Points where the circle's boundary crosses the rectangle's edges."""
    points = []
    # Vertical edges: x fixed, y in [y_min, y_max].
    for x in (region.x_min, region.x_max):
        dx = x - cx
        if abs(dx) <= r:
            dy = math.sqrt(max(0.0, r * r - dx * dx))
            for y in (cy - dy, cy + dy):
                if region.y_min - 1e-9 <= y <= region.y_max + 1e-9:
                    points.append((x, y))
    # Horizontal edges: y fixed, x in [x_min, x_max].
    for y in (region.y_min, region.y_max):
        dy = y - cy
        if abs(dy) <= r:
            dx = math.sqrt(max(0.0, r * r - dy * dy))
            for x in (cx - dx, cx + dx):
                if region.x_min - 1e-9 <= x <= region.x_max + 1e-9:
                    points.append((x, y))
    return points
