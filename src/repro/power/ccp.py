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

**Cost.**  The rule is the one path in the tree whose cost is super-linear
in node density (*n* coverage neighbours make *n²/2* circle pairs), so the
pass is written for it: :func:`_disk_k_covered` tries coverage where it is
likely — the order cannot change the answer, see there — while
``tests/ccp_oracle.py`` keeps testing every point against every neighbour in
list order.  What does not depend on the node being checked (where each
sensing circle crosses the region's edges) is derived once per node in
locals of one ``select_active`` call and dropped when it returns.
Circle-pair crossings are recomputed for every node that asks: a per-pass
table of them was measured (a fifth off a 600-node set-up) and left out,
because its few MB showed in the process's peak memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..geometry.shapes import Rect
from ..net.network import Network
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
        rs = network.config.sensing_range_m
        region = network.config.region if self.config.clip_to_region else None
        k = self.config.coverage_degree
        active: Set[int] = {node.node_id for node in network.nodes}
        order = list(network.nodes)
        rng.shuffle(order)  # type: ignore[arg-type]
        # Where a sensing circle crosses the region's edges does not depend
        # on who asks: derived once per node for this pass, not once per
        # neighbour being checked.
        edge_points: Dict[int, List[Tuple[float, float]]] = {}
        corners: List[Tuple[float, float]] = []
        if region is not None:
            for node in network.nodes:
                edge_points[node.node_id] = _circle_rect_edge_intersections(
                    node.position.x, node.position.y, rs, region
                )
            corners = [(corner.x, corner.y) for corner in region.corners()]
        for node in order:
            # Coverage neighbours: active nodes whose sensing disks can
            # overlap this one's, i.e. within 2 * Rs.
            neighbours = [
                other
                for other in network.nodes_in_disk(node.position, 2.0 * rs)
                if other.node_id != node.node_id and other.node_id in active
            ]
            if len(neighbours) < k:
                continue
            # disk(v) ∩ region: the theorem also needs every circle (v's own
            # included) crossing the region's edges, and the region's corners.
            boundary: List[Tuple[float, float]] = []
            if region is not None:
                for other in neighbours:
                    boundary += edge_points[other.node_id]
                boundary += edge_points[node.node_id]
                boundary += corners
            centers = [(other.position.x, other.position.y) for other in neighbours]
            if _disk_k_covered(
                node.position.x, node.position.y, centers, rs, k, region, boundary
            ):
                active.discard(node.node_id)
        if self.config.repair_connectivity:
            repair_connectivity(network, active)
        return active


#: margin for strict-interior containment tests
_INTERIOR_EPS = 1e-6


def _disk_k_covered(
    vx: float,
    vy: float,
    centers: List[Tuple[float, float]],
    rs: float,
    k: int,
    region: Optional[Rect],
    boundary: List[Tuple[float, float]],
) -> bool:
    """Whether the disk of radius ``rs`` at ``(vx, vy)`` is K-covered.

    The eligibility rule as one float kernel, in two steps.  First every
    check point of the intersection-point theorem is gathered: neighbour
    circles crossing ``v``'s circle, neighbour-circle pairs crossing inside
    ``v``'s disk and, when ``region`` clips the requirement, the points of
    ``boundary`` (circles crossing the region's edges, and its corners)
    inside ``v``'s disk — all restricted to ``disk(v) ∩ region``.  Then each
    is tested against the neighbour disks, returning at the first one fewer
    than ``k`` of them cover.  With no check point at all, coverage needs
    ``k`` neighbour disks that contain ``v``'s.

    **Scan order is free.**  The answer is "does an uncovered check point
    exist", which no order of trying neighbours can change, so coverage is
    tried where it is likely: for ``k == 1`` first the neighbour that
    covered the previous point (check points arrive circle by circle, and
    that guess answers about seven in eight on a dense field), then — and
    for ``k >= 2`` from the start, counting — the neighbours nearest to
    ``v`` first, because a neighbour a few metres from ``v`` covers almost
    all of ``v``'s disk.  ``tests/ccp_oracle.py`` still tests every point
    against every neighbour in list order.

    Every intersection is computed with the operation order of
    :meth:`~repro.geometry.shapes.Circle.intersection_points` on
    :class:`~repro.geometry.vec.Vec2` (all radii equal ``rs``; circle *i*
    first, then ``v`` or the later circle *j*), so the decision is
    bit-identical to evaluating the rule on those objects — the oracle
    does, and the suite compares the two.
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
    inf = math.inf

    points: List[Tuple[float, float]] = []  # check points in disk(v) ∩ region
    keep = points.append
    for i, (ax, ay) in enumerate(centers):
        # Circle i against v's own circle, then against every later circle.
        # The former's crossings lie on v's boundary and are kept whatever
        # their computed distance from v reads; the latter's only inside
        # v's disk.
        for partners, limit in (
            (((vx, vy),), inf), (centers[i + 1:], inside_thr)
        ):
            for bx, by in partners:
                ex = bx - ax
                if ex > two_rs or ex < -two_rs:
                    continue
                ey = by - ay
                if ey > two_rs or ey < -two_rs:
                    continue
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
                # mid + offset, then mid - offset; tangent circles (h == 0)
                # have the one point mid, and mid + 0.0 is mid.
                px = mx + ox
                py = my + oy
                dx = vx - px
                dy = vy - py
                if dx * dx + dy * dy <= limit and (
                    not clipped or (x_lo <= px <= x_hi and y_lo <= py <= y_hi)
                ):
                    keep((px, py))
                if h == 0.0:
                    continue
                px = mx - ox
                py = my - oy
                dx = vx - px
                dy = vy - py
                if dx * dx + dy * dy <= limit and (
                    not clipped or (x_lo <= px <= x_hi and y_lo <= py <= y_hi)
                ):
                    keep((px, py))
    for p in boundary:
        dx = vx - p[0]
        dy = vy - p[1]
        if dx * dx + dy * dy <= inside_thr:
            keep(p)
    if not points:
        # No intersection structure: coverage requires containment by a set
        # of disks, which for circles means one disk contains mine (k of them).
        containing = 0
        for cx, cy in centers:
            if hypot(cx - vx, cy - vy) + rs <= rs + 1e-9:
                containing += 1
        return containing >= k

    nearest = sorted(
        [((cx - vx) ** 2 + (cy - vy) ** 2, cx, cy) for cx, cy in centers]
    )
    _, lx, ly = nearest[0]  # the neighbour that covered the previous point
    for px, py in points:
        if k == 1:
            dx = lx - px
            dy = ly - py
            if dx * dx + dy * dy < cover_thr:
                continue
        count = 0
        for _, cx, cy in nearest:
            dx = cx - px
            dy = cy - py
            if dx * dx + dy * dy < cover_thr:
                count += 1
                if count >= k:
                    lx = cx
                    ly = cy
                    break
        else:
            return False
    return True


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
