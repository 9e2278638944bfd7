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
pass is built around one table (:class:`_CrossingTable`): each pair's
crossings are computed once per ``select_active`` call and bucketed by
cell, and each node, in the shuffled order, gathers the crossings near it
whose two circles are both its active neighbours.  What is a node's own --
its neighbours' circles crossing its circle, the region's edges -- is
derived a batch of nodes at a time, and the points are tested against the
nearest neighbours first (:func:`_k_covered`; the order cannot change the
answer).  ``tests/ccp_oracle.py`` keeps deriving every point again for
every node and testing it against every neighbour in list order.

The table is small beside the world: int16 node ranks and float64 points,
~44 000 crossings (0.9 MB) on a 600-node field.  It is built in two passes
so that the build holds the pairs and their sort keys but never a second
table, and dropped when ``select_active`` returns, before the backbone is
applied.  One pass traces ~2 MB at its peak on that field (the scalar
kernel it replaced: ~0.5 MB).  What it leaves in the process's peak RSS
is mostly numpy's own code, paged in on first use.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional, Set, Tuple

import numpy as np

from ..geometry.grid import cell_of, cell_window
from ..geometry.shapes import Rect
from ..net.network import Network
from ..net.node import SensorNode
from .base import PowerManagementProtocol, repair_connectivity


#: required coverage degree K (the paper uses 1-coverage)
COVERAGE_DEGREE = 1


class CcpProtocol(PowerManagementProtocol):
    """Coverage Configuration Protocol backbone selection.

    K = :data:`COVERAGE_DEGREE`, and coverage is required only inside the
    deployment region (nodes at the field edge need not cover points
    outside it).  Bridge nodes are promoted if the coverage backbone is
    disconnected, which cannot happen when ``Rc >= 2 Rs`` (CCP+SPAN in the
    CCP paper).  The kernel pass itself, :func:`_eligibility_pass`, takes
    any K and region; its tests drive it directly.
    """

    name = "ccp"

    def select_active(self, network: Network, rng: np.random.Generator) -> Set[int]:
        order = list(network.nodes)
        rng.shuffle(order)  # type: ignore[arg-type]
        active = _eligibility_pass(
            network, order, network.config.sensing_range_m,
            COVERAGE_DEGREE, network.config.region,
        )
        repair_connectivity(network, active)
        return active


#: margin for strict-interior containment tests
_INTERIOR_EPS = 1e-6
#: neighbour disks every check point is tested against before the rest
_NEAREST = 4
#: elements in one block of the table's passes (128 KB of floats)
_SCAN_FLOATS = 16384
#: nodes of the order whose own check points are derived together
_BATCH = 32


def _grid_ranked(network: Network) -> List[SensorNode]:
    """The field's nodes in the static grid's one order: by cell (column,
    then row), registration order within a cell.  Every
    ``network.nodes_in_disk`` list is in this order, so of two nodes such a
    list returns, the earlier is the one of lower rank."""
    side = network.channel.grid.cell_size
    return sorted(
        network.nodes,
        key=lambda node: cell_of(node.position.x, node.position.y, 0.0, 0.0, side, side),
    )


def _hypot(ex: np.ndarray, ey: np.ndarray) -> np.ndarray:
    """``math.hypot`` elementwise: what ``Vec2.distance_to`` rounds to
    (``np.hypot`` differs in the last bit for a few pairs in a thousand)."""
    return np.fromiter(map(math.hypot, ex.tolist(), ey.tolist()), float, len(ex))


def _crossings(
    ax: np.ndarray, ay: np.ndarray, ex: np.ndarray, ey: np.ndarray,
    d: np.ndarray, rs: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Where circle *i*, centred at ``(ax, ay)``, crosses circle *j*, centred
    at ``(ax + ex, ay + ey)``: both of radius ``rs``, ``d`` their
    :func:`_hypot` distance, in ``(0, 2 rs]``.

    Returns the points as rows ``x`` and ``y`` -- every pair's first
    crossing, then the second of each pair that has one -- and each one's
    pair index.  Every step is the IEEE operation
    :meth:`~repro.geometry.shapes.Circle.intersection_points` applies on
    :class:`~repro.geometry.vec.Vec2` (circle *i* first), so the points are
    bit for bit that method's.
    """
    # Equal radii: Circle's (r0^2 - r1^2 + d^2) / 2d is (d^2) / 2d exactly
    # (0.0 + x == x) -- but not d / 2, which rounds apart.
    a = d * d / (2.0 * d)
    h = np.sqrt(np.maximum(rs * rs - a * a, 0.0))
    ux = ex / d
    uy = ey / d
    mx = ax + ux * a
    my = ay + uy * a
    ox = -uy * h
    oy = ux * h
    # mid + offset, then mid - offset; tangent circles (h == 0) have the one
    # point mid, and mid + 0.0 is mid.
    second = np.flatnonzero(h != 0.0)
    m = len(d)
    xy = np.empty((2, m + len(second)))
    np.add(mx, ox, out=xy[0, :m])
    np.add(my, oy, out=xy[1, :m])
    xy[0, m:] = (mx - ox)[second]
    xy[1, m:] = (my - oy)[second]
    return xy, np.concatenate((np.arange(m), second))


def _in_box(xy: np.ndarray, box: Tuple[float, float, float, float]) -> np.ndarray:
    """Indices of the points (rows ``x``, ``y``) inside ``box``,
    ``(x_lo, y_lo, x_hi, y_hi)``, edges included."""
    x_lo, y_lo, x_hi, y_hi = box
    x = xy[0]
    y = xy[1]
    return np.flatnonzero((x >= x_lo) & (x <= x_hi) & (y >= y_lo) & (y <= y_hi))


class _CrossingTable:
    """Every crossing of two sensing circles in the field, bucketed by cell.

    Nodes are numbered by :func:`_grid_ranked` rank; the constructor's
    ``xy`` holds their coordinates as rows ``x`` and ``y``.  Each pair
    within ``2 rs`` is stored once, lower rank first -- the orientation the
    eligibility rule computes it in -- with its crossings inside ``clip``
    (all of them when ``clip`` is None).  The table's ``xy[:, s:e]`` and
    ``ends[:, s:e]`` are crossings and their two circles' ranks, grouped by
    cells of side ``rs / 2``; :meth:`near` joins those of the cells a disk
    spans.

    Built in two passes over the pairs, a block at a time: the first finds
    each crossing's cell, the second writes it to its slot.  Beside the
    table only the pairs, the slots and one block's arrays are held, so the
    build's peak is not a second table.
    """

    def __init__(
        self, xy: np.ndarray, rs: float,
        clip: Optional[Tuple[float, float, float, float]],
    ) -> None:
        xs, ys = xy
        n = len(xs)
        two_rs = rs + rs
        rank_type = np.int16 if n <= np.iinfo(np.int16).max else np.int32
        firsts = [np.empty(0, rank_type)]
        seconds = [np.empty(0, rank_type)]
        dists = [np.empty(0)]
        block = max(1, _SCAN_FLOATS // n)
        for lo in range(0, n - 1, block):
            hi = min(lo + block, n - 1)
            # Ranks lo..hi-1 against every later rank (column c is rank
            # lo + 1 + c); the box test before any hypot.
            gap = np.abs(xs[lo + 1:] - xs[lo:hi, None])
            near = gap <= two_rs
            np.abs(ys[lo + 1:] - ys[lo:hi, None], out=gap)
            near &= gap <= two_rs
            row, col = np.nonzero(near)
            later = np.flatnonzero(col >= row)
            i = row[later] + lo
            j = col[later] + lo + 1
            d = _hypot(xs[j] - xs[i], ys[j] - ys[i])
            pair = np.flatnonzero((d != 0.0) & (d <= two_rs))
            firsts.append(i[pair].astype(rank_type))
            seconds.append(j[pair].astype(rank_type))
            dists.append(d[pair])
        first = np.concatenate(firsts)
        second = np.concatenate(seconds)
        d = np.concatenate(dists)
        del firsts, seconds, dists

        def crossings() -> Iterator[Tuple[np.ndarray, np.ndarray]]:
            """Each block of pairs' crossings inside ``clip``, and their ends
            (a block's ~8 temporaries together hold _SCAN_FLOATS floats)."""
            step = _SCAN_FLOATS // 8
            for lo in range(0, len(d), step):
                i = first[lo:lo + step]
                j = second[lo:lo + step]
                points, which = _crossings(
                    xs[i], ys[i], xs[j] - xs[i], ys[j] - ys[i], d[lo:lo + step], rs
                )
                ends = np.stack((i[which], j[which]))
                if clip is not None:
                    kept = _in_box(points, clip)
                    points = points[:, kept]
                    ends = ends[:, kept]
                yield points, ends

        # Every crossing lies on a circle, so within rs of a node.
        self.side = side = rs / 2.0
        self.x0 = float(xs.min()) - rs - side
        self.y0 = float(ys.min()) - rs - side
        self.cols = int((float(xs.max()) + rs + side - self.x0) // side) + 1
        self.rows = int((float(ys.max()) + rs + side - self.y0) // side) + 1
        key = np.concatenate(
            [np.empty(0, np.int32)] + [self._key(points) for points, _ in crossings()]
        )
        order = np.argsort(key, kind="stable")
        self.starts: List[int] = np.searchsorted(
            key[order], np.arange(self.rows * self.cols + 1)
        ).tolist()
        slot = np.empty(len(key), np.int32)
        slot[order] = np.arange(len(key), dtype=np.int32)
        del key, order
        self.xy = np.empty((2, len(slot)))
        self.ends = np.empty((2, len(slot)), rank_type)
        done = 0
        for points, ends in crossings():
            where = slot[done:done + points.shape[1]]
            done += points.shape[1]
            self.xy[:, where] = points
            self.ends[:, where] = ends

    def _key(self, points: np.ndarray) -> np.ndarray:
        """Row-major cell keys (repro.geometry.grid.cell_of, elementwise), so
        the cells of a window's row are one run of the table."""
        key = ((points[1] - self.y0) // self.side).astype(np.int32)
        key *= self.cols
        key += ((points[0] - self.x0) // self.side).astype(np.int32)
        return key

    def near(self, vx: float, vy: float, rs: float) -> Tuple[np.ndarray, np.ndarray]:
        """The crossings (and their ends) in the cells that the disk of
        radius ``rs`` at ``(vx, vy)`` spans."""
        i_lo, i_hi = cell_window(vx - rs, vx + rs, self.x0, self.side)
        j_lo, j_hi = cell_window(vy - rs, vy + rs, self.y0, self.side)
        first = max(i_lo, 0)
        last = min(i_hi, self.cols - 1) + 1
        starts = self.starts
        runs = [
            (starts[row + first], starts[row + last])
            for row in range(
                max(j_lo, 0) * self.cols, min(j_hi, self.rows - 1) * self.cols + 1, self.cols
            )
        ]
        return (
            np.concatenate([self.xy[:, s:e] for s, e in runs], axis=1),
            np.concatenate([self.ends[:, s:e] for s, e in runs], axis=1),
        )


def _eligibility_pass(
    network: Network,
    order: List[SensorNode],
    rs: float,
    k: int,
    region: Optional[Rect],
) -> Set[int]:
    """One CCP pass in ``order``: the ids of the nodes left active.

    A node sleeps when every check point of the intersection-point theorem
    in ``disk(v) ∩ region`` lies strictly inside ``k`` of its active
    coverage neighbours' disks: neighbour circles crossing ``v``'s circle,
    neighbour-circle pairs crossing inside ``v``'s disk and, when ``region``
    clips the requirement, circles (``v``'s own included) crossing the
    region's edges, and its corners, inside ``v``'s disk.  With no check
    point at all, coverage needs ``k`` neighbour disks that contain ``v``'s.

    Pair crossings come from one :class:`_CrossingTable`, gathered near
    ``v`` and kept when both circles are ``v``'s active neighbours and the
    point is in ``v``'s disk.  What is ``v``'s own -- its neighbours nearest
    first, their circles crossing ``v``'s (for about half the pairs the
    table's other orientation) and the boundary points -- is derived for
    ``_BATCH`` nodes of the order at a time by :func:`_own_points`; ``v``
    keeps what its active neighbours own.  :func:`_k_covered` tests the
    points.  ``tests/ccp_oracle.py`` evaluates the same rule on
    :class:`~repro.geometry.shapes.Circle` objects, every point against
    every neighbour, and the suite requires the identical set.
    """
    two_rs = 2.0 * rs
    inside_thr = (rs + 1e-9) ** 2  # Circle.contains: boundary included
    # Strict-interior containment: a point on a circle's own boundary is
    # NOT covered by that circle for the purposes of the theorem -- the area
    # just beyond the boundary would be uncovered (open-disk semantics).
    cover_thr = (rs - _INTERIOR_EPS) ** 2
    ranked = _grid_ranked(network)
    n = len(ranked)
    rank = {node.node_id: r for r, node in enumerate(ranked)}
    xy = np.array([[node.position.x for node in ranked], [node.position.y for node in ranked]])
    clip = None
    edges = np.empty((2, 0))
    edge_owner = np.empty(0, np.intp)
    if region is not None:
        clip = (
            region.x_min - 1e-9, region.y_min - 1e-9,
            region.x_max + 1e-9, region.y_max + 1e-9,
        )
        # Where each circle crosses the region's edges (owner: its rank),
        # and the corners (owner n).
        boundary: List[Tuple[float, float]] = []
        owners: List[int] = []
        for r, node in enumerate(ranked):
            crossing = _circle_rect_edge_intersections(
                node.position.x, node.position.y, rs, region
            )
            boundary += crossing
            owners += [r] * len(crossing)
        boundary += [(corner.x, corner.y) for corner in region.corners()]
        owners += [n] * 4
        edges = np.array(boundary).T
        edge_owner = np.array(owners)
    table = _CrossingTable(xy, rs, clip)
    # mask[r]: whether rank r is an active neighbour of the node being
    # checked; entry n (owner of what is kept whoever is active) stays set.
    mask = np.zeros(n + 1, bool)
    mask[n] = True
    # Who is still awake, by rank: a list for the per-node filter, an array
    # for the table's.
    alive = [True] * n
    up = np.ones(n, bool)
    for first in range(0, len(order), _BATCH):
        batch = [rank[node.node_id] for node in order[first:first + _BATCH]]
        found = [
            [rank[other.node_id] for other in network.nodes_in_disk(ranked[v].position, two_rs)]
            for v in batch
        ]
        nearest, own_xy, own_owner, starts = _own_points(
            batch, found, up, xy, rs, clip, edges, edge_owner, inside_thr
        )
        for b, v in enumerate(batch):
            # Coverage neighbours: active nodes whose sensing disks can
            # overlap v's, i.e. within 2 * Rs.
            nb = [s for s in nearest[b] if alive[s]]
            if len(nb) < k:
                continue
            vx = ranked[v].position.x
            vy = ranked[v].position.y
            mask[nb] = True
            near, ends = table.near(vx, vy, rs)
            dx = near[0] - vx
            dx *= dx
            dy = near[1] - vy
            dy *= dy
            dx += dy
            keep = dx <= inside_thr
            keep &= mask[ends[0]]
            keep &= mask[ends[1]]
            lo, hi = starts[b], starts[b + 1]
            points = np.concatenate(
                (
                    np.compress(mask[own_owner[lo:hi]], own_xy[:, lo:hi], axis=1),
                    np.compress(keep, near, axis=1),
                ),
                axis=1,
            )
            mask[nb] = False
            if _k_covered(points, xy[:, nb], vx, vy, rs, k, cover_thr):
                alive[v] = False
                up[v] = False
    return {node.node_id for node, awake in zip(ranked, alive) if awake}


def _own_points(
    batch: List[int],
    found: List[List[int]],
    up: np.ndarray,
    xy: np.ndarray,
    rs: float,
    clip: Optional[Tuple[float, float, float, float]],
    edges: np.ndarray,
    edge_owner: np.ndarray,
    inside_thr: float,
) -> Tuple[List[List[int]], np.ndarray, np.ndarray, List[int]]:
    """The part of each node's check that does not depend on who falls
    asleep during the batch, for node ``batch[b]`` (a rank) whose
    ``nodes_in_disk`` query returned the ranks ``found[b]``.

    Returns the node's coverage candidates that are ``up``, nearest first;
    and, as ``xy[:, starts[b]:starts[b + 1]]`` with each point's owner rank,
    every such candidate's circle crossing the node's own (the candidate's
    circle first; inside ``clip``, whatever their distance from the node)
    and the ``edges`` inside the node's disk owned by such a candidate, the
    node itself or a corner.  Points owned by the node itself or a corner
    carry owner ``len(up)``, which the caller always keeps.
    """
    n = len(up)
    at = np.array(batch)
    members = np.repeat(np.arange(len(batch)), [len(f) for f in found])
    others = np.array([s for f in found for s in f], np.intp)
    candidate = np.flatnonzero((others != at[members]) & up[others])
    members = members[candidate]
    others = others[candidate]
    ex = xy[0, at[members]] - xy[0, others]
    ey = xy[1, at[members]] - xy[1, others]
    # Nearest first, by member: the order only steers _k_covered's search,
    # so the squared distance is cut to 2^16 steps.
    step = (4.0 * rs * rs + 1.0) / 65536.0
    by_distance = np.argsort(
        (members * 65536 + (ex * ex + ey * ey) // step).astype(np.int32), kind="stable"
    )
    bounds = np.searchsorted(members[by_distance], np.arange(1, len(batch))).tolist()
    nearest = [run.tolist() for run in np.split(others[by_distance], bounds)]
    # Each neighbour's circle (first) against the node's own.
    d = _hypot(ex, ey)
    pair = np.flatnonzero((d != 0.0) & (d <= rs + rs))
    points, which = _crossings(
        xy[0, others[pair]], xy[1, others[pair]], ex[pair], ey[pair], d[pair], rs
    )
    pair = pair[which]
    owner = others[pair]
    member = members[pair]
    if clip is not None:
        kept = _in_box(points, clip)
        points = points[:, kept]
        owner = owner[kept]
        member = member[kept]
        # Boundary points owned by a neighbour, the node itself or a corner,
        # inside the node's disk.
        seen = np.zeros((len(batch), n + 1), bool)
        seen[members, others] = True
        seen[np.arange(len(batch)), at] = True
        seen[:, n] = True
        on, q = np.nonzero(seen[:, edge_owner])
        dx = edges[0, q] - xy[0, at[on]]
        dx *= dx
        dy = edges[1, q] - xy[1, at[on]]
        dy *= dy
        dx += dy
        inside = np.flatnonzero(dx <= inside_thr)
        on = on[inside]
        q = q[inside]
        mine = edge_owner[q]
        mine[mine == at[on]] = n
        points = np.concatenate((points, edges[:, q]), axis=1)
        owner = np.concatenate((owner, mine))
        member = np.concatenate((member, on))
    grouped = np.argsort(member, kind="stable")
    starts = np.searchsorted(member[grouped], np.arange(len(batch) + 1)).tolist()
    return nearest, points[:, grouped], owner[grouped], starts


def _k_covered(
    points: np.ndarray, centres: np.ndarray, vx: float, vy: float,
    rs: float, k: int, cover_thr: float,
) -> bool:
    """Whether every check point (rows ``x``, ``y``) lies strictly inside
    ``k`` of the disks at ``centres`` (nearest the node first) -- or, with
    no check point, ``k`` of them contain the node's disk of radius ``rs``
    at ``(vx, vy)``.

    The points are tested against the ``_NEAREST`` first disks, then those
    left short against four times as many more, and so on: the answer is
    "is a point short", which no order can change, and a neighbour a few
    metres from the node covers almost all of its disk.
    """
    if not points.shape[1]:
        # No intersection structure: coverage requires containment by a set
        # of disks, which for circles means one disk contains mine (k of them).
        containing = 0
        for cx, cy in zip(*centres.tolist()):
            if math.hypot(cx - vx, cy - vy) + rs <= rs + 1e-9:
                containing += 1
        return containing >= k
    count = _covering(points, centres[:, :_NEAREST], cover_thr)
    stop = _NEAREST
    while True:
        short = np.flatnonzero(count < k)
        if not len(short):
            return True
        if stop >= centres.shape[1]:
            return False
        points = points[:, short]
        count = count[short] + _covering(points, centres[:, stop:4 * stop], cover_thr)
        stop *= 4


def _covering(points: np.ndarray, centres: np.ndarray, cover_thr: float) -> np.ndarray:
    """How many of the disks at ``centres`` hold each point strictly inside."""
    dx = centres[0, :, None] - points[0]
    dx *= dx
    dy = centres[1, :, None] - points[1]
    dy *= dy
    dx += dy
    return (dx < cover_thr).sum(axis=0)


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
