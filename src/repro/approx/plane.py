"""The multiresolution summary plane.

Backbone nodes already beacon every sleep period (the PSM duty cycle);
the summary plane models each node piggybacking its current reading on
that beacon, so per-region partial aggregates are available in-network
at zero additional frames.  The plane keeps those partials at
:data:`NUM_LEVELS` nested grid resolutions over the deployment region
and answers a query disk by composing the cells that cover it.

Its cells are :mod:`repro.geometry.grid`'s, from the region's corner (a
shard's own): a node's cell is clamped to the region, and a disk's window
carries the one slack, so a cell the disk only grazes still meets the test.

Two refresh paths feed a cell:

* **beacon snapshots** — materialised lazily: when a cell is first
  needed (or its snapshot predates the most recent beacon window), the
  plane records every member node's reading as of the window opening.
  Readings therefore age up to one beacon interval, which is exactly
  the staleness an approximate session can observe.
* **report overlay** — the exact protocol's report traffic already
  carries fresh readings; the plane overhears them
  (:meth:`SummaryPlane.observe`) and overlays them on the snapshot.
  Overheard readings never advance the staleness clock (one fresh
  reading says nothing about the cell's other members) — they only
  sharpen values.

Answers carry a declared ``error_bound``:

* ``AVG``/``MIN``/``MAX`` — the summary aggregates a *superset* of the
  query disk (whole cells), so both the summary answer and the exact
  answer are bracketed by the observed value range; the bound is
  ``maximum - minimum`` over the composed cells.
* ``COUNT``/``SUM`` — population-dependent: the answer is the midpoint
  between the cells fully inside the disk (``inner``) and every
  intersecting cell (``outer``), with bound ``(outer - inner) / 2``
  (assumes non-negative readings for ``SUM``, which the sensor
  attributes here satisfy).

The plane is deliberately inert on the exact path: it draws no RNG,
schedules no kernel events and sends no frames — a run without
approximate sessions never constructs one, and a mixed run's plane only
does dictionary work inside callbacks that already existed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..core.query import Aggregation
from ..geometry.grid import cell_bounds, cell_of, cell_window, gap_sq
from ..geometry.vec import Vec2
from ..net.network import Network

#: grid columns/rows at level 0 (each finer level doubles both)
GRID_BASE = 4

#: nested resolutions maintained by the plane (level 0 = coarsest)
NUM_LEVELS = 3

#: finest level a session of each accuracy class may drill down to.
#: ``coarse`` stays on the two coarse grids; ``medium`` may reach the
#: finest.  (``exact`` never consults the plane at all.)
ACCURACY_LEVEL_CAP = {"coarse": 1, "medium": 2}

#: slack when comparing summary age against a freshness bound (float
#: noise at beacon-window boundaries must not flip a period degraded)
_FRESHNESS_EPS = 1e-6


@dataclass
class _Cell:
    """One grid cell: beacon snapshot + overheard-report overlay."""

    #: node_id -> reading as of the snapshot window (``sampled_s``)
    readings: Dict[int, float] = field(default_factory=dict)
    #: beacon-window opening the snapshot dates from
    sampled_s: float = -float("inf")
    #: fresher readings overheard on report traffic since the snapshot
    overlay: Dict[int, float] = field(default_factory=dict)


@dataclass
class _SessionState:
    """Per-session drill-down bookkeeping (the census counts these)."""

    accuracy: str
    answers: int = 0
    last_level: Optional[int] = None


@dataclass(frozen=True)
class SummaryAnswer:
    """One period's answer composed from cached summaries.

    Carries the composable sufficient statistics (``count``/``total``/
    ``minimum``/``maximum`` over the covering cells) so answers from
    disjoint worlds — cluster shards — merge associatively via
    :func:`merge_answers`.
    """

    value: float
    error_bound: float
    #: distinct readings composed into the answer
    contributors: int
    #: contributing node ids (empty for cross-shard merged answers,
    #: where per-world ids are not comparable)
    contributor_ids: FrozenSet[int]
    #: resolution level the drill-down settled on
    level: int
    #: covering cells composed (outer set)
    cells: int
    #: age of the oldest snapshot used
    age_s: float
    #: True when ``age_s`` exceeds the session's freshness bound
    degraded: bool
    # -- associative raw statistics (outer / inner cell sets) --
    count: int
    total: float
    minimum: float
    maximum: float
    inner_count: int
    inner_total: float


class SummaryPlane:
    """Per-world multiresolution summary cache.

    One plane serves every approximate session of a service instance; it
    is created on the first approximate admission so exact-only runs
    never carry one.
    """

    def __init__(self, network: Network) -> None:
        self.network = network
        self.sim = network.sim
        self.region = network.config.region
        self._psm = network.config.psm
        #: per-level lazily-materialised cells
        self._cells: List[Dict[Tuple[int, int], _Cell]] = [
            {} for _ in range(NUM_LEVELS)
        ]
        #: per-level static cell membership (sensor nodes never move)
        self._members: List[Dict[Tuple[int, int], List]] = [
            {} for _ in range(NUM_LEVELS)
        ]
        for level in range(NUM_LEVELS):
            members = self._members[level]
            for node in network.nodes:
                members.setdefault(self._cell_at(node.position, level), []).append(
                    node
                )
        #: live approximate sessions (keyed like all protocol state)
        self._sessions: Dict[Tuple[int, int], _SessionState] = {}

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def grid_shape(self, level: int) -> Tuple[int, int]:
        n = GRID_BASE * (2**level)
        return (n, n)

    def cell_extent(self, level: int) -> Tuple[float, float]:
        nx, ny = self.grid_shape(level)
        return (self.region.width / nx, self.region.height / ny)

    def cell_size_m(self, level: int) -> float:
        """Characteristic cell size (the larger side) at ``level``."""
        return max(self.cell_extent(level))

    def _cell_at(self, position: Vec2, level: int) -> Tuple[int, int]:
        """The cell holding ``position``, clamped to the region (a node on
        the far edge belongs to the last cell)."""
        nx, ny = self.grid_shape(level)
        w, h = self.cell_extent(level)
        region = self.region
        cx, cy = cell_of(position.x, position.y, region.x_min, region.y_min, w, h)
        return (min(nx - 1, max(0, cx)), min(ny - 1, max(0, cy)))

    def _covering_cells(
        self, center: Vec2, radius_m: float, level: int
    ) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]:
        """(outer, inner) cell indices: intersecting vs fully-contained."""
        nx, ny = self.grid_shape(level)
        w, h = self.cell_extent(level)
        x_min, y_min = self.region.x_min, self.region.y_min
        x, y = center.x, center.y
        lo_x, hi_x = cell_window(x - radius_m, x + radius_m, x_min, w)
        lo_y, hi_y = cell_window(y - radius_m, y + radius_m, y_min, h)
        outer: List[Tuple[int, int]] = []
        inner: List[Tuple[int, int]] = []
        r_sq = radius_m * radius_m
        for cx in range(max(0, lo_x), min(nx - 1, hi_x) + 1):
            for cy in range(max(0, lo_y), min(ny - 1, hi_y) + 1):
                x0, y0, x1, y1 = cell_bounds(cx, cy, x_min, y_min, w, h)
                if gap_sq(x, y, x0, y0, x1, y1) <= r_sq:
                    outer.append((cx, cy))
                    fx = (x0 if x - x0 > x1 - x else x1) - x
                    fy = (y0 if y - y0 > y1 - y else y1) - y
                    if fx * fx + fy * fy <= r_sq:
                        inner.append((cx, cy))
        return outer, inner

    # ------------------------------------------------------------------
    # Refresh
    # ------------------------------------------------------------------
    def last_window_start(self, now: float) -> float:
        """Opening time of the most recent beacon window at ``now``."""
        return now - self._psm.window_phase(now)

    def _refresh_cell(self, index: Tuple[int, int], level: int, now: float) -> _Cell:
        """Materialise/advance a cell's snapshot to the latest window."""
        window = self.last_window_start(now)
        cell = self._cells[level].get(index)
        if cell is None:
            cell = _Cell()
            self._cells[level][index] = cell
        if cell.sampled_s < window:
            members = self._members[level].get(index, ())
            # readings as of the window opening — what the nodes' beacons
            # carried.  field.value() is deterministic and RNG-free.
            cell.readings = {
                node.node_id: node.field.value(node.position, window)
                for node in members
            }
            cell.sampled_s = window
            cell.overlay.clear()
        return cell

    def observe(self, node_id: int, position: Vec2, value: float, now: float) -> None:
        """Overhear one reading from the exact protocol's report traffic.

        Only cells that are already materialised (i.e. some approximate
        session queried them) are updated — the plane never grows state
        on behalf of exact traffic nobody summarises.
        """
        for level in range(NUM_LEVELS):
            cell = self._cells[level].get(self._cell_at(position, level))
            if cell is not None and now >= cell.sampled_s:
                cell.overlay[node_id] = value

    # ------------------------------------------------------------------
    # Sessions / drill-down
    # ------------------------------------------------------------------
    def register_session(self, key: Tuple[int, int], accuracy: str) -> None:
        if accuracy not in ACCURACY_LEVEL_CAP:
            raise ValueError(
                f"accuracy {accuracy!r} does not use the summary plane"
            )
        self._sessions[key] = _SessionState(accuracy=accuracy)

    def release_session(self, key: Tuple[int, int]) -> None:
        """Drop all per-session drill state (idempotent; cancel support)."""
        self._sessions.pop(key, None)

    def session_count(self) -> int:
        """Sessions registered and not yet released."""
        return len(self._sessions)

    def drill_level(self, radius_m: float, accuracy: str) -> int:
        """Finest level the query disk demands, capped by the accuracy class.

        Escalation is driven purely by the user's radius: a disk smaller
        than a cell would inherit the whole cell's population, so the
        drill descends until cells are commensurate with the disk (or
        the accuracy class's cap stops it).
        """
        cap = ACCURACY_LEVEL_CAP[accuracy]
        level = 0
        while level < cap and self.cell_size_m(level) > 2.0 * radius_m:
            level += 1
        return level

    # ------------------------------------------------------------------
    # Answers
    # ------------------------------------------------------------------
    def answer(
        self,
        center: Vec2,
        radius_m: float,
        accuracy: str,
        freshness_s: float,
        aggregation: Aggregation,
        session_key: Optional[Tuple[int, int]] = None,
    ) -> Optional[SummaryAnswer]:
        """Answer one query disk from cached summaries (None = no data)."""
        now = self.sim.now
        level = self.drill_level(radius_m, accuracy)
        outer, inner = self._covering_cells(center, radius_m, level)
        inner_set = set(inner)
        values: Dict[int, float] = {}
        inner_values: Dict[int, float] = {}
        oldest = now
        used = 0
        for index in outer:
            cell = self._refresh_cell(index, level, now)
            if not cell.readings and not cell.overlay:
                continue
            used += 1
            oldest = min(oldest, cell.sampled_s)
            composed = dict(cell.readings)
            composed.update(cell.overlay)
            values.update(composed)
            if index in inner_set:
                inner_values.update(composed)
        if not values:
            return None
        if session_key is not None and session_key in self._sessions:
            state = self._sessions[session_key]
            state.answers += 1
            state.last_level = level
        age = max(0.0, now - oldest)
        degraded = age > freshness_s + _FRESHNESS_EPS
        count = len(values)
        total = sum(values.values())
        minimum = min(values.values())
        maximum = max(values.values())
        inner_count = len(inner_values)
        inner_total = sum(inner_values.values())
        value, bound = _finalize(
            aggregation, count, total, minimum, maximum, inner_count, inner_total
        )
        return SummaryAnswer(
            value=value,
            error_bound=bound,
            contributors=count,
            contributor_ids=frozenset(values),
            level=level,
            cells=used,
            age_s=age,
            degraded=degraded,
            count=count,
            total=total,
            minimum=minimum,
            maximum=maximum,
            inner_count=inner_count,
            inner_total=inner_total,
        )


def _finalize(
    aggregation: Aggregation,
    count: int,
    total: float,
    minimum: float,
    maximum: float,
    inner_count: int,
    inner_total: float,
) -> Tuple[float, float]:
    """(value, error_bound) from composed outer/inner statistics."""
    spread = maximum - minimum
    if aggregation is Aggregation.COUNT:
        value = 0.5 * (count + inner_count)
        return value, 0.5 * (count - inner_count)
    if aggregation is Aggregation.SUM:
        value = 0.5 * (total + inner_total)
        return value, 0.5 * abs(total - inner_total)
    if aggregation is Aggregation.MIN:
        return minimum, spread
    if aggregation is Aggregation.MAX:
        return maximum, spread
    # AVG: both the summary and the exact answer are convex combinations
    # of readings drawn from the covering cells.
    return total / count, spread


def merge_answers(
    answers: Sequence[SummaryAnswer], aggregation: Aggregation
) -> Optional[SummaryAnswer]:
    """Merge per-world answers into one boundary-free answer.

    The statistics carried on :class:`SummaryAnswer` are associative, so
    a cluster router can compose per-shard summaries without any shard
    seeing across its boundary.  Contributor *ids* are dropped (each
    shard numbers its own world); the contributor *count* survives.
    """
    answers = [a for a in answers if a is not None]
    if not answers:
        return None
    count = sum(a.count for a in answers)
    total = sum(a.total for a in answers)
    minimum = min(a.minimum for a in answers)
    maximum = max(a.maximum for a in answers)
    inner_count = sum(a.inner_count for a in answers)
    inner_total = sum(a.inner_total for a in answers)
    value, bound = _finalize(
        aggregation, count, total, minimum, maximum, inner_count, inner_total
    )
    return SummaryAnswer(
        value=value,
        error_bound=bound,
        contributors=count,
        contributor_ids=frozenset(),
        level=min(a.level for a in answers),
        cells=sum(a.cells for a in answers),
        age_s=max(a.age_s for a in answers),
        degraded=any(a.degraded for a in answers),
        count=count,
        total=total,
        minimum=minimum,
        maximum=maximum,
        inner_count=inner_count,
        inner_total=inner_total,
    )
