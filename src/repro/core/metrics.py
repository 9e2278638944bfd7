"""Evaluation metrics — the paper's Section 6 measures plus Section 5 traces.

* **Data fidelity** (per period): contributing nodes inside the query area
  around the user's *actual* position at the deadline, over all nodes in
  that area.
* **Success ratio**: fraction of periods whose result arrived by the
  deadline with fidelity above the threshold (95% in the paper).
* **Power**: average radio draw per sleeping node over the run (Figure 8).
* **Storage** (Section 5.2): live query-tree states and the *prefetch
  length* — how many periods ahead of the user trees exist.
* **Contention** (Section 5.4): the *interference length* — how many tree
  setups overlap a given tree's setup in both time and space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..geometry.shapes import Circle
from ..geometry.vec import Vec2
from ..mobility.path import PiecewisePath
from ..net.network import Network
from ..sim.trace import TraceRecord, Tracer
from .gateway import BaseGateway
from .query import QuerySpec

#: the paper's data-fidelity success bar
DEFAULT_FIDELITY_THRESHOLD = 0.95


@dataclass(frozen=True)
class PeriodRecord:
    """Everything the evaluation needs to know about one query period.

    ``fidelity`` follows the paper: contributors over the node population
    of the *queried* area (the area the service executed the query on).
    ``fidelity_actual`` additionally scores against the area centred on the
    user's true position at the deadline — it differs from ``fidelity``
    exactly by the motion-prediction error, which ``prediction_error_m``
    reports directly.
    """

    k: int
    deadline: float
    user_position: Vec2
    area_node_count: int
    delivered_at: Optional[float]
    value: Optional[float]
    contributors_in_area: int
    fidelity: float
    fidelity_actual: float
    prediction_error_m: float
    on_time: bool
    success: bool


@dataclass
class SessionMetrics:
    """Per-period records plus the headline ratios."""

    records: List[PeriodRecord]
    fidelity_threshold: float = DEFAULT_FIDELITY_THRESHOLD

    @property
    def num_periods(self) -> int:
        return len(self.records)

    def success_ratio(self) -> float:
        """Fraction of periods that met deadline and fidelity bar."""
        if not self.records:
            return 0.0
        return sum(1 for r in self.records if r.success) / len(self.records)

    def deadline_ratio(self) -> float:
        """Fraction of periods with an on-time delivery (any fidelity)."""
        if not self.records:
            return 0.0
        return sum(1 for r in self.records if r.on_time) / len(self.records)

    def mean_fidelity(self) -> float:
        """Average data fidelity across all periods."""
        if not self.records:
            return 0.0
        return sum(r.fidelity for r in self.records) / len(self.records)

    def fidelity_series(self) -> List[Tuple[int, float]]:
        """``(k, fidelity)`` pairs — the Figure 5 trace."""
        return [(r.k, r.fidelity) for r in self.records]

    def warmup_periods_observed(self, run_length: int = 3) -> int:
        """Measured warmup: periods before fidelity first stays above the
        threshold for ``run_length`` consecutive periods.

        Returns the number of below-par leading periods (0 = no warmup);
        if the run never stabilizes, returns the period count.
        """
        good = 0
        for index, record in enumerate(self.records):
            if record.fidelity >= self.fidelity_threshold:
                good += 1
                if good >= run_length:
                    return index + 1 - run_length
            else:
                good = 0
        return len(self.records)


def _area_ids(network: Network, area: Circle) -> Set[int]:
    """Ids of the nodes ``area.contains`` — the area the query tree accepts.

    The grid's disk query is narrower at the fringe (``d² <= r² + 1e-9``
    against the circle's ``(r + 1e-9)²``), so it gathers over the band's
    outer edge and the circle decides.
    """
    return {
        node.node_id
        for node in network.nodes_in_disk(area.center, area.radius + 1e-9)
        if area.contains(node.position)
    }


def build_session_metrics(
    gateway: BaseGateway,
    network: Network,
    spec: QuerySpec,
    true_path: PiecewisePath,
    duration_s: float,
    fidelity_threshold: float = DEFAULT_FIDELITY_THRESHOLD,
) -> SessionMetrics:
    """Convert raw delivery records into per-period metrics.

    For each period the *last on-time* delivery observation is scored (for
    MobiQuery there is normally exactly one result message; for NP the
    aggregate grows as reports trickle in, so the last on-time observation
    is the state at the deadline).
    """
    records: List[PeriodRecord] = []
    # Deadlines past the run horizon never had a chance to be served:
    # score only the periods whose deadline falls inside the run.
    in_run = int((duration_s - spec.start_s) / spec.period_s + 1e-9)
    periods = min(spec.num_periods, max(0, in_run))
    for k in range(1, periods + 1):
        deadline = spec.deadline(k)
        user_position = true_path.position_at(deadline)
        actual_ids = _area_ids(network, spec.area_at(user_position))
        chosen, met_deadline = gateway.best_delivery(k)
        contributors_in_area = 0
        fidelity = 0.0
        fidelity_actual = 0.0
        prediction_error = 0.0
        delivered_at = None
        value = None
        if chosen is not None:
            delivered_at = chosen.time
            value = chosen.value
            contributors = set(chosen.contributors)
            queried_center = chosen.area_center or user_position
            prediction_error = queried_center.distance_to(user_position)
            queried_ids = _area_ids(network, spec.area_at(queried_center))
            contributors_in_area = len(queried_ids & contributors)
            if queried_ids:
                fidelity = contributors_in_area / len(queried_ids)
            if actual_ids:
                fidelity_actual = len(actual_ids & contributors) / len(actual_ids)
        records.append(
            PeriodRecord(
                k=k,
                deadline=deadline,
                user_position=user_position,
                area_node_count=len(actual_ids),
                delivered_at=delivered_at,
                value=value,
                contributors_in_area=contributors_in_area,
                fidelity=fidelity,
                fidelity_actual=fidelity_actual,
                prediction_error_m=prediction_error,
                on_time=met_deadline,
                success=met_deadline and fidelity >= fidelity_threshold,
            )
        )
    return SessionMetrics(records, fidelity_threshold)


# ----------------------------------------------------------------------
# Storage (Section 5.2)
# ----------------------------------------------------------------------
class StorageTracker:
    """Tracks live tree states and prefetch length from trace events.

    Subscribe *before* the run starts; the tracker listens for
    ``collector-assigned`` / ``collector-released`` and ``tree-created`` /
    ``tree-released`` events.  The MobiQuery engine's ``collector-assigned``
    records carry their session's ``spec``, so a tracker on a service's
    tracer learns every session's clock as its first collector is assigned.

    ``max_prefetch_length`` is a running maximum, and between two of its own
    assignments a session's chain can only shorten (collectors are released,
    its current period advances).  So an assignment recounts the assigned
    session alone, not the fleet — plus any session whose spec changed under
    live collectors since, the one other way a chain can read longer.
    """

    def __init__(
        self,
        tracer: Tracer,
        spec: Optional[QuerySpec] = None,
        specs: Optional[List[QuerySpec]] = None,
    ) -> None:
        self.spec = spec
        # session key -> spec, so each session's period arithmetic uses its
        # own origin *and its own period length* — a heterogeneous workload
        # mixes period_s values, and "how many periods ahead" is only
        # meaningful against the owning session's clock.  Sessions can be
        # registered up front (``specs``), later (:meth:`register_spec`),
        # or by the ``spec`` an assignment record carries.
        self._spec_by_session: Dict[Tuple[int, int], QuerySpec] = {
            s.session_key: s
            for s in (specs if specs is not None else ([spec] if spec else []))
        }
        # (user, query) -> periods with a live collector; keyed per session
        # so concurrent users on one network cannot clobber each other's
        # chain state.
        self._live_collectors: Dict[Tuple[int, int], Set[int]] = {}
        # sessions whose chain may read longer than when last counted
        self._to_recount: Set[Tuple[int, int]] = set()
        self.live_tree_states = 0
        self.max_tree_states = 0
        self.max_prefetch_length = 0
        tracer.subscribe("collector-assigned", self._on_assigned)
        tracer.subscribe("collector-released", self._on_released)
        tracer.subscribe("tree-created", self._on_tree_created)
        tracer.subscribe("tree-released", self._on_tree_released)

    def register_spec(self, spec: QuerySpec) -> None:
        """Register (or update) one session's spec for period arithmetic.

        For records that carry no ``spec`` of their own: the service
        façade admits sessions while the run is live, so the tracker
        cannot always know every spec at construction time.
        """
        self._spec_by_session[spec.session_key] = spec
        self._clock_changed(spec.session_key)

    def _clock_changed(self, session_key: Tuple[int, int]) -> None:
        if session_key in self._live_collectors:
            self._to_recount.add(session_key)

    @staticmethod
    def _session_key(record: TraceRecord) -> Tuple[int, int]:
        return (record.get("user", 0), record.get("query", 0))

    def _on_assigned(self, record: TraceRecord) -> None:
        key = self._session_key(record)
        spec = record.get("spec")
        if spec is not None:
            self.register_spec(spec)
        self._live_collectors.setdefault(key, set()).add(record["k"])
        self._to_recount.add(key)
        for key in self._to_recount:
            self._count_prefetch_length(key, record.time)
        self._to_recount.clear()

    def _on_released(self, record: TraceRecord) -> None:
        key = self._session_key(record)
        live = self._live_collectors.get(key)
        if live is not None:
            live.discard(record["k"])
            if not live:
                del self._live_collectors[key]

    def _on_tree_created(self, record: TraceRecord) -> None:
        self.live_tree_states += 1
        self.max_tree_states = max(self.max_tree_states, self.live_tree_states)

    def _on_tree_released(self, record: TraceRecord) -> None:
        self.live_tree_states -= 1

    def _count_prefetch_length(self, session_key: Tuple[int, int], now: float) -> None:
        """Prefetch length: trees set up ahead of the user's current period.

        With several sessions live, the reported length is the worst
        (longest) per-session chain — the per-node storage bound the paper
        analyses is per chain.  Each session's "current period" is computed
        against its own spec (``start_s`` *and* ``period_s``): under a
        heterogeneous workload a collector for period ``k`` of a slow
        session (say ``Tperiod = 5 s``) is much farther in the future than
        period ``k`` of a fast one, and folding both onto one reference
        period length (the old single-spec fallback) over- or under-counts
        the chain.  Sessions with no registered spec fall back to the
        tracker's primary spec when one was given, else they are skipped
        (their window cannot be computed).
        """
        spec = self._spec_by_session.get(session_key, self.spec)
        if spec is None:
            return
        current = spec.period_index(now)
        length = 0
        for k in self._live_collectors.get(session_key, ()):
            if k > current:
                length += 1
        if length > self.max_prefetch_length:
            self.max_prefetch_length = length


# ----------------------------------------------------------------------
# Contention (Section 5.4)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SetupInterval:
    """One tree setup: when it started and where its root sits."""

    k: int
    start: float
    end: float
    pickup: Vec2


class ContentionTracker:
    """Measures the interference length from ``tree-setup-start`` events.

    A tree's setup occupies ``[start, end]`` where ``end`` is the close of
    the first PSM beacon window after the start (sleeping members cannot be
    reached before that window; nothing about the tree transmits after it).
    Two setups interfere when their intervals overlap and their roots are
    within ``2 * Rq + Rc`` (paper Figure 3).
    """

    def __init__(
        self,
        tracer: Tracer,
        sleep_period_s: float,
        active_window_s: float,
        query_radius_m: float,
        comm_range_m: float,
        psm_offset_s: float = 0.0,
    ) -> None:
        self.sleep_period_s = sleep_period_s
        self.active_window_s = active_window_s
        self.psm_offset_s = psm_offset_s
        self.interference_range_m = 2.0 * query_radius_m + comm_range_m
        self.intervals: List[SetupInterval] = []
        tracer.subscribe("tree-setup-start", self._on_setup)

    def _on_setup(self, record: TraceRecord) -> None:
        start = record.time
        shifted = start - self.psm_offset_s
        window_start = (
            math.floor(shifted / self.sleep_period_s) + 1.0
        ) * self.sleep_period_s + self.psm_offset_s
        end = window_start + self.active_window_s
        self.intervals.append(
            SetupInterval(
                k=record["k"],
                start=start,
                end=end,
                pickup=Vec2(record["pickup_x"], record["pickup_y"]),
            )
        )

    def interference_length(self) -> int:
        """Max count of setups interfering with any single tree's setup."""
        worst = 0
        r_sq = self.interference_range_m * self.interference_range_m
        for a in self.intervals:
            count = 0
            for b in self.intervals:
                if a is b:
                    continue
                if a.start <= b.end and b.start <= a.end and (
                    a.pickup.distance_sq_to(b.pickup) <= r_sq
                ):
                    count += 1
            worst = max(worst, count)
        return worst


# ----------------------------------------------------------------------
# Power (Figure 8)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PowerReport:
    """Average radio draw per node class over a run."""

    mean_sleeper_power_w: float
    mean_active_power_w: float
    sleeper_count: int
    active_count: int


def measure_power(network: Network) -> PowerReport:
    """Read the energy meters: the paper's per-sleeping-node average power."""
    sleepers = network.sleeper_nodes
    active = network.active_nodes
    sleeper_power = [n.radio.energy.average_power_w() for n in sleepers]
    active_power = [n.radio.energy.average_power_w() for n in active]
    return PowerReport(
        mean_sleeper_power_w=(
            sum(sleeper_power) / len(sleeper_power) if sleeper_power else 0.0
        ),
        mean_active_power_w=(
            sum(active_power) / len(active_power) if active_power else 0.0
        ),
        sleeper_count=len(sleepers),
        active_count=len(active),
    )
