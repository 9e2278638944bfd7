"""The MobiQuery node-side protocol engine.

One :class:`MobiQueryProtocol` instance per run wires the four in-network
phases of Section 4 onto every sensor node:

1. **Prefetching** — prefetch messages hop between pickup points by area
   anycast.  Under just-in-time prefetching the collector for pickup ``k``
   holds the message for pickup ``k+1`` until eq. (10)'s bound
   ``k * Tperiod - Tsleep - 2 * Tfresh``; under greedy prefetching it
   forwards immediately.  When the bound is already past (query start,
   motion change) JIT forwards greedily — the Section 5.3 warmup catch-up.
2. **Query dissemination** — the collector floods a setup message over the
   backbone nodes of its query area, building parent pointers; backbone
   nodes buffer setups for their duty-cycled neighbours and deliver them
   (batched) in the next PSM beacon window, where the sleepers install a
   wake override at ``deadline - Tfresh`` and join as leaves.
3. **Data collection** — every tree node sends its partial aggregate to
   its parent at the eq. (1) sub-deadline
   ``du = k*Tp - |u p| / (Rp + Rq) * Tfresh`` (farther nodes time out
   sooner), reading its own sensor at send time so freshness holds; the
   collector transmits the final aggregate to the user's proxy just before
   the deadline.
4. **Cancellation** — when the user abandons a predicted path, a cancel
   message chases the prefetch chain collector-to-collector, tearing down
   pending state; it gives up after two consecutive pickup points with no
   matching state, or where the session is no longer registered.

Everything the engine stores belongs to one ``(user_id, query_id)`` session
and lives in that session's record; :class:`MobiQueryProtocol` describes
the lifecycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..geometry.shapes import Circle
from ..geometry.vec import Vec2
from ..mobility.profile import MotionProfile
from ..net.network import Network
from ..net.node import SensorNode
from ..net.packet import BROADCAST, Frame
from ..net.routing import GeoRouter
from ..sim.trace import Tracer
from .messages import (
    CANCEL_SIZE_BYTES,
    PREFETCH_SIZE_BYTES,
    REPORT_SIZE_BYTES,
    RESULT_SIZE_BYTES,
    SETUP_BATCH_BASE_BYTES,
    SETUP_BATCH_ENTRY_BYTES,
    SETUP_SIZE_BYTES,
    CancelMessage,
    InjectMessage,
    PrefetchMessage,
    ReportMessage,
    ResultMessage,
    SetupMessage,
)
from .query import AggregateState, QuerySpec
from .trees import CollectorState, TreeNodeState

#: prefetch policies
POLICY_JIT = "jit"
POLICY_GREEDY = "greedy"


#: how long before each deadline the collector transmits the result to
#: the user
RESULT_GUARD_S = 0.05
#: random stagger of leaf reports after the sense time, to decorrelate the
#: wake-up burst
LEAF_JITTER_MAX_S = 0.2
#: how long past the sense time a leaf's wake override lasts (the MAC drain
#: can extend it slightly)
WAKE_SLACK_S = 0.35
#: max random delay before a backbone node rebroadcasts a setup flood frame
SETUP_REBROADCAST_JITTER_S = 4e-3
#: how long after its deadline a tree state lingers before garbage
#: collection (for duplicate suppression)
STATE_GC_GRACE_S = 2.0
#: consecutive pickup points without matching state after which a cancel
#: chain stops
CANCEL_MISS_LIMIT = 2
#: how many times collector duty may move to another backbone node after a
#: crash before the period is abandoned (fault recovery; no effect without
#: a fault plan)
REELECT_ATTEMPT_LIMIT = 3
#: base delay before a re-elected collector sends the salvaged result;
#: grows linearly with the attempt count
REELECT_BACKOFF_S = 0.05


@dataclass(frozen=True)
class MobiQueryConfig:
    """Protocol knobs a run sets.

    Attributes:
        prefetch_policy: ``"jit"`` or ``"greedy"``.
        pickup_radius_m: the anycast delivery radius ``Rp``.
        parent_upgrade: adopt a closer-to-collector parent from duplicate
            setup receptions (ablation flag; disabling reproduces the
            first-sender flood tree and its sub-deadline inversions).
        redeliver_setups: keep buffered setups pending across beacon
            windows until their period expires, PSM-style (ablation flag;
            disabling gives sleepers exactly one delivery chance).
    """

    prefetch_policy: str = POLICY_JIT
    pickup_radius_m: float = 30.0
    parent_upgrade: bool = True
    redeliver_setups: bool = True

    def __post_init__(self) -> None:
        if self.prefetch_policy not in (POLICY_JIT, POLICY_GREEDY):
            raise ValueError(f"unknown prefetch policy {self.prefetch_policy!r}")
        if self.pickup_radius_m <= 0:
            raise ValueError("pickup radius must be > 0")


@dataclass
class _SessionRecord:
    """Everything the engine holds for one ``(user_id, query_id)`` session.

    The record *is* the storage — no world-wide table sits beside it — so a
    session leaves as a unit: ``release_session`` pops it and walks only it.
    """

    #: collector duty by pickup index ``k``
    collectors: Dict[int, CollectorState] = field(default_factory=dict)
    #: tree memberships by ``(node_id, k)`` — Section 5.2's query states
    trees: Dict[Tuple[int, int], TreeNodeState] = field(default_factory=dict)
    #: ``(node_id, generation)`` -> lowest cancelled pickup index: "G is
    #: dead from pickup k on here" — the node may still serve earlier ones
    cancelled_from: Dict[Tuple[int, int], int] = field(default_factory=dict)

    def is_cancelled(self, node_id: int, generation: int, k: int) -> bool:
        """Whether pickup ``k`` of ``generation``'s chain is cancelled at
        node ``node_id``."""
        min_k = self.cancelled_from.get((node_id, generation))
        return min_k is not None and k >= min_k


class MobiQueryProtocol:
    """Node-side MobiQuery: prefetch, dissemination, collection, cancel.

    Sessions have the lifecycle of the other two engines
    (:class:`~repro.core.baseline.NoPrefetchProtocol`,
    :class:`~repro.approx.plane.SummaryPlane`): a gateway's ``start()``
    calls :meth:`register_session`, its ``close()`` :meth:`release_session`,
    and in between every collector, tree state and cancel mark of the
    session lives in its one :class:`_SessionRecord`.

    *No record* is the only dead-session test.  A frame, timer or cancel
    chase of an unregistered key — never started, or torn down with traffic
    in flight — stores nothing, so a released session cannot regrow and no
    table outlives its session.  (A prefetch timer already armed at the
    inject node still sends — frame counts are pinned; where it lands
    drops it.)

    ``_pending_batches`` is the one per-node table left: a sleeper batch is
    one node's frame and merges the setups of every session that crossed
    the node, so it is keyed by node and filtered when a session leaves.
    """

    def __init__(
        self,
        network: Network,
        geo: GeoRouter,
        config: Optional[MobiQueryConfig] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.network = network
        self.geo = geo
        self.config = config or MobiQueryConfig()
        self.tracer = tracer if tracer is not None else network.tracer
        self.sim = network.sim
        # One record per registered (user_id, query_id): the concurrent
        # sessions of a multi-user workload share one protocol instance
        # (and the backbone) without clobbering each other.
        self._sessions: Dict[Tuple[int, int], _SessionRecord] = {}
        self._pending_batches: Dict[int, List[SetupMessage]] = {}
        self._batch_scheduled: Set[int] = set()
        # Optional summary plane (repro.approx): when set, readings the
        # collection phase computes anyway are overheard into the cached
        # summaries — a pure dictionary update, no frames, no events, no
        # RNG, so exact-only runs (observer None) are byte-for-byte
        # untouched.
        self.summary_observer = None
        for node in network.nodes:
            node.register_handler("mq-inject", self._on_inject)
            node.register_handler("mq-prefetch", self._on_prefetch)
            node.register_handler("mq-setup", self._on_setup_frame)
            node.register_handler("mq-setup-batch", self._on_setup_batch)
            node.register_handler("mq-report", self._on_report)
            node.register_handler("mq-cancel", self._on_cancel)

    # ------------------------------------------------------------------
    # Shared timing helpers
    # ------------------------------------------------------------------
    def jit_forward_time(self, spec: QuerySpec, k: int) -> float:
        """Eq. (10): latest safe send time for the message targeting
        pickup ``k`` (sent by collector ``k-1``)."""
        return (
            spec.start_s
            + (k - 1) * spec.period_s
            - self.network.config.sleep_period_s
            - 2.0 * spec.freshness_s
        )

    def pickup_point(self, profile: MotionProfile, spec: QuerySpec, k: int) -> Vec2:
        """Predicted user position at the k-th deadline."""
        return profile.position_at(spec.deadline(k))

    def query_area(
        self, profile: MotionProfile, spec: QuerySpec, k: int
    ) -> Circle:
        """The query area for period ``k``: the disk around the pickup point."""
        return spec.area_at(self.pickup_point(profile, spec, k))

    # ------------------------------------------------------------------
    # Phase 1 — prefetching
    # ------------------------------------------------------------------
    def _on_inject(self, node: SensorNode, frame: Frame) -> None:
        msg: InjectMessage = frame.payload
        if msg.spec.session_key not in self._sessions:
            return
        self.tracer.emit(
            "inject",
            self.sim.now,
            at=node.node_id,
            k=msg.start_k,
            gen=msg.profile.generation,
        )
        self._schedule_prefetch_forward(node, msg.spec, msg.profile, msg.start_k, msg.proxy_id)

    def _schedule_prefetch_forward(
        self,
        node: SensorNode,
        spec: QuerySpec,
        profile: MotionProfile,
        k: int,
        proxy_id: int,
    ) -> None:
        """Arrange for ``node`` to forward the prefetch toward pickup ``k``."""
        now = self.sim.now
        # Skip pickup points whose deadline can no longer be served at all.
        while k <= spec.num_periods and spec.deadline(k) <= now + 1e-9:
            k += 1
        if k > spec.num_periods:
            return
        if self.config.prefetch_policy == POLICY_GREEDY:
            send_at = now
        else:
            send_at = max(now, self.jit_forward_time(spec, k))
        handle = self.sim.schedule_at(
            send_at, self._forward_prefetch, node, spec, profile, k, proxy_id
        )
        holder = self._sessions[spec.session_key].collectors.get(k - 1)
        if holder is not None and holder.node_id == node.node_id:
            holder.forward_timer = handle

    def _forward_prefetch(
        self,
        node: SensorNode,
        spec: QuerySpec,
        profile: MotionProfile,
        k: int,
        proxy_id: int,
    ) -> None:
        record = self._sessions.get(spec.session_key)
        if record is not None and record.is_cancelled(
            node.node_id, profile.generation, k
        ):
            return
        pickup = self.pickup_point(profile, spec, k)
        message = PrefetchMessage(spec=spec, profile=profile, k=k, proxy_id=proxy_id)
        self.tracer.emit(
            "prefetch-forwarded",
            self.sim.now,
            frm=node.node_id,
            k=k,
            gen=profile.generation,
        )
        self.geo.send(
            origin=node,
            dest=pickup,
            deliver_radius=self.config.pickup_radius_m,
            inner_kind="mq-prefetch",
            inner_payload=message,
            inner_size=PREFETCH_SIZE_BYTES,
        )

    def _on_prefetch(self, node: SensorNode, frame: Frame) -> None:
        msg: PrefetchMessage = frame.payload
        spec, profile, k = msg.spec, msg.profile, msg.k
        record = self._sessions.get(spec.session_key)
        if record is None:
            return
        now = self.sim.now
        if record.is_cancelled(node.node_id, profile.generation, k):
            return
        existing = record.collectors.get(k)
        if existing is not None:
            if existing.profile.generation >= profile.generation:
                return  # duplicate or stale prefetch
            self._release_collector(existing, reason="superseded")
        deadline = spec.deadline(k)
        if now > deadline:
            self.tracer.emit("prefetch-too-late", now, k=k, at=node.node_id)
            return
        collector = CollectorState(
            spec=spec,
            profile=profile,
            k=k,
            node_id=node.node_id,
            proxy_id=msg.proxy_id,
            assigned_at=now,
        )
        record.collectors[k] = collector
        self.tracer.emit(
            "collector-assigned",
            now,
            k=k,
            node=node.node_id,
            gen=profile.generation,
            query=spec.query_id,
            user=spec.user_id,
        )
        self._setup_tree(record, node, collector)
        self._schedule_prefetch_forward(node, spec, profile, k + 1, msg.proxy_id)
        collector.result_timer = self.sim.schedule_at(
            max(now, deadline - RESULT_GUARD_S),
            self._send_result,
            node,
            collector,
        )

    # ------------------------------------------------------------------
    # Phase 2 — query dissemination (tree setup)
    # ------------------------------------------------------------------
    def _setup_tree(
        self, record: _SessionRecord, node: SensorNode, collector: CollectorState
    ) -> None:
        spec = collector.spec
        pickup = self.pickup_point(collector.profile, spec, collector.k)
        setup = SetupMessage(
            query_id=spec.query_id,
            k=collector.k,
            collector_id=node.node_id,
            pickup=pickup,
            area=spec.area_at(pickup),
            deadline=collector.deadline,
            freshness_s=spec.freshness_s,
            pickup_radius_m=self.config.pickup_radius_m,
            profile_generation=collector.profile.generation,
            aggregation_attribute=spec.attribute,
            user_id=spec.user_id,
        )
        self.tracer.emit(
            "tree-setup-start",
            self.sim.now,
            k=collector.k,
            query=spec.query_id,
            user=spec.user_id,
            pickup_x=pickup.x,
            pickup_y=pickup.y,
            collector=node.node_id,
        )
        # The collector roots the tree even if the anycast delivered outside
        # the nominal Rp disk (expanded delivery under sparse backbones).
        existing = record.trees.get((node.node_id, collector.k))
        if existing is not None:
            # This node was a member of the superseded generation's tree:
            # promote the state to root in place.
            existing.cancel_timer()
            existing.parent_id = None
            existing.collector_id = node.node_id
            existing.pickup = pickup
            existing.profile_generation = collector.profile.generation
        else:
            self._create_tree_state(record, node, setup, parent_id=None)
        self._broadcast_setup(node, setup)
        self._queue_sleeper_delivery(node, setup)

    def _broadcast_setup(self, node: SensorNode, setup: SetupMessage) -> None:
        frame = Frame(
            kind="mq-setup",
            src=node.node_id,
            dst=BROADCAST,
            size_bytes=SETUP_SIZE_BYTES,
            payload=setup,
        )
        node.send(frame)

    def _on_setup_frame(self, node: SensorNode, frame: Frame) -> None:
        self._handle_setup(node, frame.payload, src_id=frame.src)

    def _on_setup_batch(self, node: SensorNode, frame: Frame) -> None:
        setups: Sequence[SetupMessage] = frame.payload
        for setup in setups:
            self._handle_setup(node, setup, src_id=frame.src)

    def _handle_setup(self, node: SensorNode, setup: SetupMessage, src_id: int) -> None:
        record = self._sessions.get((setup.user_id, setup.query_id))
        if record is None:
            return
        existing = record.trees.get((node.node_id, setup.k))
        if existing is not None:
            if setup.profile_generation > existing.profile_generation:
                self._reparent_to_new_generation(node, existing, setup, src_id)
            else:
                self._maybe_upgrade_parent(node, existing, src_id, setup)
            return
        if not setup.area.contains(node.position):
            return
        now = self.sim.now
        if now >= setup.deadline - 1e-6:
            return  # stale: this period cannot be served anymore
        state = self._create_tree_state(record, node, setup, parent_id=src_id)
        if state is None:
            return
        if node.is_active:
            self._join_as_interior(node, setup, state)
        else:
            self._join_as_leaf(node, setup, state)

    def _create_tree_state(
        self,
        record: _SessionRecord,
        node: SensorNode,
        setup: SetupMessage,
        parent_id: Optional[int],
    ) -> Optional[TreeNodeState]:
        key = (node.node_id, setup.k)
        if key in record.trees:
            return None
        state = TreeNodeState(
            query_id=setup.query_id,
            k=setup.k,
            node_id=node.node_id,
            parent_id=parent_id,
            collector_id=setup.collector_id,
            pickup=setup.pickup,
            deadline=setup.deadline,
            created_at=self.sim.now,
            profile_generation=setup.profile_generation,
            user_id=setup.user_id,
        )
        record.trees[key] = state
        self.tracer.emit(
            "tree-created",
            self.sim.now,
            node=node.node_id,
            k=setup.k,
            query=setup.query_id,
            user=setup.user_id,
        )
        self.sim.schedule_at(
            setup.deadline + STATE_GC_GRACE_S,
            self._gc_tree_state,
            state.session_key,
            key,
        )
        return state

    def _gc_tree_state(self, session: Tuple[int, int], key: Tuple[int, int]) -> None:
        record = self._sessions.get(session)
        state = record.trees.pop(key, None) if record is not None else None
        if state is None:
            return
        self._release_tree_state(state)
        if not record.trees:
            # A dict keeps its peak capacity after pops, and in a batch run
            # a finished session's record stays until close().
            record.trees = {}

    def _release_tree_state(self, state: TreeNodeState) -> None:
        state.cancel_timer()
        self.tracer.emit(
            "tree-released",
            self.sim.now,
            node=state.node_id,
            k=state.k,
            query=state.query_id,
            user=state.user_id,
        )

    def _reparent_to_new_generation(
        self,
        node: SensorNode,
        state: TreeNodeState,
        setup: SetupMessage,
        src_id: int,
    ) -> None:
        """Carry an existing tree membership over to a corrected tree.

        When a new motion profile slightly shifts query area ``k``, the
        replacement collector's setup flood reaches the nodes of the old
        tree.  Rather than tearing their state down (their sleeping leaves
        could never be re-woken in time), members re-parent in place: same
        wake schedule and pending report timer, new collector and pickup.
        Members that fell outside the corrected area drop out; brand-new
        members join normally (sleepers only if a wake window remains —
        which is exactly the warmup effect of Section 5.3).
        """
        if state.sent or self.sim.now >= setup.deadline - 1e-6:
            return
        if not setup.area.contains(node.position):
            return  # no longer part of the corrected area
        state.profile_generation = setup.profile_generation
        state.collector_id = setup.collector_id
        state.pickup = setup.pickup
        if state.parent_id is not None:
            state.parent_id = src_id
            if node.is_active:
                # Spread the corrected tree to peers that also hold old state.
                jitter = float(
                    node.rng.uniform(5e-4, SETUP_REBROADCAST_JITTER_S)
                )
                self.sim.schedule(jitter, self._rebroadcast_setup, node, setup)
                self._queue_sleeper_delivery(node, setup)

    def _maybe_upgrade_parent(
        self,
        node: SensorNode,
        state: TreeNodeState,
        src_id: int,
        setup: SetupMessage,
    ) -> None:
        """Adopt a better parent from a duplicate setup reception.

        The flood's first sender is usually — but not always — closer to
        the collector than the receiver.  A farther parent inverts the
        eq. (1) sub-deadline order and loses the report, so until the node
        has reported it upgrades its parent to the closest-to-pickup sender
        heard.  (The node's location service knows neighbour positions.)
        """
        if not self.config.parent_upgrade:
            return
        if state.sent or state.parent_id is None or src_id == state.parent_id:
            return
        if src_id == node.node_id:
            return
        try:
            current = self.network.node_by_id(state.parent_id)
            candidate = self.network.node_by_id(src_id)
        except (IndexError, KeyError):
            return
        if candidate.position.distance_sq_to(state.pickup) < current.position.distance_sq_to(
            state.pickup
        ):
            state.parent_id = src_id

    def _join_as_interior(
        self, node: SensorNode, setup: SetupMessage, state: TreeNodeState
    ) -> None:
        """Backbone node: rebroadcast, buffer for sleepers, arm sub-deadline."""
        jitter = float(node.rng.uniform(5e-4, SETUP_REBROADCAST_JITTER_S))
        self.sim.schedule(jitter, self._rebroadcast_setup, node, setup)
        self._queue_sleeper_delivery(node, setup)
        du = self._sub_deadline(node, setup)
        state.send_timer = self.sim.schedule_at(
            max(du, self.sim.now + 1e-6), self._send_partial_up, node, state
        )

    def _rebroadcast_setup(self, node: SensorNode, setup: SetupMessage) -> None:
        if node.radio.is_sleeping:
            return
        self._broadcast_setup(node, setup)

    def _sub_deadline(self, node: SensorNode, setup: SetupMessage) -> float:
        """Eq. (1): ``du = k*Tp - |up| / (Rp + Rq) * Tfresh``."""
        distance = node.position.distance_to(setup.pickup)
        reach = setup.pickup_radius_m + setup.area.radius
        fraction = min(1.0, distance / reach)
        return setup.deadline - fraction * setup.freshness_s

    def _join_as_leaf(
        self, node: SensorNode, setup: SetupMessage, state: TreeNodeState
    ) -> None:
        """Duty-cycled node: wake at the sense time, report once, sleep."""
        now = self.sim.now
        sense_time = setup.deadline - setup.freshness_s
        if now >= sense_time:
            # Setup arrived inside the freshness window (e.g. we were awake
            # in a beacon window late in the period): report right away.
            self._leaf_report(node, state)
            return
        scheduler = node.sleep_scheduler
        if scheduler is not None:
            scheduler.add_wake_interval(
                sense_time, min(setup.deadline, sense_time + WAKE_SLACK_S)
            )
        jitter = float(node.rng.uniform(0.0, LEAF_JITTER_MAX_S))
        state.send_timer = self.sim.schedule_at(
            sense_time + jitter, self._leaf_report, node, state
        )

    def _queue_sleeper_delivery(self, node: SensorNode, setup: SetupMessage) -> None:
        """Buffer a setup for this node's sleeping neighbours (PSM style).

        All setups accumulated before the next beacon window go out as one
        batched broadcast at the window start — the 802.11 PSM pattern of
        announcing and delivering buffered traffic inside the ATIM window.
        """
        if not node.is_active:
            return
        has_sleeping_target = any(
            (not nb.is_active) and setup.area.contains(nb.position)
            for nb in node.neighbors
        )
        if not has_sleeping_target:
            return
        self._pending_batches.setdefault(node.node_id, []).append(setup)
        if node.node_id in self._batch_scheduled:
            return
        self._batch_scheduled.add(node.node_id)
        self.sim.schedule_at(self._next_batch_time(node), self._flush_batch, node)

    def _next_batch_time(self, node: SensorNode) -> float:
        """When this node should transmit its sleeper batch.

        Inside a beacon window: almost immediately.  Otherwise: shortly
        after the next window opens.  The random offset spreads the
        in-window traffic of neighbouring backbone nodes.
        """
        now = self.sim.now
        psm = self.network.config.psm
        window = psm.active_window_s
        offset = float(node.rng.uniform(2e-3, max(4e-3, 0.5 * window)))
        if psm.window_phase(now) < window * 0.7:
            return now + float(node.rng.uniform(5e-4, 4e-3))
        return psm.next_window_start(now) + offset

    def _flush_batch(self, node: SensorNode) -> None:
        self._batch_scheduled.discard(node.node_id)
        setups = self._pending_batches.pop(node.node_id, [])
        now = self.sim.now
        live = [s for s in setups if now < s.deadline - 1e-3]
        if not live:
            return
        size = SETUP_BATCH_BASE_BYTES + SETUP_BATCH_ENTRY_BYTES * len(live)
        frame = Frame(
            kind="mq-setup-batch",
            src=node.node_id,
            dst=BROADCAST,
            size_bytes=size,
            payload=tuple(live),
        )
        self.tracer.emit("setup-batch", now, node=node.node_id, count=len(live))
        node.send(frame)
        # PSM keeps buffered traffic pending until delivered: setups whose
        # period is still serviceable are re-announced in the next window
        # too (the broadcast may have collided at some sleepers).  Under JIT
        # a setup stays pending for at most a couple of windows; under
        # greedy prefetching this is what makes tree setups "last multiple
        # query periods" and interfere (paper Section 5.4).
        carry = (
            [s for s in live if self.sim.now < s.deadline - 1e-3]
            if self.config.redeliver_setups
            else []
        )
        if carry:
            self._pending_batches[node.node_id] = carry
            self._batch_scheduled.add(node.node_id)
            psm = self.network.config.psm
            offset = float(node.rng.uniform(2e-3, max(4e-3, 0.5 * psm.active_window_s)))
            self.sim.schedule_at(psm.next_window_start(now) + offset, self._flush_batch, node)

    # ------------------------------------------------------------------
    # Phase 3 — data collection
    # ------------------------------------------------------------------
    def _leaf_report(self, node: SensorNode, state: TreeNodeState) -> None:
        if state.sent or self.sim.now >= state.deadline:
            return
        state.sent = True
        value = node.read_sensor()
        state.partial.merge(AggregateState.from_reading(node.node_id, value))
        self._observe_reading(node, value)
        self._send_report(node, state)

    def _send_partial_up(self, node: SensorNode, state: TreeNodeState) -> None:
        if state.sent:
            return
        state.sent = True
        value = node.read_sensor()
        state.partial.merge(AggregateState.from_reading(node.node_id, value))
        self._observe_reading(node, value)
        self._send_report(node, state)

    def _observe_reading(self, node: SensorNode, value: float) -> None:
        """Overhear one reading into the summary plane, when one exists."""
        if self.summary_observer is not None:
            self.summary_observer.observe(
                node.node_id, node.position, value, self.sim.now
            )

    def _send_report(self, node: SensorNode, state: TreeNodeState) -> None:
        if state.parent_id is None:
            return  # the collector's aggregate leaves via the result path
        dest = state.parent_id
        parent = self._node_or_none(dest)
        if parent is not None and parent.crashed and dest != state.collector_id:
            # Dead parent (fault plane): skip it and aim the report straight
            # at the tree root — one bounded fallback, taken only when the
            # parent is actually crashed, so fault-free runs are untouched.
            root = self._node_or_none(state.collector_id)
            if root is None or root.crashed:
                self.tracer.emit(
                    "report-dropped", self.sim.now, node=node.node_id, k=state.k
                )
                return
            dest = state.collector_id
            self.tracer.emit(
                "report-reroute",
                self.sim.now,
                node=node.node_id,
                dead_parent=state.parent_id,
                k=state.k,
            )
        message = ReportMessage(
            query_id=state.query_id,
            k=state.k,
            child_id=node.node_id,
            partial=state.partial.copy(),
            user_id=state.user_id,
        )
        frame = Frame(
            kind="mq-report",
            src=node.node_id,
            dst=dest,
            size_bytes=REPORT_SIZE_BYTES + 2 * len(message.partial.contributors),
            payload=message,
        )
        node.send(frame)

    def _node_or_none(self, node_id: int) -> Optional[SensorNode]:
        """The sensor node with ``node_id``, or None for proxies/unknowns."""
        try:
            return self.network.node_by_id(node_id)
        except (IndexError, KeyError):
            return None

    def _on_report(self, node: SensorNode, frame: Frame) -> None:
        msg: ReportMessage = frame.payload
        record = self._sessions.get((msg.user_id, msg.query_id))
        state = record.trees.get((node.node_id, msg.k)) if record else None
        if state is None or state.sent:
            self.tracer.emit(
                "report-late", self.sim.now, node=node.node_id, k=msg.k
            )
            return
        state.partial.merge(msg.partial)

    def _send_result(self, node: SensorNode, collector: CollectorState) -> None:
        if collector.cancelled or collector.result_sent:
            return
        if node.crashed:
            # The collector died before its result left (fault plane):
            # try to move collector duty to a surviving backbone node.
            self._reelect_collector(node, collector)
            return
        collector.result_sent = True
        spec = collector.spec
        # An uncancelled collector is in its session's record.
        state = self._sessions[spec.session_key].trees.get(
            (node.node_id, collector.k)
        )
        partial = state.partial if state is not None else AggregateState()
        area = self.query_area(collector.profile, collector.spec, collector.k)
        if state is not None:
            state.sent = True
            if area.contains(node.position):
                value = node.read_sensor()
                partial.merge(AggregateState.from_reading(node.node_id, value))
                self._observe_reading(node, value)
        message = ResultMessage(
            query_id=spec.query_id,
            k=collector.k,
            collector_id=node.node_id,
            aggregate=partial.copy(),
            sent_at=self.sim.now,
            pickup=area.center,
            user_id=spec.user_id,
            degraded=collector.degraded,
        )
        frame = Frame(
            kind="mq-result",
            src=node.node_id,
            dst=collector.proxy_id,
            size_bytes=RESULT_SIZE_BYTES + 2 * len(partial.contributors),
            payload=message,
        )
        self.tracer.emit(
            "result-sent",
            self.sim.now,
            k=collector.k,
            collector=node.node_id,
            contributors=len(partial.contributors),
        )

        def on_done(success: bool) -> None:
            if not success:
                self.tracer.emit(
                    "result-undeliverable", self.sim.now, k=collector.k
                )

        node.send(frame, on_done)
        # The query area is only queried once (Section 4.4): collector duty
        # for this period ends with the result transmission.
        self._release_collector(collector, reason="completed")

    def _reelect_collector(
        self, dead_node: SensorNode, collector: CollectorState
    ) -> None:
        """Move collector duty off a crashed node (fault recovery).

        The partial aggregate lives in protocol-level tree state, so it is
        transferable: the nearest surviving backbone node to the pickup
        point inherits the root state (merging into its own membership if
        it was already in the tree) and retries the result send after a
        linear backoff.  Attempts are bounded; an unrecoverable period is
        released as *lost* and surfaces as a missed (degraded) period in
        the session report rather than a hang.
        """
        spec = collector.spec
        trees = self._sessions[spec.session_key].trees
        if collector.reelect_attempts >= REELECT_ATTEMPT_LIMIT:
            self.tracer.emit(
                "collector-lost", self.sim.now, k=collector.k, node=dead_node.node_id
            )
            self._release_collector(collector, reason="lost")
            return
        collector.reelect_attempts += 1
        pickup = self.pickup_point(collector.profile, spec, collector.k)
        candidates = [
            n
            for n in self.network.active_nodes_in_disk(
                pickup, self.network.config.comm_range_m
            )
            if not n.crashed and n.node_id != dead_node.node_id
        ]
        if not candidates:
            candidates = [
                n
                for n in self.network.active_nodes
                if not n.crashed and n.node_id != dead_node.node_id
            ]
        if not candidates:
            self.tracer.emit(
                "collector-lost", self.sim.now, k=collector.k, node=dead_node.node_id
            )
            self._release_collector(collector, reason="lost")
            return
        new_node = min(
            candidates,
            key=lambda n: (n.position.distance_sq_to(pickup), n.node_id),
        )
        new_key = (new_node.node_id, collector.k)
        old_state = trees.pop((dead_node.node_id, collector.k), None)
        existing = trees.get(new_key)
        if existing is not None:
            # The heir was already a tree member: promote it to root in
            # place, folding in whatever the dead root had aggregated.
            existing.cancel_timer()
            existing.parent_id = None
            existing.collector_id = new_node.node_id
            if old_state is not None:
                existing.partial.merge(old_state.partial)
                # The dead root's own state ends here: say so, or storage
                # accounting counts it for the rest of the run.
                self._release_tree_state(old_state)
        elif old_state is not None:
            old_state.cancel_timer()
            old_state.node_id = new_node.node_id
            old_state.parent_id = None
            old_state.collector_id = new_node.node_id
            trees[new_key] = old_state
            self.sim.schedule_at(
                old_state.deadline + STATE_GC_GRACE_S,
                self._gc_tree_state,
                spec.session_key,
                new_key,
            )
        collector.node_id = new_node.node_id
        collector.degraded = True
        self.tracer.emit(
            "collector-reelected",
            self.sim.now,
            k=collector.k,
            dead=dead_node.node_id,
            heir=new_node.node_id,
            attempt=collector.reelect_attempts,
        )
        collector.result_timer = self.sim.schedule(
            REELECT_BACKOFF_S * collector.reelect_attempts,
            self._send_result,
            new_node,
            collector,
        )

    # ------------------------------------------------------------------
    # Phase 4 — cancellation
    # ------------------------------------------------------------------
    def start_cancel_chain(
        self,
        node: SensorNode,
        spec: QuerySpec,
        profile: MotionProfile,
        start_k: int,
    ) -> None:
        """Launch a cancel chase along ``profile``'s pickup points."""
        message = CancelMessage(
            query_id=spec.query_id,
            profile_generation=profile.generation,
            k=start_k,
            misses=0,
            spec=spec,
            profile=profile,
            user_id=spec.user_id,
        )
        self._route_cancel(node, message)

    def _route_cancel(self, node: SensorNode, message: CancelMessage) -> None:
        pickup = self.pickup_point(message.profile, message.spec, message.k)
        self.geo.send(
            origin=node,
            dest=pickup,
            deliver_radius=self.config.pickup_radius_m,
            inner_kind="mq-cancel",
            inner_payload=message,
            inner_size=CANCEL_SIZE_BYTES,
        )

    def _on_cancel(self, node: SensorNode, frame: Frame) -> None:
        msg: CancelMessage = frame.payload
        record = self._sessions.get((msg.user_id, msg.query_id))
        if record is None:
            return  # the session is gone: nothing left for the chase to stop
        marks = record.cancelled_from
        gen_key = (node.node_id, msg.profile_generation)
        marks[gen_key] = min(marks.get(gen_key, msg.k), msg.k)
        collector = record.collectors.get(msg.k)
        matched = (
            collector is not None
            and collector.profile.generation == msg.profile_generation
            and not collector.cancelled
        )
        if matched:
            assert collector is not None
            self._release_collector(collector, reason="cancelled")
            misses = 0
        else:
            misses = msg.misses + 1
        next_k = msg.k + 1
        if misses >= CANCEL_MISS_LIMIT:
            return
        if next_k > msg.spec.num_periods:
            return
        forward = CancelMessage(
            query_id=msg.query_id,
            profile_generation=msg.profile_generation,
            k=next_k,
            misses=misses,
            spec=msg.spec,
            profile=msg.profile,
            user_id=msg.user_id,
        )
        self._route_cancel(node, forward)

    def _release_collector(self, collector: CollectorState, reason: str) -> None:
        collector.cancelled = True
        collector.cancel_timers()
        spec = collector.spec
        record = self._sessions.get(spec.session_key)
        if record is not None:
            record.collectors.pop(collector.k, None)
        self.tracer.emit(
            "collector-released",
            self.sim.now,
            k=collector.k,
            node=collector.node_id,
            reason=reason,
            query=spec.query_id,
            user=spec.user_id,
        )

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    def register_session(self, key: Tuple[int, int]) -> None:
        """Open the record of one ``(user_id, query_id)`` session."""
        self._sessions.setdefault(key, _SessionRecord())

    def release_session(self, key: Tuple[int, int]) -> None:
        """Tear down every piece of in-network state one session owns.

        Service-level cancellation (the user hung up, or an operator evicted
        the session): the record is popped, its collectors are released with
        their timers, its tree states are dropped node by node (each
        emitting ``tree-released`` so storage accounting stays exact), its
        cancel marks go with it, and its buffered sleeper setups are
        filtered out of pending PSM batches.  The in-protocol cancel *chase*
        (phase 4) still handles the paper's profile-replacement case; this
        is the operator's backstop, executed with the service's global
        knowledge rather than by message passing.  A no-op for a key that
        is not registered.

        Leaf wake overrides already installed in sleep schedulers are left
        to expire on their own — they are bounded by one freshness window
        and cannot be attributed to a session after installation.
        """
        record = self._sessions.pop(key, None)
        if record is None:
            return
        for collector in record.collectors.values():
            self._release_collector(collector, reason="session-released")
        for state in record.trees.values():
            self._release_tree_state(state)
        for node_id, setups in list(self._pending_batches.items()):
            kept = [s for s in setups if (s.user_id, s.query_id) != key]
            if kept:
                self._pending_batches[node_id] = kept
            else:
                del self._pending_batches[node_id]

    def session_count(self) -> int:
        """Sessions registered and not yet released."""
        return len(self._sessions)

    # ------------------------------------------------------------------
    # Introspection (tests, metrics, the leak census)
    # ------------------------------------------------------------------
    def _records(self, session: Optional[Tuple[int, int]]) -> List[_SessionRecord]:
        """The one record of ``session`` (none if unregistered), or all."""
        if session is None:
            return list(self._sessions.values())
        record = self._sessions.get(session)
        return [] if record is None else [record]

    def live_collector_periods(
        self, session: Optional[Tuple[int, int]] = None
    ) -> List[int]:
        """Periods with an assigned, uncancelled collector right now.

        ``session`` restricts the answer to one ``(user_id, query_id)``
        session; by default all sessions are pooled (the single-user view).
        """
        return sorted(
            k for record in self._records(session) for k in record.collectors
        )

    def collector_count(self) -> int:
        """Collectors currently assigned, over all sessions."""
        return sum(len(record.collectors) for record in self._sessions.values())

    def tree_state_count(self, session: Optional[Tuple[int, int]] = None) -> int:
        """Tree states currently stored across all nodes.

        ``session`` restricts the count to one ``(user_id, query_id)``
        session's trees.
        """
        return sum(len(record.trees) for record in self._records(session))

    def pending_batch_count(self) -> int:
        """Nodes holding setups buffered for their sleeping neighbours."""
        return len(self._pending_batches)

    def active_sessions(self) -> List[Tuple[int, int]]:
        """All ``(user_id, query_id)`` sessions with live in-network state."""
        return sorted(
            key
            for key, record in self._sessions.items()
            if record.collectors or record.trees
        )
