"""The No-Prefetching (NP) baseline from Section 6.2.

Under NP the user simply broadcasts the query into the current query area
at the beginning of every period — no motion profile, no forewarning, no
query tree.  Nodes that hear the query (directly, or via PSM-buffered
delivery at their next beacon wake-up, the 802.11 mechanism that exists
with or without MobiQuery) take a reading inside the freshness window and
route it back to the user individually.

The point of the baseline: with sleep periods several times the query
period, only roughly ``Tperiod / Tsleep`` of the duty-cycled nodes can be
woken in time, so data fidelity is capped far below the 95% success bar —
which is exactly the Figure 4 result.

Per-session state (the dedup marks) lives in one record per registered
session, with the lifecycle of :class:`~repro.core.service.MobiQueryProtocol`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..net.flooding import FloodManager
from ..net.network import Network
from ..net.node import SensorNode
from ..net.packet import BROADCAST, Frame
from ..net.routing import GeoRouter
from ..sim.trace import Tracer
from .messages import (
    NP_QUERY_SIZE_BYTES,
    NP_REPORT_SIZE_BYTES,
    NpQueryMessage,
    NpReportMessage,
)


#: delivery radius when routing a report back toward the user
RELAY_RADIUS_M = 60.0
#: random stagger for readings taken at the sense time
REPORT_JITTER_MAX_S = 0.15
#: how long a woken leaf stays up to transmit its report
WAKE_SLACK_S = 0.15


class NoPrefetchProtocol:
    """Node-side handlers for the NP baseline.

    Same session lifecycle as :class:`~repro.core.service.MobiQueryProtocol`:
    a gateway's ``start()`` registers its ``(user_id, query_id)``, its
    ``close()`` releases it.  The record of a session is its dedup marks —
    the ``(node_id, k)`` query copies already handled — and *no record* is
    the only dead-session test: a query or a scheduled reading of an
    unregistered key stores and sends nothing.  ``_pending_batches`` stays
    per node, as there: a sleeper batch is one node's frame and merges the
    queries of every session heard, so it is filtered when a session leaves.
    """

    def __init__(
        self,
        network: Network,
        geo: GeoRouter,
        flood: FloodManager,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.network = network
        self.geo = geo
        self.flood = flood
        self.tracer = tracer if tracer is not None else network.tracer
        self.sim = network.sim
        #: session key -> the ``(node_id, k)`` query copies already handled
        self._sessions: Dict[Tuple[int, int], Set[Tuple[int, int]]] = {}
        self._pending_batches: Dict[int, List[NpQueryMessage]] = {}
        self._batch_scheduled: Set[int] = set()
        for node in network.nodes:
            node.register_handler("np-query", self._on_query)
            node.register_handler("np-query-batch", self._on_query_batch)
            node.register_handler("np-relay", self._on_relay)

    def register_session(self, key: Tuple[int, int]) -> None:
        """Open the record of one session (its gateway's ``start()``)."""
        self._sessions.setdefault(key, set())

    def release_session(self, key: Tuple[int, int]) -> None:
        """Drop every per-node trace of one session (cancel/teardown).

        The record goes with its dedup marks and the session's broadcasts
        are filtered out of pending sleeper batches; report events already
        scheduled find no record and do nothing.  Idempotent.
        """
        if self._sessions.pop(key, None) is None:
            return
        for node_id, pending in list(self._pending_batches.items()):
            kept = [m for m in pending if (m.user_id, m.query_id) != key]
            if kept:
                self._pending_batches[node_id] = kept
            else:
                del self._pending_batches[node_id]

    def session_count(self) -> int:
        """Sessions registered and not yet released."""
        return len(self._sessions)

    def pending_batch_count(self) -> int:
        """Nodes holding queries buffered for their sleeping neighbours."""
        return len(self._pending_batches)

    def session_state_count(self, key: Tuple[int, int]) -> int:
        """Dedup marks + buffered queries one session still holds (tests)."""
        buffered = sum(
            1
            for pending in self._pending_batches.values()
            for m in pending
            if (m.user_id, m.query_id) == key
        )
        return len(self._sessions.get(key, ())) + buffered

    # ------------------------------------------------------------------
    # Query reception
    # ------------------------------------------------------------------
    def _on_query(self, node: SensorNode, frame: Frame) -> None:
        msg: NpQueryMessage = frame.payload
        self._handle_query(node, msg)

    def _on_query_batch(self, node: SensorNode, frame: Frame) -> None:
        batch: Sequence[NpQueryMessage] = frame.payload
        for msg in batch:
            self._handle_query(node, msg)

    def _handle_query(self, node: SensorNode, msg: NpQueryMessage) -> None:
        seen = self._sessions.get((msg.user_id, msg.query_id))
        if seen is None:
            return
        mark = (node.node_id, msg.k)
        if mark in seen:
            return
        seen.add(mark)
        if node.position.distance_to(msg.issue_position) > msg.radius_m:
            return  # spatial constraint: batches reach beyond the area edge
        now = self.sim.now
        if now >= msg.deadline - 1e-3:
            return
        if node.is_active:
            self._buffer_for_sleepers(node, msg)
        sense_time = msg.deadline - msg.freshness_s
        if now >= sense_time:
            self._respond(node, msg)
            return
        if node.sleep_scheduler is not None:
            node.sleep_scheduler.add_wake_interval(
                sense_time, min(msg.deadline, sense_time + WAKE_SLACK_S)
            )
        jitter = float(node.rng.uniform(0.0, REPORT_JITTER_MAX_S))
        self.sim.schedule_at(sense_time + jitter, self._respond, node, msg)

    def _buffer_for_sleepers(self, node: SensorNode, msg: NpQueryMessage) -> None:
        """PSM buffered delivery: re-announce at the next beacon window.

        This is MAC-level behaviour, not prefetching — a sleeping neighbour
        only benefits if its regular wake-up happens to land early enough in
        the current period to still take a fresh reading.
        """
        psm = self.network.config.psm
        now = self.sim.now
        if psm.in_window(now):
            next_window = now  # deliverable right away: sleepers listen now
        else:
            next_window = psm.next_window_start(now)
        if next_window >= msg.deadline - 5e-3:
            return  # the window opens too late to matter for this period
        has_target = any(not nb.is_active for nb in node.neighbors)
        if not has_target:
            return
        self._pending_batches.setdefault(node.node_id, []).append(msg)
        if node.node_id in self._batch_scheduled:
            return
        self._batch_scheduled.add(node.node_id)
        offset = float(node.rng.uniform(2e-3, 0.05))
        self.sim.schedule_at(next_window + offset, self._flush_batch, node)

    def _flush_batch(self, node: SensorNode) -> None:
        self._batch_scheduled.discard(node.node_id)
        pending = self._pending_batches.pop(node.node_id, [])
        now = self.sim.now
        live = [m for m in pending if now < m.deadline - 1e-3]
        if not live:
            return
        frame = Frame(
            kind="np-query-batch",
            src=node.node_id,
            dst=BROADCAST,
            size_bytes=12 + NP_QUERY_SIZE_BYTES * len(live),
            payload=tuple(live),
        )
        node.send(frame)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _respond(self, node: SensorNode, msg: NpQueryMessage) -> None:
        if (msg.user_id, msg.query_id) not in self._sessions:
            return  # session torn down after this reading was scheduled
        now = self.sim.now
        if now >= msg.deadline:
            return
        if node.radio.is_sleeping:
            return  # wake override raced the schedule; give up this period
        report = NpReportMessage(
            query_id=msg.query_id,
            k=msg.k,
            node_id=node.node_id,
            value=node.read_sensor(),
            user_id=msg.user_id,
        )
        # Route toward where the user issued the query; the delivering node
        # relays the final hop to the proxy directly.
        if node.position.distance_to(msg.issue_position) <= RELAY_RADIUS_M:
            self._relay_to_proxy(node, msg, report)
            return
        self.geo.send(
            origin=node,
            dest=msg.issue_position,
            deliver_radius=RELAY_RADIUS_M,
            inner_kind="np-relay",
            inner_payload=(msg, report),
            inner_size=NP_REPORT_SIZE_BYTES,
        )

    def _on_relay(self, node: SensorNode, frame: Frame) -> None:
        msg, report = frame.payload
        self._relay_to_proxy(node, msg, report)

    def _relay_to_proxy(
        self, node: SensorNode, msg: NpQueryMessage, report: NpReportMessage
    ) -> None:
        frame = Frame(
            kind="np-report",
            src=node.node_id,
            dst=msg.proxy_id,
            size_bytes=NP_REPORT_SIZE_BYTES,
            payload=report,
        )
        node.send(frame)
