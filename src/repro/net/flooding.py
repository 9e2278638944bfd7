"""Scoped flooding within a geographic area.

Used by the No-Prefetching baseline (the user broadcasts the query into the
current query area each period) and by MobiQuery's *cancel* messages along
abandoned paths.  Every node inside the scope rebroadcasts a given flood id
exactly once, with a small random jitter so that simultaneous rebroadcasts
don't self-collide deterministically.

Query-tree *setup* flooding lives in :mod:`repro.core.service` instead
— it needs parent selection and per-tree bookkeeping this generic flood does
not carry.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Optional, Set

from ..geometry.shapes import Circle
from ..sim.trace import Tracer
from .network import Network
from .node import SensorNode
from .packet import BROADCAST, Frame

#: wire overhead of the flood envelope beyond the inner message
FLOOD_HEADER_BYTES = 10

_flood_ids = itertools.count(1)


@dataclass(frozen=True)
class FloodEnvelope:
    """A flooded message: scope circle plus the inner application message."""

    flood_id: int
    area: Circle
    inner_kind: str
    inner_payload: Any
    inner_size: int

    def wire_size(self) -> int:
        """Bytes on the air."""
        return self.inner_size + FLOOD_HEADER_BYTES


class FloodManager:
    """Best-effort scoped flooding (one manager per run)."""

    FRAME_KIND = "flood"

    def __init__(self, network: Network, tracer: Optional[Tracer] = None) -> None:
        self.network = network
        self.tracer = tracer if tracer is not None else network.tracer
        self._seen: Dict[int, Set[int]] = {}
        # Floods torn down via release(): frames still in flight must be
        # dropped, not treated as a brand-new flood (setdefault in _accept
        # would otherwise restart the relay wave and leak a dedup entry).
        self._released: Set[int] = set()
        for node in network.nodes:
            node.register_handler(self.FRAME_KIND, self._on_frame)

    def start_flood(
        self,
        area: Circle,
        inner_kind: str,
        inner_payload: Any,
        inner_size: int,
        origin: Optional[SensorNode] = None,
    ) -> FloodEnvelope:
        """Begin a flood of ``inner_*`` over ``area``.

        Only backbone nodes rebroadcast; awake sleepers still hear and
        deliver.

        Args:
            area: geographic scope; only nodes inside rebroadcast/deliver.
            inner_kind: handler kind invoked at every covered node.
            inner_payload: message object (by reference).
            inner_size: payload wire size in bytes.
            origin: node that initiates the flood.  When omitted, the flood
                is *injected* at every awake node in the area closest to the
                centre — callers flooding from a mobile proxy instead send a
                broadcast frame of kind ``"flood"`` themselves.
        """
        envelope = FloodEnvelope(
            flood_id=next(_flood_ids),
            area=area,
            inner_kind=inner_kind,
            inner_payload=inner_payload,
            inner_size=inner_size,
        )
        self._seen[envelope.flood_id] = set()
        if origin is not None:
            self._accept(origin, envelope)
        return envelope

    def make_frame(self, src_id: int, envelope: FloodEnvelope) -> Frame:
        """A broadcast frame carrying ``envelope`` (for proxy-originated floods)."""
        return Frame(
            kind=self.FRAME_KIND,
            src=src_id,
            dst=BROADCAST,
            size_bytes=envelope.wire_size(),
            payload=envelope,
        )

    def release(self, flood_id: int) -> None:
        """Drop the dedup state of one flood (session cancel/teardown).

        The flood is also marked dead: frames of it still in flight (or
        rebroadcast events still pending) are discarded on arrival instead
        of restarting the relay wave.  One integer per released flood.
        """
        self._seen.pop(flood_id, None)
        self._released.add(flood_id)

    def live_flood_count(self) -> int:
        """Floods with dedup state still held (tests, teardown assertions)."""
        return len(self._seen)

    # ------------------------------------------------------------------
    # Flood engine
    # ------------------------------------------------------------------
    def _on_frame(self, node: SensorNode, frame: Frame) -> None:
        envelope: FloodEnvelope = frame.payload
        self._accept(node, envelope)

    def _accept(self, node: SensorNode, envelope: FloodEnvelope) -> None:
        if envelope.flood_id in self._released:
            return  # torn down; a straggler frame must not re-seed the flood
        seen = self._seen.setdefault(envelope.flood_id, set())
        if node.node_id in seen:
            return
        seen.add(node.node_id)
        if not envelope.area.contains(node.position):
            return
        node.handle_local(envelope.inner_kind, envelope.inner_payload, envelope.inner_size)
        if not node.is_active:
            return
        jitter = float(node.rng.uniform(5e-4, 4e-3))
        node.sim.schedule(jitter, self._rebroadcast, node, envelope)

    #: deferred-rebroadcast retries for a node that is *crashed* (not merely
    #: duty-cycled) at its slot — it may recover and still widen coverage
    _CRASH_RETRIES = 2
    _CRASH_RETRY_S = 1.0

    def _rebroadcast(
        self, node: SensorNode, envelope: FloodEnvelope, retries: int = _CRASH_RETRIES
    ) -> None:
        if envelope.flood_id in self._released:
            return
        if node.crashed:
            # Fault-plane death, not PSM sleep: defer a bounded number of
            # times in case the node recovers while the flood is still
            # live.  Ordinary sleepers keep the silent skip below — this
            # branch is unreachable without an active fault plan.
            if retries > 0:
                node.sim.schedule(
                    self._CRASH_RETRY_S, self._rebroadcast, node, envelope, retries - 1
                )
            return
        if node.radio.is_sleeping:
            return
        node.send(self.make_frame(node.node_id, envelope))
