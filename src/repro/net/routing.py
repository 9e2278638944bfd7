"""Geographic routing and area anycast over the backbone.

MobiQuery relays prefetch messages to *pickup points* with an **area
anycast** (the paper cites SPEED): deliver to any node within ``Rp`` of a
target location.  We implement greedy geographic forwarding over the
always-on backbone — each hop forwards to the active neighbour closest to
the target that makes strict progress — with two pragmatic touches:

* per-hop unicast rides the MAC's ACK/retry machinery, and on link failure
  the router fails over to the next-best neighbour;
* if greedy forwarding reaches a local minimum (no neighbour is closer),
  the message is delivered *there*: that node is the best the backbone can
  do, matching the paper's note that ``Rp`` "may vary depending on the
  density of the sensor network" to guarantee delivery.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, List

from ..geometry.vec import Vec2
from .network import Network
from .node import SensorNode
from .packet import Frame

#: wire overhead of the geo envelope beyond the inner message
GEO_HEADER_BYTES = 12

#: hops after which a routed message is dropped (``hop_limit``)
MAX_HOPS = 64

_route_ids = itertools.count(1)


@dataclass
class GeoEnvelope:
    """A message in transit toward a geographic target."""

    dest: Vec2
    deliver_radius: float
    inner_kind: str
    inner_payload: Any
    inner_size: int
    route_id: int = field(default_factory=lambda: next(_route_ids))
    hops: int = 0

    def wire_size(self) -> int:
        """Bytes the envelope occupies on the air."""
        return self.inner_size + GEO_HEADER_BYTES


class GeoRouter:
    """Greedy geographic forwarding manager (one per run)."""

    FRAME_KIND = "geo"

    def __init__(self, network: Network) -> None:
        self.network = network
        self.tracer = network.tracer
        self.delivered = 0
        self.dropped = 0
        for node in network.nodes:
            node.register_handler(self.FRAME_KIND, self._on_frame)

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------
    def send(
        self,
        origin: SensorNode,
        dest: Vec2,
        deliver_radius: float,
        inner_kind: str,
        inner_payload: Any,
        inner_size: int,
    ) -> GeoEnvelope:
        """Route a message from ``origin`` toward ``dest``.

        Delivery happens at the first node within ``deliver_radius`` of
        ``dest`` (or the closest reachable node on greedy failure): the
        inner message is dispatched to that node's ``inner_kind`` handler.
        """
        envelope = GeoEnvelope(
            dest=dest,
            deliver_radius=deliver_radius,
            inner_kind=inner_kind,
            inner_payload=inner_payload,
            inner_size=inner_size,
        )
        self._route_from(origin, envelope)
        return envelope

    # ------------------------------------------------------------------
    # Forwarding engine
    # ------------------------------------------------------------------
    def _on_frame(self, node: SensorNode, frame: Frame) -> None:
        envelope: GeoEnvelope = frame.payload
        self._route_from(node, envelope)

    def _route_from(self, node: SensorNode, envelope: GeoEnvelope) -> None:
        my_distance = node.position.distance_to(envelope.dest)
        if my_distance <= envelope.deliver_radius:
            self._deliver(node, envelope)
            return
        if envelope.hops >= MAX_HOPS:
            self._drop(node, envelope, "hop_limit")
            return
        candidates = self._progress_candidates(node, envelope.dest, my_distance)
        if not candidates:
            # Local minimum of the backbone: this is the closest the anycast
            # can get, so deliver here (expanded-radius delivery).
            self.tracer.emit(
                "anycast-expanded",
                node.sim.now,
                at=node.node_id,
                distance=my_distance,
            )
            self._deliver(node, envelope)
            return
        self._try_candidates(node, envelope, candidates, 0)

    def _progress_candidates(
        self, node: SensorNode, dest: Vec2, my_distance: float
    ) -> List[SensorNode]:
        candidates = [
            nb
            for nb in node.active_neighbors
            if nb.position.distance_to(dest) < my_distance - 1e-9
        ]
        candidates.sort(key=lambda nb: nb.position.distance_sq_to(dest))
        return candidates

    def _try_candidates(
        self,
        node: SensorNode,
        envelope: GeoEnvelope,
        candidates: List[SensorNode],
        index: int,
    ) -> None:
        if index >= len(candidates):
            self._drop(node, envelope, "all_links_failed")
            return
        next_hop = candidates[index]
        forwarded = GeoEnvelope(
            dest=envelope.dest,
            deliver_radius=envelope.deliver_radius,
            inner_kind=envelope.inner_kind,
            inner_payload=envelope.inner_payload,
            inner_size=envelope.inner_size,
            route_id=envelope.route_id,
            hops=envelope.hops + 1,
        )
        frame = Frame(
            kind=self.FRAME_KIND,
            src=node.node_id,
            dst=next_hop.node_id,
            size_bytes=forwarded.wire_size(),
            payload=forwarded,
        )

        def on_done(success: bool) -> None:
            if not success:
                self._try_candidates(node, envelope, candidates, index + 1)

        node.send(frame, on_done)

    def _deliver(self, node: SensorNode, envelope: GeoEnvelope) -> None:
        self.delivered += 1
        self.tracer.emit(
            "geo-delivered",
            node.sim.now,
            at=node.node_id,
            route=envelope.route_id,
            hops=envelope.hops,
            inner=envelope.inner_kind,
        )
        node.handle_local(envelope.inner_kind, envelope.inner_payload, envelope.inner_size)

    def _drop(self, node: SensorNode, envelope: GeoEnvelope, reason: str) -> None:
        self.dropped += 1
        self.tracer.emit(
            "geo-dropped",
            node.sim.now,
            at=node.node_id,
            route=envelope.route_id,
            reason=reason,
            inner=envelope.inner_kind,
        )
