"""Counter-per-node oracle for the channel's carrier sense.

The channel used to answer ``medium_busy`` / ``busy_until`` for a static node
from bookkeeping written on every frame: a count of the in-flight
transmissions from *other* senders covering the node and the latest end time
among them, incremented at ``transmit`` for every endpoint the grid's
``query_disk`` returned around the sender and decremented again at the end of
the airtime.  Carrier sense is read about once per frame and those counters
were written twice per neighbour per frame, so the channel now scans its
(short) in-flight list at the read instead; this module keeps the counters'
semantics as the reference that scan is tested against:

* a static node is busy while its count is positive, until the latest end
  time it has seen (which, while the count is positive, is the in-flight
  maximum: a finished transmission can hold the maximum only once nothing
  outlasts it);
* a node registered mid-airtime is seeded from the frames already on the air;
* a moving endpoint has no counters: it is range-tested, where it is now,
  against every frame on the air;
* nobody senses their own frame, and a frame is its sender's *by identity* —
  a proxy that reuses the id of one that left mid-airtime senses the
  departed proxy's frame;
* a sleeping radio reads the medium idle (``busy_until`` does not look at
  the radio).

The test feeds every ``register_static``, transmission start and airtime end
of one interleaving to :class:`CarrierSenseOracle` and to the real
:class:`~repro.net.channel.Channel`, and compares their answers for every
registered endpoint after every step.
"""

from typing import Dict, List, Optional

from repro.geometry.vec import Vec2
from repro.net.channel import Channel, ChannelEndpoint


class OnAir:
    """One frame in flight: who sent it, from where, until when, over whom."""

    def __init__(
        self, sender: ChannelEndpoint, position: Vec2, end_time: float, covered: List[int]
    ) -> None:
        self.sender = sender
        self.position = position
        self.end_time = end_time
        #: static node ids whose counters this frame incremented
        self.covered = covered


class CarrierSenseOracle:
    """Busy counters per static node, a range test per call for anyone else."""

    def __init__(self, channel: Channel) -> None:
        self.channel = channel
        self.r_sq_eps = channel.comm_range * channel.comm_range + 1e-9
        self.static: Dict[int, ChannelEndpoint] = {}
        self.count: Dict[int, int] = {}
        self.latest: Dict[int, float] = {}
        self.in_flight: List[OnAir] = []

    def register_static(self, endpoint: ChannelEndpoint) -> None:
        """Call beside ``channel.register_static(endpoint)``."""
        node_id = endpoint.node_id
        position = endpoint.position_at(0.0)
        self.static[node_id] = endpoint
        self.count[node_id] = 0
        self.latest[node_id] = 0.0
        # In-flight frames took their covered sets before this node existed.
        for tx in self.in_flight:
            if (
                tx.sender is not endpoint
                and tx.position.distance_sq_to(position) <= self.r_sq_eps
            ):
                self._cover(tx, node_id)

    def _cover(self, tx: OnAir, node_id: int) -> None:
        tx.covered.append(node_id)
        self.count[node_id] += 1
        if tx.end_time > self.latest[node_id]:
            self.latest[node_id] = tx.end_time

    def transmit(self, sender: ChannelEndpoint, position: Vec2, end_time: float) -> OnAir:
        """A frame from ``sender`` at ``position`` goes on the air."""
        tx = OnAir(sender, position, end_time, [])
        for endpoint in self.channel.grid.query_disk(position, self.channel.comm_range):
            if endpoint is not sender:
                self._cover(tx, endpoint.node_id)
        self.in_flight.append(tx)
        return tx

    def finish(self, tx: OnAir) -> None:
        """The frame's airtime elapsed."""
        self.in_flight.remove(tx)
        for node_id in tx.covered:
            self.count[node_id] -= 1

    def busy_until(self, endpoint: ChannelEndpoint) -> Optional[float]:
        node_id = endpoint.node_id
        if self.static.get(node_id) is endpoint:
            return self.latest[node_id] if self.count[node_id] else None
        position = endpoint.position_at(self.channel.sim.now)
        return max(
            (
                tx.end_time
                for tx in self.in_flight
                if tx.sender is not endpoint
                and tx.position.distance_sq_to(position) <= self.r_sq_eps
            ),
            default=None,
        )

    def medium_busy(self, endpoint: ChannelEndpoint) -> bool:
        return not endpoint.radio.is_sleeping and self.busy_until(endpoint) is not None
