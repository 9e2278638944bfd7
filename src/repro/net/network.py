"""Network construction: node placement, neighbour discovery, backbone wiring.

``build_network`` assembles a full sensor field from a :class:`NetworkConfig`
— the paper's defaults are 200 nodes uniform in a 450 m x 450 m square,
``Rc = 105 m``, ``Rs = 50 m``, 2 Mb/s — then a power-management protocol
from :mod:`repro.power` partitions nodes into the always-on backbone and the
duty-cycled sleepers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Set

from ..geometry.shapes import Rect
from ..geometry.vec import Vec2
from ..sim.kernel import Simulator
from ..sim.rng import RandomStreams
from ..sim.trace import Tracer
from .channel import Channel
from .field import ScalarField, UniformField
from .node import ROLE_ACTIVE, SensorNode
from .psm import PsmConfig


@dataclass(frozen=True)
class NetworkConfig:
    """Static parameters of the sensor field (paper Section 6.1 defaults)."""

    n_nodes: int = 200
    region: Rect = field(default_factory=lambda: Rect.square(450.0))
    comm_range_m: float = 105.0
    sensing_range_m: float = 50.0
    bitrate_bps: float = 2e6
    sleep_period_s: float = 9.0
    active_window_s: float = 0.1
    #: phase of the shared beacon schedule relative to t=0; experiments draw
    #: this randomly so query start and wake-up windows are not aligned
    psm_offset_s: float = 0.0
    sensor_noise_std: float = 0.0

    def __post_init__(self) -> None:
        if self.n_nodes <= 0:
            raise ValueError("n_nodes must be > 0")
        if self.comm_range_m <= 0 or self.sensing_range_m <= 0:
            raise ValueError("ranges must be > 0")
        if self.bitrate_bps <= 0:
            raise ValueError(f"bitrate must be > 0, got {self.bitrate_bps:g}")
        # the duty-cycle rules belong to the schedule they describe
        PsmConfig(
            beacon_interval_s=self.sleep_period_s,
            active_window_s=self.active_window_s,
        )

    @property
    def psm(self) -> PsmConfig:
        """The PSM schedule implied by the sleep period / active window."""
        return PsmConfig(
            beacon_interval_s=self.sleep_period_s,
            active_window_s=self.active_window_s,
            offset_s=self.psm_offset_s % self.sleep_period_s,
        )


class Network:
    """A built sensor field: nodes, channel, role partition.

    The channel's grid is the field's one spatial index: neighbour lists
    and disk queries both read it.
    """

    def __init__(
        self,
        sim: Simulator,
        config: NetworkConfig,
        channel: Channel,
        nodes: List[SensorNode],
        tracer: Tracer,
    ) -> None:
        self.sim = sim
        self.config = config
        self.channel = channel
        self.nodes = nodes
        self.tracer = tracer
        self._compute_neighbors()
        self._backbone_applied = False

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def _compute_neighbors(self) -> None:
        listeners = self.channel.static_listeners
        for node in self.nodes:
            node.neighbors = listeners(node.node_id)

    def node_by_id(self, node_id: int) -> SensorNode:
        """Look up a node by id (ids are dense, starting at 0)."""
        node = self.nodes[node_id]
        if node.node_id != node_id:  # defensive: ids must stay positional
            raise KeyError(f"node id {node_id} not positional")
        return node

    def nodes_in_disk(self, center: Vec2, radius: float) -> List[SensorNode]:
        """All sensor nodes within ``radius`` of ``center``."""
        return self.channel.grid.query_disk(center, radius)

    def active_nodes_in_disk(self, center: Vec2, radius: float) -> List[SensorNode]:
        """Backbone nodes within ``radius`` of ``center``."""
        return [n for n in self.nodes_in_disk(center, radius) if n.is_active]

    @property
    def active_nodes(self) -> List[SensorNode]:
        """The always-on backbone."""
        return [n for n in self.nodes if n.is_active]

    @property
    def sleeper_nodes(self) -> List[SensorNode]:
        """The duty-cycled majority."""
        return [n for n in self.nodes if not n.is_active]

    # ------------------------------------------------------------------
    # Backbone
    # ------------------------------------------------------------------
    def apply_backbone(self, active_ids: Iterable[int]) -> None:
        """Partition nodes into backbone and sleepers and start schedules.

        Called exactly once per run, with the id set chosen by a
        power-management protocol.
        """
        if self._backbone_applied:
            raise RuntimeError("backbone already applied")
        self._backbone_applied = True
        active: Set[int] = set(active_ids)
        psm = self.config.psm
        for node in self.nodes:
            if node.node_id in active:
                node.role = ROLE_ACTIVE
            else:
                node.make_sleeper(psm)
        for node in self.nodes:
            node.active_neighbors = [n for n in node.neighbors if n.is_active]
        self.tracer.emit(
            "backbone",
            self.sim.now,
            active=len(active),
            total=len(self.nodes),
        )

    def is_backbone_connected(self) -> bool:
        """BFS connectivity check over the active subgraph."""
        active = self.active_nodes
        if not active:
            return False
        seen = {active[0].node_id}
        frontier = [active[0]]
        while frontier:
            node = frontier.pop()
            for nb in node.active_neighbors:
                if nb.node_id not in seen:
                    seen.add(nb.node_id)
                    frontier.append(nb)
        return len(seen) == len(active)


def uniform_positions(
    config: NetworkConfig, streams: RandomStreams
) -> List[Vec2]:
    """Uniform-random node placement over the region (stream: ``topology``)."""
    rng = streams.stream("topology")
    region = config.region
    xs = rng.uniform(region.x_min, region.x_max, size=config.n_nodes)
    ys = rng.uniform(region.y_min, region.y_max, size=config.n_nodes)
    return [Vec2(float(x), float(y)) for x, y in zip(xs, ys)]


def build_network(
    sim: Simulator,
    config: NetworkConfig,
    streams: RandomStreams,
    tracer: Optional[Tracer] = None,
    field_model: Optional[ScalarField] = None,
    positions: Optional[Sequence[Vec2]] = None,
) -> Network:
    """Construct the sensor field: channel, nodes, neighbour lists.

    Args:
        sim: event kernel for this run.
        config: field parameters.
        streams: root RNG family; uses ``topology`` and per-node ``mac``
            streams.
        tracer: shared tracer (a fresh silent one if omitted).
        field_model: physical field sensors sample (uniform if omitted).
        positions: explicit node positions (overrides random placement);
            useful for deterministic tests.

    Returns:
        A :class:`Network` with roles not yet assigned — call a power
        protocol and then :meth:`Network.apply_backbone`.
    """
    tracer = tracer if tracer is not None else Tracer()
    channel = Channel(
        sim,
        comm_range=config.comm_range_m,
        bitrate_bps=config.bitrate_bps,
        tracer=tracer,
    )
    if positions is None:
        positions = uniform_positions(config, streams)
    elif len(positions) != config.n_nodes:
        raise ValueError(
            f"{len(positions)} positions supplied for {config.n_nodes} nodes"
        )
    the_field = field_model or UniformField()
    nodes: List[SensorNode] = []
    for node_id, position in enumerate(positions):
        node = SensorNode(
            node_id=node_id,
            position=position,
            sim=sim,
            channel=channel,
            rng=streams.stream(f"mac-{node_id}"),
            field=the_field,
            sensor_noise_std=config.sensor_noise_std,
            tracer=tracer,
        )
        channel.register_static(node)
        nodes.append(node)
    return Network(sim, config, channel, nodes, tracer)
