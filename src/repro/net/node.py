"""Endpoints: static sensor nodes and the mobile proxy.

A :class:`SensorNode` bundles the per-node stack (radio, MAC, optional sleep
scheduler, sensor) and dispatches received application frames to protocol
handlers registered by kind.  Protocol modules (routing, dissemination,
collection, ...) register their handlers at network construction and keep
their own per-node state; the node itself stays protocol-agnostic.

A :class:`MobileEndpoint` is the user's proxy: an always-on radio whose
position is a function of time supplied by the mobility model.

Neither takes a kernel or a tracer of its own: the channel is the world's
wiring point, and an endpoint, its MAC and its sleep scheduler read
``channel.sim`` and ``channel.tracer``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from ..geometry.vec import Vec2
from .channel import Channel
from .energy import PAPER_POWER_MODEL
from .field import ScalarField, UniformField
from .mac import MacLayer, SendCallback
from .packet import Frame
from .psm import PsmConfig, SleepScheduler
from .radio import Radio

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import numpy as np

    from ..mobility.path import MotionPiece

#: Handler signature: ``handler(node, frame)``.
FrameHandler = Callable[["SensorNode", Frame], None]

#: Role constants.
ROLE_ACTIVE = "active"
ROLE_SLEEPER = "sleeper"


class SensorNode:
    """One static sensor node with its full communication stack."""

    def __init__(
        self,
        node_id: int,
        position: Vec2,
        channel: Channel,
        rng: np.random.Generator,
        field: Optional[ScalarField] = None,
        sensor_noise_std: float = 0.0,
    ) -> None:
        self.node_id = node_id
        self.position = position
        self.sim = channel.sim
        self.channel = channel
        self.rng = rng
        self.tracer = channel.tracer
        self.field = field or UniformField()
        self.sensor_noise_std = sensor_noise_std
        self.radio = Radio(self.sim, node_id, PAPER_POWER_MODEL)
        self.mac = MacLayer(self, channel, rng)
        self.mac.receive_callback = self._dispatch
        # Bind channel delivery straight to the MAC: one call per reception
        # instead of two (the class method below documents the contract).
        self.deliver_frame = self.mac.on_frame  # type: ignore[method-assign]
        self.role = ROLE_ACTIVE
        #: set by the fault plane while the node is down (forced sleep with
        #: wake blocked); protocol recovery paths key off this flag
        self.crashed = False
        self.sleep_scheduler: Optional[SleepScheduler] = None
        #: nodes in range: its channel's static listeners (set by the builder)
        self.neighbors: Sequence["SensorNode"] = ()
        #: backbone subset of ``neighbors`` (set after power management)
        self.active_neighbors: List["SensorNode"] = []
        self._handlers: Dict[str, FrameHandler] = {}

    # ------------------------------------------------------------------
    # ChannelEndpoint protocol
    # ------------------------------------------------------------------
    def position_at(self, time: float) -> Vec2:
        """Static nodes never move."""
        return self.position

    def deliver_frame(self, frame: Frame) -> None:
        """Channel delivery entry point: broadcasts, and frames addressed here."""
        self.mac.on_frame(frame)

    # ------------------------------------------------------------------
    # Application layer
    # ------------------------------------------------------------------
    def register_handler(self, kind: str, handler: FrameHandler) -> None:
        """Install the protocol handler for frames of ``kind``.

        Raises:
            ValueError: when a second protocol claims the same kind —
                almost certainly a wiring bug worth failing loudly on.
        """
        if kind in self._handlers:
            raise ValueError(f"handler for kind {kind!r} already registered")
        self._handlers[kind] = handler

    def _dispatch(self, frame: Frame) -> None:
        handler = self._handlers.get(frame.kind)
        if handler is not None:
            handler(self, frame)
        else:
            self.tracer.emit("unhandled-frame", self.sim.now, at=self.node_id, frame_kind=frame.kind)

    def send(self, frame: Frame, callback: Optional[SendCallback] = None) -> None:
        """Queue a frame on this node's MAC."""
        self.mac.send(frame, callback)

    def handle_local(self, kind: str, payload: object, size_bytes: int = 0) -> None:
        """Deliver a message to this node's own handler without the radio.

        Used when an encapsulating protocol (geo routing, flooding) unwraps
        an inner message at its destination node.
        """
        frame = Frame(
            kind=kind,
            src=self.node_id,
            dst=self.node_id,
            size_bytes=size_bytes,
            payload=payload,
        )
        self._dispatch(frame)

    # ------------------------------------------------------------------
    # Roles and sensing
    # ------------------------------------------------------------------
    @property
    def is_active(self) -> bool:
        """Whether this node is part of the always-on backbone."""
        return self.role == ROLE_ACTIVE

    def make_sleeper(self, psm_config: PsmConfig) -> None:
        """Demote the node to a duty-cycled sleeper and start its schedule.

        The scheduler joins the kernel's shared per-phase wake wheel (all
        sleepers on one beacon phase are serviced by a single boundary
        event per window edge — see :class:`repro.net.psm.WakeWheel`).
        """
        self.role = ROLE_SLEEPER
        self.sleep_scheduler = SleepScheduler(self.radio, self.mac, psm_config)
        self.sleep_scheduler.start()

    def read_sensor(self) -> float:
        """Sample the physical field at this node, with sensor noise."""
        value = self.field.value(self.position, self.sim.now)
        if self.sensor_noise_std > 0:
            value += float(self.rng.normal(0.0, self.sensor_noise_std))
        return value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<SensorNode {self.node_id} {self.role} @{self.position}>"


class MobileEndpoint:
    """The user's proxy device: mobile, always-on, full MAC stack."""

    def __init__(
        self,
        node_id: int,
        channel: Channel,
        rng: np.random.Generator,
        position_fn: Callable[[float], Vec2],
        max_speed_mps: float = float("inf"),
        segment_fn: Optional[Callable[[float], "MotionPiece"]] = None,
    ) -> None:
        self.node_id = node_id
        self.sim = channel.sim
        self.channel = channel
        self.rng = rng
        self._position_fn = position_fn
        if segment_fn is not None:
            #: The mobility model's flat motion pieces (``PiecewisePath.
            #: segment_at``), which must evaluate to ``position_fn``'s
            #: positions bit for bit.  The channel range-tests a proxy on
            #: its current piece; one without this attribute is asked
            #: ``position_at`` for every test instead.
            self.segment_at = segment_fn
        #: Bound on the endpoint's speed (m/s): ``|position_at(t2) -
        #: position_at(t1)| <= max_speed_mps * (t2 - t1)`` for t1 <= t2.
        #: The channel's mobile cell index relies on it (a proxy moving
        #: faster than it declared can miss frames), and
        #: ``Channel.register_mobile`` rejects a negative or NaN value.
        #: The default (inf) is always correct: the proxy is then a
        #: candidate listener for every frame.
        self.max_speed_mps = max_speed_mps
        # Bind the mobility model straight onto the instance: the proxy's
        # own transmissions and the gateway ask for its position.
        self.position_at = position_fn  # type: ignore[method-assign]
        self.radio = Radio(self.sim, node_id, PAPER_POWER_MODEL)
        self.mac = MacLayer(self, channel, rng)
        self.mac.receive_callback = self._dispatch
        self.deliver_frame = self.mac.on_frame  # type: ignore[method-assign]
        self._handlers: Dict[str, Callable[["MobileEndpoint", Frame], None]] = {}

    def position_at(self, time: float) -> Vec2:
        """Proxy position from the mobility model."""
        return self._position_fn(time)

    @property
    def position(self) -> Vec2:
        """Current position."""
        return self._position_fn(self.sim.now)

    def deliver_frame(self, frame: Frame) -> None:
        self.mac.on_frame(frame)

    def register_handler(
        self, kind: str, handler: Callable[["MobileEndpoint", Frame], None]
    ) -> None:
        """Install the proxy-side handler for frames of ``kind``."""
        if kind in self._handlers:
            raise ValueError(f"handler for kind {kind!r} already registered")
        self._handlers[kind] = handler

    def _dispatch(self, frame: Frame) -> None:
        handler = self._handlers.get(frame.kind)
        if handler is not None:
            handler(self, frame)

    def send(self, frame: Frame, callback: Optional[SendCallback] = None) -> None:
        """Queue a frame on the proxy's MAC."""
        self.mac.send(frame, callback)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<MobileEndpoint {self.node_id} @{self.position}>"
