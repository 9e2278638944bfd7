"""Wireless channel: unit-disk propagation, airtime, receiver-side collisions.

The channel is the broker between transmitting radios and listening ones:

* **Propagation** is the unit-disk model the paper's ns-2 setup approximates
  (communication range ``Rc = 105 m`` in the evaluation).  Propagation delay
  is negligible at these ranges and is folded into airtime.
* **Airtime** is ``preamble + 8 * wire_bytes / bitrate`` (2 Mb/s in the
  paper's simulations).
* **Collisions** are detected per receiver: two frames overlapping in time
  at a listening radio corrupt each other.  There is no capture effect,
  matching the default ns-2 two-state model the paper used.
* **Carrier sense**: a node senses the medium busy when any in-range
  transmission is in flight.  Senders that honour carrier sense therefore
  collide mainly through hidden terminals and same-slot backoff expiry —
  the loss mechanism behind MQ-GP's fidelity variance in Figure 5.

The channel is the world's wiring point.  It holds the world's one kernel
(``sim``) and one tracer (clocks are synchronised, paper assumption 1, so a
world has exactly one of each), and every component built on it reads both
from it: nodes, proxies and their MACs and sleep schedulers directly, the
routers, floods, protocols, gateways and fault injector through the
:class:`~repro.net.network.Network` that wraps it.  None takes its own.

Static sensor nodes are indexed once, in ``Channel.grid``: the field's only
static index, which the network's neighbour lists and disk queries read.
Mobile endpoints (the users' proxies) are tracked separately, each as the
flat linear piece of its motion it is currently on, and evaluated at
transmission start.  Cells are :mod:`repro.geometry.grid`'s.

Hot-path layout: node positions are fixed at t=0, so each static node's
in-range listener set is computed once (lazily, in grid-query order so
reception ordering — and therefore every downstream event sequence — is
bit-identical to querying the grid per transmission) and reused for every
``transmit``.  Carrier sense keeps no state: ``medium_busy`` and
``busy_until`` scan the in-flight list (one to three frames) from where the
asking endpoint is now — static node and proxy alike — with the range test
the grid applies to a frame's listeners.  Busy counters per static node
would make that read O(1), but they are written twice per neighbour per
frame (2 x 28 ids on the default field, 2 x 86 on 600 nodes) for a read that
happens about once per frame; state written forty to a hundred times more
often than it is read is cheaper computed at the read.  (The counters live
on as the test oracle ``tests/carrier_sense_oracle.py``.)

Every listener in range pays for a frame — the paper's Fig. 8 power is the
RX time of every radio that heard something — but only a broadcast's
listeners and a unicast frame's addressee act on it.  **A unicast frame's
bystanders are counted, not received**: the channel begins a reception at
the readers (every listener of a broadcast, the addressee of a unicast
frame) and nowhere else.  One :class:`BroadcastReception` record per frame
carries the readers' receptions in parallel arrays (receiver refs, corrupt
flags, corruption reasons) next to the frame's cohort (the radios of the
sender's static listeners, the mobiles it heard) and its index in
``frames_sent``, and
a single end-of-airtime kernel event resolves the frame in two batch loops:
one over the cohort that counts each bystander — a member listening since
before the frame began with no reception begun, which therefore heard it
whole and alone — and adds the airtime to its meter's ``bystander_s``, and
one over the begun receptions (radio, energy, ``rx`` / ``collision``
outcome, and ``deliver_frame`` for a reader).  Per-radio reception state is
a counter of begun receptions plus a pointer to the radio's unique
still-clean one (two overlapping frames corrupt each other, so at most one
in-flight reception per radio is ever clean — see
:class:`~repro.net.radio.Radio`), and ``Radio._bystander_since``, the
``frames_sent`` value since which it has been a possible bystander.

A bystander's reception is begun after all — at its radio, as of the
frame's start — only where something would tell the difference: a second
frame starting in range of it (found from the in-flight list: only a frame
sent within ``2 Rc`` can share a listener with the new one), its radio
leaving a listening state, or a read of its meter.  Its outcome, RX time,
``rx_count`` and counters are then exactly those of the object-per-reception
model this replaced, which lives on as the test oracle
``tests/reception_oracle.py``; trace records are kept for readers only,
bystanders' outcomes are ticked.  State beyond the frames in flight: none.

There is **one reception path, one join body and one mobile-listener
lookup**: ``transmit`` begins the readers' receptions in
``_begin_reception`` and the end-of-airtime event resolves the frame in
``_finish_transmission``.  ``_begin_reception`` first collects the mobiles
in range (the cohort's second half), then finds the members still
receiving another frame, and its join loop (overlap corruption, clean-slot
tracking, the IDLE->RX step) is the only place a reception begins at its
frame's start.

Mobile listeners come from a **reach-bounded cell index**: a dict from grid
cell (side ``comm_range / 2``) to the proxies whose *reach disk* —
``comm_range + max_speed_mps x (time left in the index window)`` around
their position when indexed — touches that cell.  A proxy can be in range
of a sender only if the sender's cell is one of those, so a transmission
does one dict lookup on the sender's cell and runs the exact range test
over that short list instead of the whole fleet.  Every ``_INDEX_WINDOW_S``
sim-seconds the disks are taken afresh; a cell's list is built by the first
frame sent from it in the window, and registrations and cancellations
inside a window are applied to the lists already built.  Every list is in
fleet registration order, so the joiner sequence — which is physics — is
that of a loop over the whole fleet; :meth:`Channel.listeners_near` stays
that brute-force loop and is the index's oracle in the tests.

The exact range test is **float arithmetic on a motion piece**, not a call:
beside its reach disk the channel keeps, for each registered mobile, the
piece ``(t_lo, t_hi, t_ref, span, x0, dx, y0, dy)`` its endpoint's
``segment_at`` last returned, evaluates ``x0 + dx * ((now - t_ref) / span)``
in place — the very operations ``PiecewisePath.position_at`` performs, so
the positions are bit-equal — and asks again only when ``now`` leaves
``[t_lo, t_hi)``.  An endpoint that offers only ``position_at`` is tracked
on pieces that last one instant (one ``position_at`` per test, as ever),
just as one without ``max_speed_mps`` is indexed as unbounded: the loop is
the same for every kind of endpoint.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Tuple,
)

from ..geometry.grid import SpatialGrid, cell_bounds, cell_of, gap_sq
from ..geometry.vec import Vec2
from ..sim.kernel import Simulator
from ..sim.trace import Tracer
from .energy import IDLE, RX
from .packet import BROADCAST, Frame
from .radio import NEVER, Radio

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..mobility.path import MotionPiece

#: fixed PHY preamble/PLCP time per frame (802.11 long preamble at 1 Mb/s
#: is 192 us)
PREAMBLE_S = 192e-6
#: Sim-seconds one build of the mobile cell index stays valid.  A longer
#: window rebuilds less often but widens every reach disk by
#: ``max_speed_mps`` metres per second of window, lengthening the lists.
_INDEX_WINDOW_S = 5.0
#: Metres added to every reach disk: covers the ``1e-9`` m^2 slack of the
#: range test and float rounding in ``position_at`` / ``max_speed()``, so
#: the index never drops an endpoint the exact test would accept.
_REACH_SLACK_M = 1e-6

_CellKey = Tuple[int, int]


class ChannelEndpoint(Protocol):
    """What the channel needs from anything that owns a radio."""

    node_id: int
    radio: Radio

    def position_at(self, time: float) -> Vec2:
        """Endpoint position at ``time`` (constant for sensor nodes).

        A mobile endpoint may also offer ``segment_at(time)``, the flat
        motion piece it is on (``PiecewisePath.segment_at``), which must
        evaluate to these positions bit for bit; the channel then
        range-tests it without calling either until the piece ends.
        """
        ...

    def deliver_frame(self, frame: Frame) -> None:
        """Hand a successfully received frame to the endpoint's MAC.

        Called for broadcast frames and frames addressed to ``node_id``.
        Somebody else's unicast frame or ACK is not received here at all:
        the endpoint is a bystander, counted and billed its airtime at the
        frame's end.
        """
        ...


def _instant_pieces(endpoint: ChannelEndpoint) -> Callable[[float], MotionPiece]:
    """A ``segment_at`` for an endpoint that offers only ``position_at``.

    Each piece lasts the one instant it was asked for (``t_lo == t_hi``, so
    it is never still current), which costs such an endpoint the
    ``position_at`` per range test it always paid.
    """

    def segment_at(time: float) -> MotionPiece:
        position = endpoint.position_at(time)
        return (time, time, time, 1.0, position.x, 0.0, position.y, 0.0)

    return segment_at


class _Tracked:
    """A registered mobile as the channel follows it between frames."""

    __slots__ = ("endpoint", "node_id", "segment_at", "piece", "disk")

    def __init__(self, endpoint: ChannelEndpoint) -> None:
        self.endpoint = endpoint
        self.node_id = endpoint.node_id
        #: the endpoint's own ``segment_at`` (a ``MobileEndpoint`` forwards
        #: its path's) or one-instant pieces around its ``position_at``
        self.segment_at: Callable[[float], MotionPiece] = getattr(
            endpoint, "segment_at", None
        ) or _instant_pieces(endpoint)
        #: the flat motion piece it was last found on; refreshed when the
        #: clock leaves ``[t_lo, t_hi)`` (this one is current at no time)
        self.piece: MotionPiece = (math.inf, -math.inf, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0)
        #: ``(x, y, reach squared)`` for the live index window — see
        #: ``Channel._index_disk``
        self.disk = (0.0, 0.0, 0.0)

    def xy_at(self, now: float) -> Tuple[float, float]:
        """Position at ``now``, bit-equal to the endpoint's ``position_at``.

        The range test of ``Channel._begin_reception`` keeps a copy, pinned
        to this by ``tests/test_net_mobile_index.py``.
        """
        t_lo, t_hi, t_ref, span, x0, dx, y0, dy = self.piece
        if not t_lo <= now < t_hi:
            self.piece = piece = self.segment_at(now)
            t_lo, t_hi, t_ref, span, x0, dx, y0, dy = piece
        frac = (now - t_ref) / span
        return x0 + dx * frac, y0 + dy * frac


class BroadcastReception:
    """One frame on the air: its cohort, and the receptions begun for it.

    The receptions the channel begins — every listener's for a broadcast,
    the addressee's and any overlapped bystander's for a unicast frame —
    live in parallel arrays (``receivers[i]`` / ``corrupt[i]`` /
    ``reasons[i]``) carried by this one per-frame record, and ONE
    end-of-airtime kernel event resolves them and bills the bystanders in a
    batch loop, so kernel events and allocations scale O(frames), not
    O(frames x listeners).  The cohort itself is kept as the radios of the
    sender's static listeners and the mobiles it heard, with the frame's
    ``index`` in ``Channel.frames_sent``: a member that has been a possible
    bystander since before that index heard the frame whole and alone.
    While it is in ``Channel._active`` the record is also what carrier sense
    reads: who is sending (``sender_id``), from where (``position``), until
    when (``end_time``).
    """

    __slots__ = (
        "frame", "sender_id", "position", "start", "end_time", "index",
        "static_radios", "heard", "jammed", "receivers", "corrupt", "reasons",
        "on_airtime_end",
    )

    def __init__(
        self,
        frame: Frame,
        sender_id: int,
        position: Vec2,
        start: float,
        end_time: float,
        index: int,
        static_radios: Tuple[Radio, ...],
        heard: List[ChannelEndpoint],
    ) -> None:
        self.frame = frame
        self.sender_id = sender_id
        self.position = position
        self.start = start
        self.end_time = end_time
        #: ``Channel.frames_sent`` when the frame began
        self.index = index
        #: the cohort: the radios of the static endpoints in range, then
        #: the mobiles in range
        self.static_radios = static_radios
        self.heard = heard
        #: a fault window corrupted every reception of the frame
        self.jammed = False
        #: endpoints whose reception was begun, in reception order
        self.receivers: List[ChannelEndpoint] = []
        #: per-receiver corruption flag, parallel to ``receivers``
        self.corrupt: List[bool] = []
        #: per-receiver first corruption reason, parallel to ``receivers``
        self.reasons: List[Optional[str]] = []
        #: sender-side completion hook, run after the cohort resolves (the
        #: MAC's broadcast completion rides the batch event instead of
        #: scheduling its own kernel event at the same instant)
        self.on_airtime_end: Optional[Callable[[], None]] = None


class Channel:
    """The shared medium connecting all registered endpoints."""

    def __init__(
        self,
        sim: Simulator,
        comm_range: float,
        bitrate_bps: float,
        tracer: Optional[Tracer] = None,
    ) -> None:
        """Args:
        sim: the world's event kernel.
        comm_range: unit-disk radius ``Rc`` in metres.
        bitrate_bps: link bitrate (2e6 in the paper's evaluation).
        tracer: the world's tracer (a fresh silent one if omitted); the
            channel emits ``tx``, ``rx``, ``collision`` kinds.
        """
        if comm_range <= 0:
            raise ValueError(f"comm_range must be > 0, got {comm_range}")
        if bitrate_bps <= 0:
            raise ValueError(f"bitrate must be > 0, got {bitrate_bps}")
        self.sim = sim
        self.comm_range = comm_range
        #: the squared range with the grid's ``1e-9`` m^2 slack: every range
        #: test here accepts ``d^2 <= _range_sq``, as ``query_disk`` does
        self._range_sq = comm_range * comm_range + 1e-9
        self.bitrate_bps = bitrate_bps
        #: the world's one tracer: every component on this channel emits here
        self.tracer = tracer or Tracer()
        #: the field's only static index, in registration order
        self.grid: SpatialGrid[ChannelEndpoint] = SpatialGrid(cell_size=comm_range)
        self._static: Dict[int, ChannelEndpoint] = {}
        #: mobile endpoints by id, in registration order
        self._mobile: Dict[int, _Tracked] = {}
        self._active: List[BroadcastReception] = []
        #: per static node: its listener endpoints in grid-query order, their
        #: radios, and the node's mobile-index cell
        self._neighbor_cache: Dict[
            int, Tuple[Tuple[ChannelEndpoint, ...], Tuple[Radio, ...], _CellKey]
        ] = {}
        #: descending sentinel ids assigned to in-flight transmissions whose
        #: mobile sender unregistered mid-airtime (see unregister_mobile)
        self._retired_sender_seq = 0
        self.frames_sent = 0
        self.frames_delivered = 0
        self.frames_collided = 0
        #: exact mobile range tests run (work counter: the candidates the
        #: cell index handed to every frame)
        self.mobile_range_tests = 0
        #: receptions begun at a reader — the addressee of a unicast frame,
        #: every listener of a broadcast (work counter: a bystander's
        #: reception is counted, not begun, unless a second frame or a
        #: state change overlaps it)
        self.reader_receptions = 0
        #: squared reach within which two senders can share a listener
        self._shared_reach_sq = (2.0 * comm_range + _REACH_SLACK_M) ** 2
        # The mobile cell index (module docstring), valid while
        # ``now <= _index_until``: every mobile carries its reach disk and
        # each cell lists the mobiles whose disk touches it, in registration
        # order.  A cell's list is built by the first frame sent from it in
        # the window and kept up to date from then on.
        self._cell_size = comm_range / 2.0
        self._index_until = -math.inf
        self._cells: Dict[_CellKey, List[_Tracked]] = {}
        #: fault-plane jam hook: when set (only while a radio-degradation
        #: window is open), consulted once per transmitted frame; a True
        #: return corrupts the whole cohort.  None outside fault windows,
        #: so the default path pays one attribute read per transmit.
        self.fault_jam: Optional[Callable[[Frame], bool]] = None

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_static(self, endpoint: ChannelEndpoint) -> None:
        """Register a fixed-position endpoint (sensor node)."""
        if endpoint.node_id in self._static or endpoint.node_id in self._mobile:
            raise ValueError(f"endpoint {endpoint.node_id} already registered")
        self._static[endpoint.node_id] = endpoint
        position = endpoint.position_at(0.0)
        self.grid.insert(endpoint, position)
        self._attach(endpoint, (position.x, position.y))
        # New static nodes change neighbourhoods; caches rebuild lazily.
        self._neighbor_cache.clear()

    def _attach(
        self, endpoint: ChannelEndpoint, xy: Optional[Tuple[float, float]]
    ) -> None:
        """Tie the endpoint's radio to this channel.

        Its listening starts now: a frame already on the air never counts
        it, though it may be in range.
        """
        radio = endpoint.radio
        radio._channel = self
        radio._endpoint = endpoint
        radio._xy = xy
        if radio.listening and not radio._rx_n:
            radio._bystander_since = self.frames_sent
        radio.energy.before_read = radio._settle_bystanding

    def register_mobile(self, endpoint: ChannelEndpoint) -> None:
        """Register a moving endpoint (the user's proxy).

        The endpoint's ``max_speed_mps`` attribute (absent: unbounded) must
        bound its motion — ``|position_at(t2) - position_at(t1)| <=
        max_speed_mps * (t2 - t1)`` for all ``t1 <= t2`` — or the cell
        index may miss it as a listener; ``inf`` is always safe (the
        endpoint is then a candidate for every frame).

        Raises:
            ValueError: on a duplicate id, or a negative or NaN speed bound.
        """
        if endpoint.node_id in self._static or endpoint.node_id in self._mobile:
            raise ValueError(f"endpoint {endpoint.node_id} already registered")
        speed = getattr(endpoint, "max_speed_mps", math.inf)
        if not speed >= 0.0:
            raise ValueError(
                f"endpoint {endpoint.node_id}: max_speed_mps must be >= 0, "
                f"got {speed}"
            )
        tracked = self._mobile[endpoint.node_id] = _Tracked(endpoint)
        self._attach(endpoint, None)
        now = self.sim.now
        if now <= self._index_until:
            # Last in registration order, so appending keeps lists sorted.
            self._index_disk(tracked, now)
            for cell, members in self._cells.items():
                members.extend(self._touching((tracked,), cell))

    def unregister_mobile(self, node_id: int) -> None:
        """Remove a mobile endpoint (its user's session was cancelled).

        Future transmissions no longer reach it; receptions already in
        flight hold a direct endpoint reference and resolve normally.
        Unknown ids are ignored so teardown is idempotent.

        A transmission the departing endpoint still has on the air keeps
        its record until the end-of-airtime event takes it off the
        in-flight list, so everyone in range goes on sensing it; but its
        ``sender_id`` is re-tagged to a unique sentinel: the id is only
        used to exclude the sender's own frame from its carrier sense, and
        a later ``register_mobile`` may legitimately reuse the id — without
        the re-tag the new endpoint would read the medium idle while the
        old frame is still in flight.
        """
        tracked = self._mobile.pop(node_id, None)
        if tracked is None:
            return
        # Its motion piece and reach disk go with it: an endpoint that
        # reuses the id is tracked afresh, never on this one's piece.
        if self.sim.now <= self._index_until:
            for members in self._cells.values():
                if tracked in members:
                    members.remove(tracked)
        for tx in self._active:
            if tx.sender_id == node_id:
                self._retired_sender_seq -= 1
                tx.sender_id = self._retired_sender_seq

    def mobile_ids(self) -> List[int]:
        """Ids of the registered mobile endpoints, in registration order."""
        return list(self._mobile)

    def endpoint(self, node_id: int) -> ChannelEndpoint:
        """Look up a registered endpoint by id."""
        ep = self._static.get(node_id)
        if ep is not None:
            return ep
        tracked = self._mobile.get(node_id)
        if tracked is None:
            raise KeyError(f"no endpoint with id {node_id}")
        return tracked.endpoint

    # ------------------------------------------------------------------
    # Physical-layer queries
    # ------------------------------------------------------------------
    def airtime(self, frame: Frame) -> float:
        """Seconds the frame occupies the medium."""
        return PREAMBLE_S + (frame.wire_bytes() * 8.0) / self.bitrate_bps

    def static_listeners(self, node_id: int) -> Tuple[ChannelEndpoint, ...]:
        """Static endpoints within range of static node ``node_id`` (cached).

        Excludes the node itself (a radio never receives its own frame);
        the others are ordered exactly as a fresh grid disk query would
        return them, so callers iterating the cache observe the same
        endpoint sequence (and schedule the same downstream events) as the
        uncached path.  Positions are fixed at t=0, so the tuple is computed
        once per node and reused for every transmission.
        """
        return self._static_cache(node_id)[0]

    def _static_cache(
        self, node_id: int
    ) -> Tuple[Tuple[ChannelEndpoint, ...], Tuple[Radio, ...], _CellKey]:
        cached = self._neighbor_cache.get(node_id)
        if cached is None:
            position = self._static[node_id].position_at(0.0)
            listeners = self._static_near(position, node_id)
            size = self._cell_size
            cached = (
                listeners,
                tuple(endpoint.radio for endpoint in listeners),
                cell_of(position.x, position.y, 0.0, 0.0, size, size),
            )
            self._neighbor_cache[node_id] = cached
        return cached

    def _static_near(
        self, position: Vec2, sender_id: int
    ) -> Tuple[ChannelEndpoint, ...]:
        """Static endpoints in range of ``position``, in grid-query order,
        without the sender."""
        return tuple(
            endpoint
            for endpoint in self.grid.query_disk(position, self.comm_range)
            if endpoint.node_id != sender_id
        )

    # ------------------------------------------------------------------
    # Mobile cell index
    # ------------------------------------------------------------------
    def _index_disk(self, tracked: _Tracked, now: float) -> None:
        """Take ``tracked``'s reach disk for the live window.

        Everywhere the endpoint can be heard from until ``_index_until``:
        its position now, widened by ``comm_range`` plus the farthest its
        speed bound lets it travel in the time left (infinite for an
        unbounded endpoint, whose disk then touches every cell).
        """
        x, y = tracked.xy_at(now)
        left = self._index_until - now
        speed = getattr(tracked.endpoint, "max_speed_mps", math.inf)
        reach = self.comm_range + (speed * left if left else 0.0) + _REACH_SLACK_M
        tracked.disk = (x, y, reach * reach)

    def _reindex(self, now: float) -> None:
        """Start a new index window at ``now``: fresh disks, no cells yet."""
        self._index_until = now + _INDEX_WINDOW_S
        self._cells.clear()
        for tracked in self._mobile.values():
            self._index_disk(tracked, now)

    def _touching(self, mobiles: Iterable[_Tracked], cell: _CellKey) -> List[_Tracked]:
        """Those of ``mobiles`` whose reach disk meets ``cell``'s square."""
        size = self._cell_size
        x0, y0, x1, y1 = cell_bounds(cell[0], cell[1], 0.0, 0.0, size, size)
        found = []
        for tracked in mobiles:
            x, y, reach_sq = tracked.disk
            if gap_sq(x, y, x0, y0, x1, y1) <= reach_sq:
                found.append(tracked)
        return found

    def listeners_near(self, position: Vec2, time: float) -> List[ChannelEndpoint]:
        """All endpoints within range of ``position`` at ``time`` (any state)."""
        found = self.grid.query_disk(position, self.comm_range)
        range_sq = self._range_sq
        for tracked in self._mobile.values():
            ep = tracked.endpoint
            if ep.position_at(time).distance_sq_to(position) <= range_sq:
                found.append(ep)
        return found

    def medium_busy(self, endpoint: ChannelEndpoint) -> bool:
        """Carrier sense: is any in-flight transmission within range?

        The endpoint's own transmission does not count (the MAC knows it is
        transmitting); a sleeping radio cannot sense and reads idle.
        """
        return not endpoint.radio.is_sleeping and self.busy_until(endpoint) is not None

    def busy_until(self, endpoint: ChannelEndpoint) -> Optional[float]:
        """Latest end time among in-range in-flight transmissions, if any.

        A scan of the (short) in-flight list from where the endpoint is now
        — read off its tracked motion piece if it is a registered mobile —
        with the range test the grid's ``query_disk`` applies to a frame's
        static listeners, so a node senses exactly the frames whose cohort
        it could have joined.
        """
        active = self._active
        if not active:
            return None
        node_id = endpoint.node_id
        now = self.sim.now
        tracked = self._mobile.get(node_id)
        if tracked is not None and tracked.endpoint is endpoint:
            px, py = tracked.xy_at(now)
        else:
            pos = endpoint.position_at(now)
            px, py = pos.x, pos.y
        range_sq = self._range_sq
        latest: Optional[float] = None
        for tx in active:
            if tx.sender_id == node_id:
                continue
            tpos = tx.position
            dx = tpos.x - px
            dy = tpos.y - py
            if dx * dx + dy * dy <= range_sq:
                if latest is None or tx.end_time > latest:
                    latest = tx.end_time
        return latest

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def transmit(
        self,
        sender: ChannelEndpoint,
        frame: Frame,
        on_airtime_end: Optional[Callable[[], None]] = None,
    ) -> float:
        """Put ``frame`` on the air from ``sender``; returns its airtime.

        The caller (MAC) is responsible for carrier sense and for not
        already transmitting.  Reception outcomes resolve when the airtime
        elapses; ``on_airtime_end``, if given, runs at the very end of the
        same batch event — after every receiver resolved — sparing the
        caller a second kernel event at the identical instant.  (The two
        events were always seq-adjacent, so folding preserves the global
        event order exactly.)
        """
        now = self.sim.now
        duration = self.airtime(frame)
        sender_id = sender.node_id
        position = sender.position_at(now)
        sender.radio.set_state_tx_guarded()
        # Static listeners come from the per-node cache when the sender is a
        # registered static node (no per-transmit grid query or list build,
        # and the sender is already excluded); a mobile sender's footprint
        # is evaluated at its current position.
        if self._static.get(sender_id) is sender:
            static_listeners, static_radios, cell = self._static_cache(sender_id)
        else:
            static_listeners = self._static_near(position, sender_id)
            static_radios = tuple(endpoint.radio for endpoint in static_listeners)
            size = self._cell_size
            cell = cell_of(position.x, position.y, 0.0, 0.0, size, size)
        record = self._begin_reception(
            frame, sender_id, position, now + duration,
            static_listeners, static_radios, cell, now,
        )
        record.on_airtime_end = on_airtime_end
        jam = self.fault_jam
        if jam is not None and jam(frame):
            self._corrupt_cohort(record, "fault-degraded")
        self._active.append(record)
        self.frames_sent += 1
        tracer = self.tracer
        if tracer.wants("tx"):
            tracer.emit("tx", now, frame=frame.seq, frame_kind=frame.kind, src=frame.src)
        else:
            tracer.tick("tx")
        self.sim.schedule_fast(duration, self._finish_transmission, sender, record)
        return duration

    def _corrupt_cohort(self, record: BroadcastReception, reason: str) -> None:
        """Corrupt every reception of one in-flight frame.

        The begun ones through the same per-slot writes as
        :meth:`Radio.set_state`, releasing each radio's clean-slot pointer
        (the at-most-one-clean-reception invariant the finish loop relies
        on); the bystanders' by flagging the record, which resolves them as
        collisions and begins any made real later as corrupt.
        """
        record.jammed = True
        corrupt = record.corrupt
        reasons = record.reasons
        for i, receiver in enumerate(record.receivers):
            if corrupt[i]:
                continue
            corrupt[i] = True
            reasons[i] = reason
            receiver.radio._rx_record = None

    def _begin_reception(
        self,
        frame: Frame,
        sender_id: int,
        position: Vec2,
        end_time: float,
        static_listeners: Tuple[ChannelEndpoint, ...],
        static_radios: Tuple[Radio, ...],
        cell: _CellKey,
        now: float,
    ) -> BroadcastReception:
        """Begin the frame's receptions at its readers and overlapped radios.

        The cohort is the static listeners in grid-query order, then the
        mobiles in fleet registration order, from the index list of the
        sender's ``cell`` (every mobile that can be in range during this
        window).  A broadcast begins a reception at every listening member;
        a unicast frame at its addressee, and at any member still receiving
        another frame — the overlap corrupts both.
        """
        if now > self._index_until:
            self._reindex(now)
        members = self._cells.get(cell)
        if members is None:
            # First frame from this cell in this window: _mobile iterates in
            # registration order, and so does every list built from it.
            members = self._cells[cell] = self._touching(self._mobile.values(), cell)
        self.mobile_range_tests += len(members)
        # The exact range test on each candidate's current motion piece,
        # ``_Tracked.xy_at`` inlined, A/B: 2026-10-17, fleet16, -6.3 %
        # (the call, with the copies of the energy step, the PSM window, the
        # push and the bystander test folded too; this copy back: -0.5 %,
        # unresolved).  ~39 candidates a frame on churn-mix: no call and no
        # Vec2 unless the clock has left the piece.
        heard: List[ChannelEndpoint] = []
        px, py = position.x, position.y
        range_sq = self._range_sq
        for tracked in members:
            t_lo, t_hi, t_ref, span, x0, dx, y0, dy = tracked.piece
            if not t_lo <= now < t_hi:
                tracked.piece = piece = tracked.segment_at(now)
                t_lo, t_hi, t_ref, span, x0, dx, y0, dy = piece
            frac = (now - t_ref) / span
            sep_x = x0 + dx * frac - px
            sep_y = y0 + dy * frac - py
            if (
                sep_x * sep_x + sep_y * sep_y <= range_sq
                and tracked.node_id != sender_id
            ):
                heard.append(tracked.endpoint)
        record = BroadcastReception(
            frame, sender_id, position, now, end_time, self.frames_sent,
            static_radios, heard,
        )
        busy = self._busy_listeners(static_listeners, heard, px, py) if self._active else []
        dst = frame.dst
        if dst == BROADCAST:
            joiners: Iterable[ChannelEndpoint] = chain(static_listeners, heard)
        else:
            joiners = busy
            addressee = self._addressee(dst, sender_id, px, py, heard)
            if addressee is not None and addressee.radio.listening:
                self.reader_receptions += 1
                if not addressee.radio._rx_n:  # else it is in ``busy``
                    joiners.append(addressee)
        receivers = record.receivers
        corrupt = record.corrupt
        reasons = record.reasons
        # Reception begins in the one join loop below (overlap corruption,
        # then the IDLE->RX step).  No per-listener object is allocated: the
        # cohort's state is appended to the record's parallel arrays, and
        # each radio tracks only a count plus its single still-clean
        # reception.
        for listener in joiners:
            radio = listener.radio
            if not radio.listening:
                continue
            n = radio._rx_n
            radio._rx_n = n + 1
            radio._bystander_since = NEVER
            if n:
                # Overlap: the newcomer and whatever was still clean at
                # this radio are both corrupt (first reason wins).
                corrupt.append(True)
                reasons.append("overlap")
                prev = radio._rx_record
                if prev is not None:
                    prev.corrupt[radio._rx_index] = True
                    prev.reasons[radio._rx_index] = "overlap"
                    radio._rx_record = None
            else:
                corrupt.append(False)
                reasons.append(None)
                radio._rx_record = record
                radio._rx_index = len(receivers)
            receivers.append(listener)
            if radio._state is IDLE:
                radio._state = RX
                radio.energy.on_state_change(RX, now)
        if dst == BROADCAST:
            self.reader_receptions += len(receivers)
        return record

    def _addressee(
        self,
        dst: int,
        sender_id: int,
        px: float,
        py: float,
        heard: List[ChannelEndpoint],
    ) -> Optional[ChannelEndpoint]:
        """The cohort member a unicast frame sent from ``(px, py)`` is for."""
        if dst == sender_id:
            return None
        endpoint = self._static.get(dst)
        if endpoint is not None:
            x, y = endpoint.radio._xy
            sep_x = x - px
            sep_y = y - py
            # the grid's own range test, so the same answer as the cohort's
            if sep_x * sep_x + sep_y * sep_y <= self._range_sq:
                return endpoint
            return None
        for endpoint in heard:
            if endpoint.node_id == dst:
                return endpoint
        return None

    def _busy_listeners(
        self,
        statics: Tuple[ChannelEndpoint, ...],
        heard: List[ChannelEndpoint],
        px: float,
        py: float,
    ) -> List[ChannelEndpoint]:
        """Listening members of a new frame's cohort still receiving another.

        Each is found from the in-flight list, and a bystander's reception
        it was counting is made real first, so that the new frame's join
        corrupts both.  Only a frame sent within ``2 Rc`` (or, for a mobile,
        one that heard mobiles too) can share a listener with the new one;
        without such a frame on the air nobody in the cohort is receiving.
        """
        reach_sq = self._shared_reach_sq
        near = []
        for record in self._active:
            tpos = record.position
            dx = tpos.x - px
            dy = tpos.y - py
            if (heard and record.heard) or dx * dx + dy * dy <= reach_sq:
                near.append(record)
        if not near:
            return []
        busy = []
        for endpoint in chain(statics, heard):
            radio = endpoint.radio
            if radio._bystander_since == NEVER:
                if radio._rx_n and radio.listening:
                    busy.append(endpoint)
                continue
            record = self._bystander_frame(radio, near)
            if record is not None:
                self._join_late(radio, record)
                busy.append(endpoint)
        return busy

    def _bystander_frame(
        self, radio: Radio, records: Iterable[BroadcastReception]
    ) -> Optional[BroadcastReception]:
        """The frame of ``records`` (in flight) a possible bystander is
        hearing: one of its cohort begun since it became a possible
        bystander."""
        since = radio._bystander_since
        xy = radio._xy
        range_sq = self._range_sq
        for record in records:
            if record.index < since:
                continue
            if xy is None:
                endpoint = radio._endpoint
                if any(member is endpoint for member in record.heard):
                    return record
                continue
            tpos = record.position
            dx = xy[0] - tpos.x
            dy = xy[1] - tpos.y
            if dx * dx + dy * dy <= range_sq:
                return record
        return None

    def _join_late(self, radio: Radio, record: BroadcastReception) -> None:
        """Begin a bystander's reception of ``record`` as of the frame's
        start: clean unless jammed, and RX since then at the meter."""
        index = len(record.receivers)
        record.receivers.append(radio._endpoint)
        jammed = record.jammed
        record.corrupt.append(jammed)
        record.reasons.append("fault-degraded" if jammed else None)
        if not jammed:
            radio._rx_record = record
            radio._rx_index = index
        radio._rx_n = 1
        radio._bystander_since = NEVER
        radio._state = RX
        radio.energy.on_state_change(RX, record.start)

    def _finish_transmission(
        self, sender: ChannelEndpoint, record: BroadcastReception
    ) -> None:
        """End-of-airtime batch event: resolve every reception of one frame.

        One kernel event per frame (scheduled by :meth:`transmit`).  First
        the bystanders of a unicast frame still counted only on the record:
        each listening member of the cohort that has been listening since
        before the frame and has no reception begun heard it whole and alone
        (anything else would have made its reception real), so it is billed
        the IDLE interval up to the frame's start and the RX interval of its
        airtime, the two steps a begun reception takes, and counted.  Then
        the begun receptions: reception end, RX->IDLE radio and energy
        transitions, collision/delivery outcome and, for a reader, trace
        record and upward dispatch, in reception order.
        """
        self._active.remove(record)
        sender.radio.end_transmission()
        now = self.sim.now
        tracer = self.tracer
        frame = record.frame
        dst = frame.dst
        to_all = dst == BROADCAST
        bystanders = 0
        if not to_all:
            index = record.index
            airtime = now - record.start
            for radio in record.static_radios:
                if radio._bystander_since <= index:
                    bystanders += 1
                    radio.energy.bystander_s += airtime
            for listener in record.heard:
                radio = listener.radio
                if radio._bystander_since <= index:
                    bystanders += 1
                    radio.energy.bystander_s += airtime
        corrupt = record.corrupt
        reasons = record.reasons
        emit_collision = tracer.wants("collision")
        emit_rx = tracer.wants("rx")
        collided = delivered = emitted_collisions = emitted_rx = 0
        sent = self.frames_sent
        for i, receiver in enumerate(record.receivers):
            radio = receiver.radio
            n = radio._rx_n - 1
            radio._rx_n = n
            if not n and radio.listening:
                radio._bystander_since = sent
                if radio._state is RX:
                    radio._state = IDLE
                    radio.energy.on_state_change(IDLE, now)
            reader = to_all or receiver.node_id == dst
            if corrupt[i]:
                collided += 1
                if emit_collision and reader:
                    emitted_collisions += 1
                    tracer.emit(
                        "collision",
                        now,
                        frame=frame.seq,
                        frame_kind=frame.kind,
                        at=receiver.node_id,
                        reason=reasons[i],
                    )
                continue
            # A clean reception reaching its end is, by the overlap rules,
            # the unique clean one at its radio — release the radio's slot.
            radio._rx_record = None
            delivered += 1
            if reader:
                if emit_rx:
                    emitted_rx += 1
                    tracer.emit(
                        "rx",
                        now,
                        frame=frame.seq,
                        frame_kind=frame.kind,
                        at=receiver.node_id,
                    )
                receiver.deliver_frame(frame)
        if record.jammed:
            collided += bystanders
        else:
            delivered += bystanders
        self.frames_collided += collided
        self.frames_delivered += delivered
        # Count what was not emitted in one bump per frame: bystanders'
        # outcomes always, readers' when nobody watches the kind.
        if collided > emitted_collisions:
            tracer.tick_many("collision", collided - emitted_collisions)
        if delivered > emitted_rx:
            tracer.tick_many("rx", delivered - emitted_rx)
        callback = record.on_airtime_end
        if callback is not None:
            callback()
