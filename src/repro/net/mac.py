"""CSMA/CA MAC layer.

A non-persistent CSMA model of 802.11 DCF, with the features the paper's
results depend on and nothing else:

* carrier sense before transmitting, with DIFS + slotted random backoff,
* binary exponential backoff on retries,
* unicast frames acknowledged after SIFS, retransmitted up to a retry
  limit, with a success/failure callback so routing can fail over,
* broadcast frames sent once, unacknowledged (flood losses under
  contention are real losses — the mechanism behind MQ-GP's degradation),
* duplicate suppression at the receiver (a retransmitted frame whose ACK
  was lost is re-ACKed but not re-dispatched).

The contention model: a sender samples a backoff delay, then senses the
medium again immediately before transmitting.  Two senders whose backoffs
expire within the same slot both see the medium idle and collide at common
receivers; hidden terminals collide regardless of carrier sense.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Optional, Tuple

from ..sim.kernel import EventHandle, Simulator
from ..sim.trace import Tracer
from .channel import Channel, ChannelEndpoint
from .packet import ACK_SIZE_BYTES, BROADCAST, Frame

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import numpy as np

#: Callback fired when a frame's MAC-level fate is known.
SendCallback = Callable[[bool], None]


#: 802.11 DCF timing: one backoff slot, SIFS and DIFS
SLOT_S = 20e-6
SIFS_S = 10e-6
DIFS_S = 50e-6
#: contention window bounds for binary exponential backoff (slots)
CW_MIN = 16
CW_MAX = 1024
#: retransmissions of a unicast frame before the MAC reports failure
RETRY_LIMIT = 7
#: extra ACK wait slack beyond SIFS + ACK airtime
ACK_SLACK_S = 60e-6
#: how many recently seen (src, seq) pairs to remember for dedupe
DEDUPE_WINDOW = 64


class MacLayer:
    """One endpoint's MAC: transmit queue, carrier sense, ACKs, dedupe."""

    def __init__(
        self,
        endpoint: ChannelEndpoint,
        sim: Simulator,
        channel: Channel,
        rng: np.random.Generator,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.endpoint = endpoint
        self.sim = sim
        self.channel = channel
        self.rng = rng
        self.tracer = tracer
        self._queue: Deque[Tuple[Frame, Optional[SendCallback]]] = deque()
        self._busy = False
        self._current: Optional[Tuple[Frame, Optional[SendCallback]]] = None
        self._retries = 0
        self._cw = CW_MIN
        self._ack_timer: Optional[EventHandle] = None
        self._awaited_ack_seq: Optional[int] = None
        #: an ACK's wire size is a constant, so its airtime is priced once
        #: here (an explicit ``seq``: no draw from the global frame counter)
        self._ack_airtime = channel.airtime(
            Frame("mac-ack", BROADCAST, BROADCAST, ACK_SIZE_BYTES, seq=0)
        )
        self._seen: Deque[Tuple[int, int]] = deque(maxlen=DEDUPE_WINDOW)
        self._seen_set: set = set()
        #: upward delivery target, set by the owning node
        self.receive_callback: Optional[Callable[[Frame], None]] = None
        # Counters for diagnostics / tests.
        self.unicast_failures = 0
        self.frames_queued = 0

    # ------------------------------------------------------------------
    # Transmit path
    # ------------------------------------------------------------------
    def send(self, frame: Frame, callback: Optional[SendCallback] = None) -> None:
        """Queue ``frame`` for transmission.

        ``callback(True)`` fires when the frame was sent (broadcast) or
        acknowledged (unicast); ``callback(False)`` when the retry limit was
        exhausted.
        """
        self.frames_queued += 1
        self._queue.append((frame, callback))
        if not self._busy:
            self._start_next()

    def _start_next(self) -> None:
        if self._busy or not self._queue:
            return
        self._busy = True
        self._current = self._queue.popleft()
        self._retries = 0
        self._cw = CW_MIN
        self._schedule_attempt(first=True)

    def _schedule_attempt(self, first: bool) -> None:
        backoff_slots = int(self.rng.integers(0, self._cw))
        delay = DIFS_S + backoff_slots * SLOT_S
        if not first:
            # After sensing busy, also wait out the current occupancy.
            busy_until = self.channel.busy_until(self.endpoint)
            if busy_until is not None:
                delay += max(0.0, busy_until - self.sim.now)
        self.sim.schedule_fast(delay, self._attempt_transmit)

    def _attempt_transmit(self) -> None:
        assert self._current is not None
        if self.endpoint.radio.is_sleeping:
            # Radio was put to sleep while we waited: fail the frame rather
            # than transmit impossibly.  PSM-aware senders avoid this path.
            self._finish_current(False)
            return
        if self.endpoint.radio.is_transmitting or self.channel.medium_busy(self.endpoint):
            # Non-persistent CSMA: resample backoff, wait out the medium.
            self._schedule_attempt(first=False)
            return
        frame, _ = self._current
        if frame.is_broadcast:
            # Broadcast completion rides the channel's end-of-airtime batch
            # event (it used to be a second kernel event at the identical
            # instant and adjacent sequence number — same execution order,
            # one event per frame saved).
            self.channel.transmit(self.endpoint, frame, self._finish_broadcast)
            return
        airtime = self.channel.transmit(self.endpoint, frame)
        ack_wait = airtime + SIFS_S + self._ack_airtime + ACK_SLACK_S
        self._awaited_ack_seq = frame.seq
        self._ack_timer = self.sim.schedule(ack_wait, self._on_ack_timeout)

    def _finish_broadcast(self) -> None:
        """Channel batch callback: our broadcast's airtime elapsed."""
        self._finish_current(True)

    def _on_ack_timeout(self) -> None:
        self._ack_timer = None
        self._awaited_ack_seq = None
        self._retries += 1
        if self._retries > RETRY_LIMIT:
            self.unicast_failures += 1
            if self.tracer is not None:
                assert self._current is not None
                self.tracer.emit(
                    "mac-fail",
                    self.sim.now,
                    src=self.endpoint.node_id,
                    dst=self._current[0].dst,
                    frame_kind=self._current[0].kind,
                )
            self._finish_current(False)
            return
        self._cw = min(self._cw * 2, CW_MAX)
        self._schedule_attempt(first=False)

    def _finish_current(self, success: bool) -> None:
        current, self._current = self._current, None
        self._busy = False
        if self._ack_timer is not None:
            self._ack_timer.cancel()
            self._ack_timer = None
        self._awaited_ack_seq = None
        if current is not None and current[1] is not None:
            current[1](success)
        if self._queue:
            self._start_next()

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def on_frame(self, frame: Frame) -> None:
        """Channel delivery: filter, ACK, dedupe, dispatch upward.

        The channel delivers only broadcasts and frames addressed to this
        endpoint; the ``dst`` checks below stay for callers that hand the
        MAC a frame directly.
        """
        dst = frame.dst
        if frame.kind == "mac-ack":
            if dst == self.endpoint.node_id and frame.payload == self._awaited_ack_seq:
                if self._ack_timer is not None:
                    self._ack_timer.cancel()
                    self._ack_timer = None
                self._finish_current(True)
            return
        if dst != BROADCAST:
            if dst != self.endpoint.node_id:
                return
            # ACK even duplicates: the sender may have missed our first ACK.
            self.sim.schedule_fast(SIFS_S, self._send_ack, frame)
        key = (frame.src, frame.seq)
        if key in self._seen_set:
            return
        seen = self._seen
        if len(seen) == seen.maxlen:
            self._seen_set.discard(seen[0])
        seen.append(key)
        self._seen_set.add(key)
        if self.receive_callback is not None:
            self.receive_callback(frame)

    def _send_ack(self, frame: Frame) -> None:
        endpoint = self.endpoint
        radio = endpoint.radio
        if radio.is_transmitting or radio.is_sleeping:
            # Cannot ACK right now; the sender will retransmit.
            return
        ack = Frame("mac-ack", endpoint.node_id, frame.src, ACK_SIZE_BYTES, frame.seq)
        self.channel.transmit(endpoint, ack)
