"""Per-node radio: power states, half-duplex rule, reception health.

The radio is where the channel's physical effects and the PSM sleep schedule
meet.  It owns exactly one invariant the rest of the stack relies on: a
frame is delivered only if its receiver stayed in a listening state
(``IDLE``/``RX``) for the frame's whole airtime and no overlapping in-range
transmission corrupted it.  Falling asleep or starting a transmission
mid-reception kills the reception — that is how duty cycling destroys naive
query dissemination in the paper's motivating example.

A radio in range of somebody else's unicast frame is a *bystander*: the
channel counts its reception and bills its RX time at the frame's end, but
begins nothing at the radio (see :mod:`repro.net.channel`).  Until something
reads or changes the radio, that reception lives only on the frame's record;
``rx_count`` and ``state`` answer for it from the in-flight list, and a
state change or a meter read first turns it into a real reception, as it
would have been since the frame began.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Any, Optional, Tuple

from ..sim.kernel import Simulator
from .energy import IDLE, RX, SLEEP, TX, EnergyMeter, PowerModel, RadioState

#: ``Radio._bystander_since`` of a radio that is no possible bystander
NEVER = sys.maxsize

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .channel import BroadcastReception, Channel


class Radio:
    """Radio state machine for one endpoint."""

    def __init__(
        self,
        sim: Simulator,
        owner_id: int,
        power_model: PowerModel,
    ) -> None:
        self.sim = sim
        self.owner_id = owner_id
        self.energy = EnergyMeter(sim, power_model)
        self._state = IDLE
        #: whether the radio could begin receiving a frame right now (IDLE
        #: or RX) — a plain attribute: the channel reads it once per
        #: potential listener per transmission, where a property call is
        #: measurable; maintained by ``set_state``.
        self.listening = True
        self.energy.on_state_change(IDLE, sim.now)
        #: number of real receptions in flight at this radio: begun by the
        #: channel's join loop or turned real from a bystander's (the
        #: channel reads this; everyone else reads ``rx_count``)
        self._rx_n = 0
        # The radio's single still-clean batched reception, as a record
        # reference plus its index in the record's parallel arrays.  Two
        # overlapping frames corrupt each other, so at most one in-flight
        # reception is ever clean; corrupting events (a second frame
        # starting, the radio leaving a listening state) flip the flags in
        # the record directly and clear this slot.
        self._rx_record: Optional["BroadcastReception"] = None
        self._rx_index = -1
        # Set by the channel the owner registers with: the channel, the
        # endpoint, a static endpoint's fixed ``(x, y)`` (None for a mobile)
        # and ``Channel.frames_sent`` when the radio last became a possible
        # bystander — listening, with no reception begun — or ``NEVER``
        # while it is not one.  A frame of its cohort with an index at or
        # above that began, and stayed, unheard by anything else here.
        self._channel: Optional["Channel"] = None
        self._endpoint: Any = None
        self._xy: Optional[Tuple[float, float]] = None
        self._bystander_since = NEVER

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def state(self) -> RadioState:
        """``RX`` while a bystander's reception is on the air, as for any."""
        if self._state is IDLE and self._bystanding() is not None:
            return RX
        return self._state

    @property
    def rx_count(self) -> int:
        """Receptions in flight at this radio, a bystander's included.

        Counts every frame that began while the radio listened and has not
        ended, also one it stopped listening to since — the PSM sleep check
        waits for this to reach zero.
        """
        if self._rx_n:
            return self._rx_n
        return 0 if self._bystanding() is None else 1

    def _bystanding(self) -> Optional["BroadcastReception"]:
        """The frame this radio is a bystander of right now, if any.

        At most one: a second frame beginning at the radio turns the
        first into a real reception.
        """
        if self._bystander_since == NEVER:
            return None
        return self._channel._bystander_frame(self, self._channel._active)

    def _settle_bystanding(self) -> None:
        """Turn a bystander's reception in flight into a real one.

        Run before anything that changes or reads what it has cost: the
        radio leaving a listening state, a meter read.
        """
        record = self._bystanding()
        if record is not None:
            self._channel._join_late(self, record)

    @property
    def is_sleeping(self) -> bool:
        return self._state is SLEEP

    @property
    def is_transmitting(self) -> bool:
        return self._state is TX

    def set_state(self, new_state: RadioState) -> None:
        """Transition the radio, corrupting in-flight receptions if needed.

        Any transition out of a listening state (to ``TX`` or ``SLEEP``)
        corrupts receptions in progress: the receiver stopped listening
        before the frame ended.
        """
        if new_state is self._state:
            return
        if new_state is TX or new_state is SLEEP:
            if self._bystander_since != NEVER:
                if self._channel._active:
                    self._settle_bystanding()
                self._bystander_since = NEVER
            record = self._rx_record
            if record is not None:
                # The one still-clean batched reception dies with the
                # listening state; already-corrupt ones need no touch.
                record.corrupt[self._rx_index] = True
                record.reasons[self._rx_index] = "receiver_left_listening"
                self._rx_record = None
            self.listening = False
        else:
            if not self.listening and not self._rx_n and self._channel is not None:
                self._bystander_since = self._channel.frames_sent
            self.listening = True
        self._state = new_state
        self.energy.on_state_change(new_state, self.sim.now)

    # ------------------------------------------------------------------
    # Channel integration
    # ------------------------------------------------------------------
    def set_state_tx_guarded(self) -> None:
        """Enter TX, rejecting physically impossible transitions.

        Raises:
            RuntimeError: if asleep (a sleeping radio cannot transmit) or
                already transmitting (the MAC serializes transmissions).
        """
        if self._state is SLEEP:
            raise RuntimeError(f"radio {self.owner_id} cannot transmit while asleep")
        if self._state is TX:
            raise RuntimeError(f"radio {self.owner_id} is already transmitting")
        self.set_state(TX)

    def end_transmission(self) -> None:
        """Return to idle after a transmission (no-op if forced asleep)."""
        if self._state is TX:
            self.set_state(IDLE)

    def sleep(self) -> None:
        """Enter the sleep state (corrupts in-flight receptions)."""
        self.set_state(SLEEP)

    def wake(self) -> None:
        """Leave sleep for idle listening.  No effect in TX/RX/IDLE."""
        if self._state is SLEEP:
            self.set_state(IDLE)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Radio node={self.owner_id} {self._state.value}>"
