"""Per-node radio: power states, half-duplex rule, reception health.

The radio is where the channel's physical effects and the PSM sleep schedule
meet.  It owns exactly one invariant the rest of the stack relies on: a
frame is delivered only if its receiver stayed in a listening state
(``IDLE``/``RX``) for the frame's whole airtime and no overlapping in-range
transmission corrupted it.  Falling asleep or starting a transmission
mid-reception kills the reception — that is how duty cycling destroys naive
query dissemination in the paper's motivating example.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..sim.kernel import Simulator
from .energy import EnergyMeter, PowerModel, RadioState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .channel import BroadcastReception


class Radio:
    """Radio state machine for one endpoint."""

    def __init__(
        self,
        sim: Simulator,
        owner_id: int,
        power_model: PowerModel,
        initial_state: RadioState = RadioState.IDLE,
    ) -> None:
        self.sim = sim
        self.owner_id = owner_id
        self.energy = EnergyMeter(sim, power_model)
        self._state = initial_state
        #: plain-attribute mirror of ``is_listening`` — the channel reads it
        #: once per potential listener per transmission, where a property
        #: call is measurable; maintained by ``set_state``.
        self.listening = initial_state in (RadioState.IDLE, RadioState.RX)
        self.energy.on_state_change(initial_state)
        #: number of receptions currently in flight at this radio.  The
        #: channel and the PSM sleep check read this instead of a list.
        self.rx_count = 0
        # The radio's single still-clean batched reception, as a record
        # reference plus its index in the record's parallel arrays.  Two
        # overlapping frames corrupt each other, so at most one in-flight
        # reception is ever clean; corrupting events (a second frame
        # starting, the radio leaving a listening state) flip the flags in
        # the record directly and clear this slot.
        self._rx_record: Optional["BroadcastReception"] = None
        self._rx_index = -1

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def state(self) -> RadioState:
        return self._state

    @property
    def is_sleeping(self) -> bool:
        return self._state is RadioState.SLEEP

    @property
    def is_transmitting(self) -> bool:
        return self._state is RadioState.TX

    @property
    def is_listening(self) -> bool:
        """Whether the radio could begin receiving a frame right now."""
        return self.listening

    def set_state(self, new_state: RadioState) -> None:
        """Transition the radio, corrupting in-flight receptions if needed.

        Any transition out of a listening state (to ``TX`` or ``SLEEP``)
        corrupts receptions in progress: the receiver stopped listening
        before the frame ended.
        """
        if new_state is self._state:
            return
        if new_state is RadioState.TX or new_state is RadioState.SLEEP:
            record = self._rx_record
            if record is not None:
                # The one still-clean batched reception dies with the
                # listening state; already-corrupt ones need no touch.
                record.corrupt[self._rx_index] = True
                record.reasons[self._rx_index] = "receiver_left_listening"
                self._rx_record = None
            self.listening = False
        else:
            self.listening = True
        self._state = new_state
        # Energy integration inlined (EnergyMeter.on_state_change semantics):
        # radio transitions are the single most frequent state change in a
        # run and the extra call per transition is measurable.
        energy = self.energy
        now = self.sim.now
        elapsed = now - energy._state_since
        if elapsed > 0:
            energy._joules += elapsed * energy._state_w
            state = energy._state
            if state is RadioState.IDLE:
                energy._idle_s += elapsed
            elif state is RadioState.SLEEP:
                energy._sleep_s += elapsed
            elif state is RadioState.RX:
                energy._rx_s += elapsed
            else:
                energy._tx_s += elapsed
            energy._state_since = now
        energy._state = new_state
        model = energy.model
        if new_state is RadioState.IDLE:
            energy._state_w = model.idle_w
        elif new_state is RadioState.SLEEP:
            energy._state_w = model.sleep_w
        elif new_state is RadioState.RX:
            energy._state_w = model.rx_w
        else:
            energy._state_w = model.tx_w

    # ------------------------------------------------------------------
    # Channel integration
    # ------------------------------------------------------------------
    def set_state_tx_guarded(self) -> None:
        """Enter TX, rejecting physically impossible transitions.

        Raises:
            RuntimeError: if asleep (a sleeping radio cannot transmit) or
                already transmitting (the MAC serializes transmissions).
        """
        if self._state is RadioState.SLEEP:
            raise RuntimeError(f"radio {self.owner_id} cannot transmit while asleep")
        if self._state is RadioState.TX:
            raise RuntimeError(f"radio {self.owner_id} is already transmitting")
        self.set_state(RadioState.TX)

    def end_transmission(self) -> None:
        """Return to idle after a transmission (no-op if forced asleep)."""
        if self._state is RadioState.TX:
            self.set_state(RadioState.IDLE)

    def sleep(self) -> None:
        """Enter the sleep state (corrupts in-flight receptions)."""
        self.set_state(RadioState.SLEEP)

    def wake(self) -> None:
        """Leave sleep for idle listening.  No effect in TX/RX/IDLE."""
        if self._state is RadioState.SLEEP:
            self.set_state(RadioState.IDLE)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Radio node={self.owner_id} {self._state.value}>"
