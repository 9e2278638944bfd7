"""Object-per-reception oracle for the batched reception path.

Before receptions were batched per frame
(:class:`~repro.net.channel.BroadcastReception`), every listener of a frame
got its own ``Reception`` object and its radio kept the list of those in
flight.  The simulator no longer carries that API; this module keeps its
semantics as the reference the batch path is tested against:

* a frame arriving while another is in flight corrupts itself and everything
  in flight (``"overlap"``);
* leaving a listening state (``TX`` / ``SLEEP``) corrupts everything in flight
  (``"receiver_left_listening"``);
* the first corruption reason wins;
* the radio is ``RX`` while anything is in flight and returns to ``IDLE`` when
  the last reception ends.

Tests replay one interleaving through :class:`OracleRadio` and through the
real :class:`~repro.net.radio.Radio` / :class:`~repro.net.channel.Channel`
and compare the per-reception outcomes.
"""

from typing import List, Optional

from repro.net.energy import RadioState


class Reception:
    """One frame in flight at one receiver."""

    def __init__(self) -> None:
        self.corrupted = False
        self.reason: Optional[str] = None

    def corrupt(self, reason: str) -> None:
        """Mark the reception as failed (idempotent; first reason wins)."""
        if not self.corrupted:
            self.corrupted = True
            self.reason = reason

    @property
    def outcome(self):
        """``(corrupted, reason)`` — what a batch record stores per receiver."""
        return self.corrupted, self.reason


class OracleRadio:
    """The reception half of a radio, one object per reception."""

    def __init__(self) -> None:
        self.state = RadioState.IDLE
        self.active: List[Reception] = []

    def begin_reception(self) -> Reception:
        """A frame starts arriving (the radio must be listening)."""
        assert self.state in (RadioState.IDLE, RadioState.RX)
        reception = Reception()
        if self.active:
            reception.corrupt("overlap")
            for other in self.active:
                other.corrupt("overlap")
        self.active.append(reception)
        self.state = RadioState.RX
        return reception

    def end_reception(self, reception: Reception) -> None:
        """The frame's airtime elapsed."""
        self.active.remove(reception)
        if not self.active and self.state is RadioState.RX:
            self.state = RadioState.IDLE

    def set_state(self, new_state: RadioState) -> None:
        """Transition; leaving a listening state kills receptions in flight."""
        if new_state in (RadioState.TX, RadioState.SLEEP):
            for reception in self.active:
                reception.corrupt("receiver_left_listening")
        self.state = new_state
