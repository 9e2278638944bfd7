"""Radio energy accounting.

The paper measures average power per *sleeping* node (Figure 8) using the
Cabletron 802.11 card numbers from the Span paper: transmit 1400 mW, receive
1000 mW, idle 830 mW, sleep 130 mW.  The meter integrates power over the
time spent in each radio state; state changes are pushed by the radio, and
totals are read lazily so steady states cost nothing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from ..sim.kernel import Simulator


class RadioState(enum.Enum):
    """Power states of a node radio."""

    TX = "tx"
    RX = "rx"
    IDLE = "idle"
    SLEEP = "sleep"


#: The states as plain module constants.  Reading a member off an ``Enum``
#: class costs about 0.1 us in CPython 3.11 (ten times a global), and radio
#: transitions read several per call, twice per frame sent.
TX = RadioState.TX
RX = RadioState.RX
IDLE = RadioState.IDLE
SLEEP = RadioState.SLEEP


@dataclass(frozen=True)
class PowerModel:
    """Power draw in watts for each radio state."""

    tx_w: float = 1.400
    rx_w: float = 1.000
    idle_w: float = 0.830
    sleep_w: float = 0.130

    def watts(self, state: RadioState) -> float:
        """Draw for ``state`` in watts."""
        if state is TX:
            return self.tx_w
        if state is RX:
            return self.rx_w
        if state is IDLE:
            return self.idle_w
        return self.sleep_w


#: The measurement the paper cites (Chen et al., MobiCom'01 / Cabletron card).
PAPER_POWER_MODEL = PowerModel()


class EnergyMeter:
    """Integrates radio power draw over simulated time for one node.

    State changes fire on every radio transition — roughly twice per
    reception — so the meter keeps the current state's draw as a scalar and
    accumulates per-state seconds in four plain floats (no enum hashing or
    dict lookup on the hot path).  Every transition, the channel's
    IDLE<->RX steps included, goes through :meth:`on_state_change`.

    A bystander's reception (somebody else's unicast frame, heard whole and
    alone) never changes the state here: the channel adds its airtime to
    ``bystander_s`` at the frame's end, and the readouts move those seconds
    from IDLE, where the meter integrated them, to RX.  A reception still on
    the air at a read is first made real by the radio (``before_read``).
    """

    __slots__ = (
        "sim", "model", "_state", "_state_w", "_state_since", "_joules",
        "_tx_s", "_rx_s", "_idle_s", "_sleep_s", "bystander_s", "before_read",
    )

    def __init__(self, sim: Simulator, model: PowerModel = PAPER_POWER_MODEL) -> None:
        self.sim = sim
        self.model = model
        self._state = IDLE
        self._state_w = model.watts(IDLE)
        self._state_since = sim.now
        self._joules = 0.0
        self._tx_s = 0.0
        self._rx_s = 0.0
        self._idle_s = 0.0
        self._sleep_s = 0.0
        #: RX seconds of bystander receptions, integrated above as IDLE
        self.bystander_s = 0.0
        #: run before every readout: the radio's hook that makes a
        #: bystander's reception still on the air real (None: nothing to do)
        self.before_read: Optional[Callable[[], None]] = None

    def on_state_change(self, new_state: RadioState, at: float) -> None:
        """Close the current state interval at ``at`` and open ``new_state``.

        The one energy step: every radio transition and every readout
        takes it.  ``at`` is ``now`` but for a bystander's reception made
        real late, whose IDLE interval closes at its frame's start.
        """
        elapsed = at - self._state_since
        if elapsed > 0:
            self._joules += elapsed * self._state_w
            state = self._state
            if state is IDLE:
                self._idle_s += elapsed
            elif state is SLEEP:
                self._sleep_s += elapsed
            elif state is RX:
                self._rx_s += elapsed
            else:
                self._tx_s += elapsed
            self._state_since = at
        self._state = new_state
        model = self.model
        if new_state is IDLE:
            self._state_w = model.idle_w
        elif new_state is SLEEP:
            self._state_w = model.sleep_w
        elif new_state is RX:
            self._state_w = model.rx_w
        else:
            self._state_w = model.tx_w

    # ------------------------------------------------------------------
    # Readouts
    # ------------------------------------------------------------------
    def readout(self) -> Tuple[float, float, float, float, float]:
        """``(joules, tx_s, rx_s, idle_s, sleep_s)`` from creation through
        now, bystander receptions billed as RX."""
        if self.before_read is not None:
            self.before_read()
        self.on_state_change(self._state, self.sim.now)
        heard = self.bystander_s
        model = self.model
        return (
            self._joules + heard * (model.rx_w - model.idle_w),
            self._tx_s,
            self._rx_s + heard,
            self._idle_s - heard,
            self._sleep_s,
        )

    def average_power_w(self) -> float:
        """Mean draw in watts from the meter's creation through now."""
        joules = self.readout()[0]
        total_time = self._tx_s + self._rx_s + self._idle_s + self._sleep_s
        if total_time <= 0:
            return self._state_w
        return joules / total_time
