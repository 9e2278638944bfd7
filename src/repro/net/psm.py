"""IEEE 802.11 PSM-style sleep scheduling.

Non-backbone nodes duty-cycle their radios: everyone shares a beacon
schedule and is awake for ``active_window_s`` at the start of every
``beacon_interval_s`` (the paper's *sleep period*, 3–15 s against a 100 ms
window, i.e. duty cycles of 3.2 % down to 0.67 %).  Clocks are synchronized
(paper assumption 1), so a backbone node knows exactly when a sleeping
neighbour will listen and can buffer frames until then.

On top of the beacon cycle, MobiQuery's dissemination phase installs **wake
overrides**: a sleeping node told to participate in query ``k`` adds a wake
interval around ``k*Tperiod - Tfresh`` so it can sample its sensor and
report, then drops back to the beacon cycle.  This is the "reconfigure their
sleep schedules to wake up at the right time" mechanic of Section 4.3.

Hot-path layout: clocks are synchronized, so every sleeper on the same
``(beacon_interval, offset, active_window)`` phase crosses its window
boundaries at the same instants.  A shared :class:`WakeWheel` (one per
distinct phase per kernel) therefore schedules ONE kernel event per window
start and ONE per window end and services every registered scheduler from a
batch loop, instead of each node chaining its own boundary events through
the heap.  Wake overrides stay per-node (their times are query-specific):
each installs exactly one start event and one end-check event and never
chains further boundaries, so override-heavy runs scale with the number of
overrides, not overrides x boundaries.  Only a node that cannot sleep yet
(MAC still draining) puts a private retry event on the heap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from ..sim.kernel import Simulator
from .mac import MacLayer
from .radio import Radio


@dataclass(frozen=True)
class PsmConfig:
    """Duty-cycle parameters shared by all sleeping nodes.

    ``offset_s`` shifts the whole beacon schedule: windows open at
    ``offset + n * beacon_interval``.  Experiments draw it randomly per run
    so the query start is not artificially aligned with a wake-up window
    (which would hide the warmup phase the paper analyses).
    """

    beacon_interval_s: float = 9.0
    active_window_s: float = 0.1
    offset_s: float = 0.0

    def __post_init__(self) -> None:
        period = self.beacon_interval_s
        if period <= 0:
            raise ValueError(f"sleep period must be > 0 s, got {period:g}")
        if not 0 < self.active_window_s < period:
            raise ValueError(
                f"active window must be in (0, sleep period = {period:g} s), "
                f"got {self.active_window_s:g}"
            )
        if not 0 <= self.offset_s < period:
            raise ValueError(
                f"offset must be in [0, sleep period = {period:g} s), "
                f"got {self.offset_s:g}"
            )

    #: tolerance for float noise at window boundaries.  A boundary event
    #: scheduled at ``offset + n*T`` can evaluate its own phase to a hair
    #: below ``T`` instead of 0; without folding, the node would neither
    #: wake nor chain the next boundary and its duty cycle would die.
    _BOUNDARY_EPS = 1e-7

    def window_phase(self, t: float) -> float:
        """Time since the most recent window opening at time ``t``."""
        phase = (t - self.offset_s) % self.beacon_interval_s
        if phase >= self.beacon_interval_s - self._BOUNDARY_EPS:
            return 0.0
        return phase

    def in_window(self, t: float) -> bool:
        """Whether the shared beacon window is open at time ``t``."""
        return self.window_phase(t) < self.active_window_s - self._BOUNDARY_EPS

    def next_window_start(self, after: float) -> float:
        """Opening time of the first window strictly after ``after``."""
        shifted = after - self.offset_s
        n = math.floor(shifted / self.beacon_interval_s) + 1
        start = n * self.beacon_interval_s + self.offset_s
        if start <= after + self._BOUNDARY_EPS:
            start += self.beacon_interval_s
        return start


class WakeWheel:
    """Shared beacon-window timer wheel for one ``(interval, offset, window)``
    phase.

    All sleepers on a phase cross window boundaries simultaneously (paper
    assumption 1: synchronized clocks), so the wheel schedules exactly one
    kernel event per distinct window start and one per window end, and
    services every registered :class:`SleepScheduler` from a batch loop in
    registration order — the same node-id order the per-node boundary
    events used to fire in, so downstream event sequences are unchanged.
    Nodes with nothing to do at a boundary (already awake, kept awake by an
    override) are skipped inside the loop without ever touching the heap.
    """

    __slots__ = ("sim", "config", "_schedulers", "_armed")

    def __init__(self, sim: Simulator, config: PsmConfig) -> None:
        self.sim = sim
        self.config = config
        self._schedulers: List["SleepScheduler"] = []
        self._armed = False

    @classmethod
    def shared(cls, sim: Simulator, config: PsmConfig) -> "WakeWheel":
        """The kernel-wide wheel for ``config``'s phase (created on demand).

        Wheels are keyed by ``(beacon_interval, offset, active_window)`` on
        the kernel instance itself, so schedulers built independently (the
        network builder, tests constructing :class:`SleepScheduler`
        directly) still coalesce onto one event chain per phase.
        """
        registry = getattr(sim, "_psm_wheels", None)
        if registry is None:
            registry = {}
            sim._psm_wheels = registry  # type: ignore[attr-defined]
        key = (config.beacon_interval_s, config.offset_s, config.active_window_s)
        wheel = registry.get(key)
        if wheel is None:
            wheel = cls(sim, config)
            registry[key] = wheel
        return wheel

    @property
    def schedulers(self) -> Tuple["SleepScheduler", ...]:
        """Schedulers serviced by this wheel, in registration order."""
        return tuple(self._schedulers)

    def register(self, scheduler: "SleepScheduler") -> None:
        """Add ``scheduler`` to the wheel; arm the event chain on first use."""
        self._schedulers.append(scheduler)
        if self._armed:
            return
        self._armed = True
        now = self.sim.now
        cfg = self.config
        if cfg.in_window(now):
            # Close out the window already underway for the whole cohort.
            end = now - cfg.window_phase(now) + cfg.active_window_s
            self.sim.schedule_at_fast(end, self._on_window_end)
        self.sim.schedule_at_fast(cfg.next_window_start(now), self._on_window_start)

    def _on_window_start(self) -> None:
        # One event per distinct boundary: wake the whole cohort, then chain
        # the window end and the next start.  next_window_start recomputes
        # ``offset + n*interval`` from scratch, so the chain cannot drift.
        now = self.sim.now
        for scheduler in self._schedulers:
            scheduler.radio.wake()
        cfg = self.config
        self.sim.schedule_at_fast(now + cfg.active_window_s, self._on_window_end)
        self.sim.schedule_at_fast(cfg.next_window_start(now), self._on_window_start)

    def _on_window_end(self) -> None:
        # Batch sleep check: schedulers kept awake by an override return
        # immediately (that override's own end-check event will retire
        # them); only a MAC-busy node schedules a private retry.
        for scheduler in self._schedulers:
            scheduler._maybe_sleep()


class SleepScheduler:
    """Drives one sleeper's radio through the beacon cycle plus overrides."""

    #: how long to postpone a due sleep while the MAC is still draining
    _SLEEP_RETRY_S = 1e-3

    def __init__(self, radio: Radio, mac: MacLayer, config: PsmConfig) -> None:
        self.sim = mac.sim
        self.radio = radio
        self.mac = mac
        self.config = config
        self.wheel = WakeWheel.shared(self.sim, config)
        self._overrides: List[Tuple[float, float]] = []
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin the duty cycle.  The radio sleeps outside scheduled windows.

        Joining the shared :class:`WakeWheel` replaces the per-node
        boundary chain: the wheel wakes this radio at every window start
        and runs the sleep check at every window end.
        """
        if self._started:
            raise RuntimeError("sleep scheduler already started")
        self._started = True
        if self.is_scheduled_awake(self.sim.now):
            self.radio.wake()
        else:
            self.radio.sleep()
        self.wheel.register(self)

    # ------------------------------------------------------------------
    # Schedule queries (usable by other nodes thanks to clock sync)
    # ------------------------------------------------------------------
    def is_scheduled_awake(self, t: float) -> bool:
        """Whether the schedule has the node awake at time ``t``."""
        if self.config.in_window(t):
            return True
        for start, end in self._overrides:
            if start - 1e-12 <= t < end - 1e-12:
                return True
        return False

    # ------------------------------------------------------------------
    # Overrides
    # ------------------------------------------------------------------
    def add_wake_interval(self, start: float, end: float) -> None:
        """Schedule an extra listening interval ``[start, end)``.

        Intervals in the past are ignored; an interval already underway
        wakes the radio immediately.  Each override costs exactly one wake
        event (skipped when already underway) and one end-check event —
        overrides never chain further boundaries, the shared wheel owns the
        beacon cycle.
        """
        if end <= start:
            raise ValueError(f"empty wake interval [{start}, {end})")
        now = self.sim.now
        if end <= now:
            return
        self._overrides.append((start, end))
        if start <= now:
            self.radio.wake()
            self.sim.schedule_at_fast(end, self._maybe_sleep)
        else:
            self.sim.schedule_at_fast(start, self._on_override_start, end)
        self._prune_overrides(now)

    def pending_override_count(self, now: float) -> int:
        """Wake overrides whose end is still ahead of ``now`` (leak census)."""
        return sum(1 for _start, end in self._overrides if end > now)

    def _on_override_start(self, end: float) -> None:
        # The override's wake moment: wake the radio and arm the end check.
        # If other overrides or a beacon window keep the node awake past
        # ``end``, the check returns and their own end events take over —
        # every awake stretch always ends at some override end or window
        # end, and each of those times has an event.
        self._prune_overrides(self.sim.now)
        self.radio.wake()
        self.sim.schedule_at_fast(end, self._maybe_sleep)

    def _prune_overrides(self, now: float) -> None:
        overrides = self._overrides
        if not overrides:
            return
        for _start, end in overrides:
            if end <= now:
                self._overrides = [(s, e) for s, e in overrides if e > now]
                return

    # ------------------------------------------------------------------
    # Boundary events (beacon boundaries are driven by the shared wheel)
    # ------------------------------------------------------------------
    def _maybe_sleep(self) -> None:
        now = self.sim.now
        if self.is_scheduled_awake(now):
            return  # an override extended the window; its own end event fires later
        mac = self.mac
        radio = self.radio
        if mac._busy or mac._queue or radio.is_transmitting or radio.rx_count:
            # Drain in-flight work before powering down; bounded in practice
            # because sleepers only ever queue a handful of frames.
            self.sim.schedule_fast(self._SLEEP_RETRY_S, self._maybe_sleep)
            return
        radio.sleep()
