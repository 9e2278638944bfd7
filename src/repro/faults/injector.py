"""Execute a :class:`FaultPlan` against a built network.

Crashes are modelled as *forced sleep with wake blocked*: the node's radio
drops to SLEEP (corrupting whatever it was receiving, exactly as a real
power loss would), and ``wake`` is shadowed so neither the PSM wheel nor
the protocol can bring the radio back until recovery.  This flows through
the one :meth:`Radio.set_state` path every radio transition takes.

Degradation windows install a jam hook on the channel; while a window is
open every transmitted frame is corrupted at all receivers with the
window's probability (one draw per frame, in kernel-event order, from the
dedicated ``"faults"`` stream, so the draws do not depend on how mobile
listeners are looked up).

The injector only *breaks* things.  Recovery — collector re-election,
report re-routing, watchdog re-injection, degraded-period accounting —
lives in :mod:`repro.core.service` and :mod:`repro.core.gateway`.
"""

from __future__ import annotations

from typing import List

from ..geometry.vec import Vec2
from ..net.network import Network
from ..net.node import SensorNode
from ..sim.rng import RandomStreams
from .plan import FaultPlan, RadioDegradation, RegionBlackout


def _blocked_wake() -> None:
    """Shadow for ``Radio.wake`` while a node is crashed."""


class FaultInjector:
    """Schedules a plan's fault events on a network's kernel."""

    def __init__(
        self,
        plan: FaultPlan,
        network: Network,
        streams: RandomStreams,
    ) -> None:
        self.plan = plan
        self.network = network
        self.sim = network.sim
        self.tracer = network.tracer
        # The dedicated stream: fault draws cannot perturb any other
        # component, and an empty plan draws nothing at all.
        self.rng = streams.stream("faults")
        #: corruption probabilities of currently-open degradation windows
        self._jam_probs: List[float] = []

    def start(self) -> None:
        """Schedule every event in the plan (no-op for an empty plan)."""
        if self.plan.empty:
            return
        n_nodes = len(self.network.nodes)
        for crash in self.plan.crashes:
            if crash.node_id >= n_nodes:
                # A cluster shard world smaller than the plan's id space:
                # the crash targets a node outside this shard.
                continue
            self.sim.schedule_at(crash.at_s, self._crash_by_id, crash.node_id)
            if crash.recover_s is not None:
                self.sim.schedule_at(crash.recover_s, self._recover_by_id, crash.node_id)
        for blackout in self.plan.blackouts:
            self.sim.schedule_at(blackout.at_s, self._blackout_start, blackout)
        for window in self.plan.degradations:
            self.sim.schedule_at(window.at_s, self._degrade_start, window)
            self.sim.schedule_at(
                window.at_s + window.duration_s, self._degrade_end, window
            )

    # ------------------------------------------------------------------
    # Crash / recover
    # ------------------------------------------------------------------
    def crash_node(self, node: SensorNode) -> bool:
        """Kill ``node`` now; returns False if it was already down."""
        if node.crashed:
            return False
        node.crashed = True
        radio = node.radio
        radio.sleep()
        # Shadow the bound method: PSM windows and protocol wake-ups hit
        # this no-op until recovery deletes the instance attribute.
        radio.wake = _blocked_wake
        self.tracer.emit("node-crashed", self.sim.now, node=node.node_id)
        return True

    def recover_node(self, node: SensorNode) -> None:
        """Bring ``node`` back; sleepers rejoin at their next PSM window."""
        if not node.crashed:
            return
        node.crashed = False
        radio = node.radio
        try:
            del radio.wake  # un-shadow the class method
        except AttributeError:
            pass
        if node.sleep_scheduler is None:
            # Backbone node: always-on, wake immediately.
            radio.wake()
        self.tracer.emit("node-recovered", self.sim.now, node=node.node_id)

    def _crash_by_id(self, node_id: int) -> None:
        self.crash_node(self.network.node_by_id(node_id))

    def _recover_by_id(self, node_id: int) -> None:
        self.recover_node(self.network.node_by_id(node_id))

    # ------------------------------------------------------------------
    # Region blackout
    # ------------------------------------------------------------------
    def _blackout_start(self, blackout: RegionBlackout) -> None:
        center = Vec2(blackout.x, blackout.y)
        victims = [
            node.node_id
            for node in self.network.nodes_in_disk(center, blackout.radius_m)
            if self.crash_node(node)
        ]
        self.tracer.emit(
            "blackout-start",
            self.sim.now,
            x=blackout.x,
            y=blackout.y,
            radius=blackout.radius_m,
            victims=len(victims),
        )
        self.sim.schedule(blackout.duration_s, self._blackout_end, victims)

    def _blackout_end(self, victims: List[int]) -> None:
        for node_id in victims:
            self.recover_node(self.network.node_by_id(node_id))
        self.tracer.emit("blackout-end", self.sim.now, victims=len(victims))

    # ------------------------------------------------------------------
    # Radio degradation windows
    # ------------------------------------------------------------------
    def _degrade_start(self, window: RadioDegradation) -> None:
        self._jam_probs.append(window.corruption_prob)
        self.network.channel.fault_jam = self._jam
        self.tracer.emit(
            "degradation-start", self.sim.now, prob=window.corruption_prob
        )

    def _degrade_end(self, window: RadioDegradation) -> None:
        self._jam_probs.remove(window.corruption_prob)
        if not self._jam_probs:
            # Last window closed: detach the hook so the channel stops
            # consulting (and the stream stops drawing) entirely.
            self.network.channel.fault_jam = None
        self.tracer.emit("degradation-end", self.sim.now, prob=window.corruption_prob)

    def _jam(self, frame: object) -> bool:
        """One draw per transmitted frame while any window is open."""
        return float(self.rng.random()) < max(self._jam_probs)
