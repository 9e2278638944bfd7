"""Unit tests for PSM duty cycling: schedules, overrides, buffered delivery."""

import pytest

from repro.net.energy import RadioState
from repro.net.packet import Frame
from repro.net.psm import PsmConfig
from repro.sim.kernel import Simulator

from .conftest import line_positions, make_network


class TestPsmConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PsmConfig(beacon_interval_s=0.0)
        with pytest.raises(ValueError):
            PsmConfig(beacon_interval_s=9.0, active_window_s=9.0)
        with pytest.raises(ValueError):
            PsmConfig(beacon_interval_s=9.0, active_window_s=0.1, offset_s=10.0)

    def test_in_window_with_offset(self):
        config = PsmConfig(beacon_interval_s=9.0, active_window_s=0.1, offset_s=4.0)
        assert config.in_window(4.05)
        assert config.in_window(13.05)
        assert not config.in_window(4.2)
        assert not config.in_window(0.05)

    def test_next_window_start(self):
        config = PsmConfig(beacon_interval_s=9.0, active_window_s=0.1, offset_s=4.0)
        assert config.next_window_start(0.0) == pytest.approx(4.0)
        assert config.next_window_start(4.0) == pytest.approx(13.0)
        assert config.next_window_start(12.99) == pytest.approx(13.0)

    def test_boundary_float_robustness(self):
        """Regression: phase at offset + n*T must fold to 0, not T-epsilon.

        With offset 4.4282 the subtraction ``t - offset`` lands a hair
        below an exact multiple of T for some n, which once silently killed
        every sleeper's wake chain mid-run.
        """
        config = PsmConfig(beacon_interval_s=9.0, active_window_s=0.1, offset_s=4.4282)
        for n in range(1, 200):
            t = 4.4282 + n * 9.0
            assert config.in_window(t), f"window start missed at n={n}"
            nxt = config.next_window_start(t)
            assert nxt > t + 1.0  # strictly the *next* window


class TestSleepScheduler:
    def test_sleeper_cycles_with_beacon(self, sim):
        network = make_network(sim, line_positions(2, 50.0), sleep_period=9.0, psm_offset=4.0)
        network.apply_backbone([0])
        sleeper = network.nodes[1]
        assert sleeper.radio.is_sleeping  # t=0, outside window
        sim.run(until=4.05)
        assert not sleeper.radio.is_sleeping  # inside window
        sim.run(until=5.0)
        assert sleeper.radio.is_sleeping  # window closed
        sim.run(until=13.05)
        assert not sleeper.radio.is_sleeping  # next window

    def test_long_run_cycle_never_dies(self, sim):
        """Every beacon window must wake the sleeper, far into the run."""
        network = make_network(
            sim, line_positions(2, 50.0), sleep_period=9.0, psm_offset=4.4282
        )
        network.apply_backbone([0])
        sleeper = network.nodes[1]
        for n in range(1, 40):
            sim.run(until=4.4282 + n * 9.0 + 0.05)
            assert not sleeper.radio.is_sleeping, f"dead at window {n}"
            sim.run(until=4.4282 + n * 9.0 + 0.5)
            assert sleeper.radio.is_sleeping, f"insomnia at window {n}"

    def test_wake_override_future(self, sim):
        network = make_network(sim, line_positions(2, 50.0), sleep_period=9.0, psm_offset=4.0)
        network.apply_backbone([0])
        sleeper = network.nodes[1]
        sleeper.sleep_scheduler.add_wake_interval(6.0, 6.5)
        sim.run(until=6.1)
        assert not sleeper.radio.is_sleeping
        sim.run(until=7.0)
        assert sleeper.radio.is_sleeping

    def test_wake_override_already_started(self, sim):
        network = make_network(sim, line_positions(2, 50.0), sleep_period=9.0, psm_offset=4.0)
        network.apply_backbone([0])
        sleeper = network.nodes[1]
        sim.run(until=1.0)
        sleeper.sleep_scheduler.add_wake_interval(0.5, 2.0)
        sim.run(until=1.1)
        assert not sleeper.radio.is_sleeping
        sim.run(until=2.5)
        assert sleeper.radio.is_sleeping

    def test_wake_override_in_past_ignored(self, sim):
        network = make_network(sim, line_positions(2, 50.0), sleep_period=9.0, psm_offset=4.0)
        network.apply_backbone([0])
        sleeper = network.nodes[1]
        sim.run(until=3.0)
        sleeper.sleep_scheduler.add_wake_interval(1.0, 2.0)
        sim.run(until=3.5)
        assert sleeper.radio.is_sleeping

    def test_empty_override_rejected(self, sim):
        network = make_network(sim, line_positions(2, 50.0), sleep_period=9.0, psm_offset=4.0)
        network.apply_backbone([0])
        with pytest.raises(ValueError):
            network.nodes[1].sleep_scheduler.add_wake_interval(5.0, 5.0)

    def test_overlapping_override_extends_window(self, sim):
        network = make_network(sim, line_positions(2, 50.0), sleep_period=9.0, psm_offset=4.0)
        network.apply_backbone([0])
        sleeper = network.nodes[1]
        # Override straddling the beacon window end at 4.1.
        sleeper.sleep_scheduler.add_wake_interval(4.05, 4.6)
        sim.run(until=4.3)
        assert not sleeper.radio.is_sleeping
        sim.run(until=4.8)
        assert sleeper.radio.is_sleeping

    def test_sleep_deferred_while_mac_busy(self, sim):
        network = make_network(sim, line_positions(2, 50.0), sleep_period=9.0, psm_offset=4.0)
        network.apply_backbone([0])
        sleeper = network.nodes[1]
        # Queue a frame right at the end of the window: the node must stay
        # awake long enough to finish the transmission.
        outcomes = []
        sim.schedule(4.09, sleeper.send, Frame("x", 1, 0, 200), outcomes.append)
        sim.run(until=6.0)
        assert outcomes == [True]
        assert sleeper.radio.is_sleeping
