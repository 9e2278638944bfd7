"""Unit tests for the energy meter and radio state machine."""

import pytest

from repro.geometry.vec import Vec2
from repro.net.energy import PAPER_POWER_MODEL, EnergyMeter, PowerModel, RadioState
from repro.net.packet import BROADCAST, Frame
from repro.net.radio import Radio
from repro.sim.kernel import Simulator

from .reception_oracle import OracleRadio
from .test_net_batch_reception import raw_channel


def hear_one_frame(sim):
    """A frame in flight from node 0 to node 1; returns ``(radio, record)``
    of the receiver, whose reception is slot 0 of the record."""
    channel, (sender, receiver) = raw_channel(sim, [Vec2(0, 0), Vec2(50, 0)])
    channel.transmit(sender, Frame("data", 0, BROADCAST, 200))
    (record,) = channel._active
    assert record.receivers == [receiver]
    return receiver.radio, record


def outcome(record):
    """``(corrupted, reason)`` of a single-receiver record."""
    return record.corrupt[0], record.reasons[0]


class TestPowerModel:
    def test_paper_numbers(self):
        assert PAPER_POWER_MODEL.tx_w == pytest.approx(1.400)
        assert PAPER_POWER_MODEL.rx_w == pytest.approx(1.000)
        assert PAPER_POWER_MODEL.idle_w == pytest.approx(0.830)
        assert PAPER_POWER_MODEL.sleep_w == pytest.approx(0.130)

    def test_watts_per_state(self):
        model = PowerModel()
        assert model.watts(RadioState.TX) == model.tx_w
        assert model.watts(RadioState.RX) == model.rx_w
        assert model.watts(RadioState.IDLE) == model.idle_w
        assert model.watts(RadioState.SLEEP) == model.sleep_w


class TestEnergyMeter:

    def test_average_power(self):
        sim = Simulator()
        meter = EnergyMeter(sim, PowerModel())
        sim.schedule_at(5.0, meter.on_state_change, RadioState.SLEEP, 5.0)
        sim.run(until=10.0)
        expected = (5 * 0.830 + 5 * 0.130) / 10.0
        assert meter.average_power_w() == pytest.approx(expected)

    def test_average_power_at_time_zero(self):
        sim = Simulator()
        meter = EnergyMeter(sim, PowerModel())
        assert meter.average_power_w() == pytest.approx(0.830)


class TestRadio:
    def _radio(self):
        sim = Simulator()
        return sim, Radio(sim, owner_id=1, power_model=PowerModel())

    def test_initial_state_idle(self):
        _, radio = self._radio()
        assert radio.state is RadioState.IDLE
        assert radio.listening

    def test_sleep_and_wake(self):
        _, radio = self._radio()
        radio.sleep()
        assert radio.is_sleeping
        assert not radio.listening
        radio.wake()
        assert radio.state is RadioState.IDLE

    def test_wake_noop_when_not_sleeping(self):
        _, radio = self._radio()
        radio.set_state(RadioState.RX)
        radio.wake()
        assert radio.state is RadioState.RX

    def test_tx_guard_rejects_sleeping(self):
        _, radio = self._radio()
        radio.sleep()
        with pytest.raises(RuntimeError):
            radio.set_state_tx_guarded()

    def test_tx_guard_rejects_double_tx(self):
        _, radio = self._radio()
        radio.set_state_tx_guarded()
        with pytest.raises(RuntimeError):
            radio.set_state_tx_guarded()

    def test_end_transmission_returns_to_idle(self):
        _, radio = self._radio()
        radio.set_state_tx_guarded()
        radio.end_transmission()
        assert radio.state is RadioState.IDLE

    # The reception tests below replay one interleaving through the real
    # radio (frames begun by ``Channel.transmit``) and through the
    # object-per-reception oracle.

    def test_reception_corrupted_by_sleep(self):
        radio, record = hear_one_frame(Simulator())
        oracle = OracleRadio()
        expected = oracle.begin_reception()
        assert radio.state is oracle.state is RadioState.RX
        radio.sleep()
        oracle.set_state(RadioState.SLEEP)
        assert outcome(record) == expected.outcome == (True, "receiver_left_listening")

    def test_reception_corrupted_by_tx(self):
        radio, record = hear_one_frame(Simulator())
        oracle = OracleRadio()
        expected = oracle.begin_reception()
        radio.set_state_tx_guarded()
        oracle.set_state(RadioState.TX)
        assert outcome(record) == expected.outcome
        assert record.corrupt[0]

    def test_overlapping_receptions_corrupt_each_other(self):
        sim = Simulator()
        # The middle node hears both ends; the ends do not hear each other.
        channel, (left, receiver, right) = raw_channel(
            sim, [Vec2(0, 0), Vec2(100, 0), Vec2(200, 0)]
        )
        oracle = OracleRadio()
        channel.transmit(left, Frame("data", 0, BROADCAST, 200))
        channel.transmit(right, Frame("data", 2, BROADCAST, 200))
        first, second = channel._active
        assert first.receivers == second.receivers == [receiver]
        expected = oracle.begin_reception(), oracle.begin_reception()
        assert outcome(first) == expected[0].outcome == (True, "overlap")
        assert outcome(second) == expected[1].outcome == (True, "overlap")
        assert receiver.radio.rx_count == len(oracle.active) == 2

    def test_single_reception_clean(self):
        sim = Simulator()
        channel, (sender, receiver) = raw_channel(sim, [Vec2(0, 0), Vec2(50, 0)])
        oracle = OracleRadio()
        channel.transmit(sender, Frame("data", 0, BROADCAST, 200))
        (record,) = channel._active
        expected = oracle.begin_reception()
        assert receiver.radio.state is oracle.state is RadioState.RX
        sim.run(until=1.0)
        oracle.end_reception(expected)
        assert outcome(record) == expected.outcome == (False, None)
        assert receiver.radio.state is oracle.state is RadioState.IDLE

    def test_end_reception_restores_idle_only_when_drained(self):
        sim = Simulator()
        # The middle node hears both ends; the ends do not hear each other.
        channel, (left, receiver, right) = raw_channel(
            sim, [Vec2(0, 0), Vec2(100, 0), Vec2(200, 0)]
        )
        oracle = OracleRadio()
        short, long_ = Frame("data", 0, BROADCAST, 200), Frame("data", 2, BROADCAST, 1500)
        channel.transmit(left, short)
        channel.transmit(right, long_)
        a, b = oracle.begin_reception(), oracle.begin_reception()
        sim.run(until=(channel.airtime(short) + channel.airtime(long_)) / 2)
        oracle.end_reception(a)
        assert receiver.radio.state is oracle.state is RadioState.RX
        sim.run(until=1.0)
        oracle.end_reception(b)
        assert receiver.radio.state is oracle.state is RadioState.IDLE
        assert receiver.radio.rx_count == len(oracle.active) == 0
