"""Unit tests for the wire abstractions."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.signals import AnalogWire, DigitalWire, Edge, PwmWire, StepWire
from repro.sim.trace import Tracer


class TestDigitalWire:
    def test_initial_value(self, sim):
        assert DigitalWire(sim, "w").value == 0
        assert DigitalWire(sim, "w", initial=1).value == 1

    def test_drive_changes_value(self, sim):
        wire = DigitalWire(sim, "w")
        wire.drive(1)
        assert wire.value == 1

    def test_edge_callback_fires_on_transition(self, sim):
        wire = DigitalWire(sim, "w")
        seen = []
        wire.on_edge(lambda w, v, t: seen.append((v, t)))
        wire.drive(1)
        assert seen == [(1, 0)]

    def test_no_callback_without_transition(self, sim):
        wire = DigitalWire(sim, "w")
        seen = []
        wire.on_edge(lambda w, v, t: seen.append(v))
        wire.drive(0)
        wire.drive(0)
        assert seen == []

    def test_rising_only_subscription(self, sim):
        wire = DigitalWire(sim, "w")
        rising = []
        wire.on_edge(lambda w, v, t: rising.append(v), Edge.RISING)
        wire.drive(1)
        wire.drive(0)
        wire.drive(1)
        assert rising == [1, 1]

    def test_falling_only_subscription(self, sim):
        wire = DigitalWire(sim, "w")
        falling = []
        wire.on_edge(lambda w, v, t: falling.append(v), Edge.FALLING)
        wire.drive(1)
        wire.drive(0)
        assert falling == [0]

    def test_edge_count(self, sim):
        wire = DigitalWire(sim, "w")
        for value in (1, 0, 1, 0):
            wire.drive(value)
        assert wire.edge_count == 4

    def test_truthy_values_normalised(self, sim):
        wire = DigitalWire(sim, "w")
        wire.drive(5)
        assert wire.value == 1

    def test_timestamp_follows_sim_clock(self, sim):
        wire = DigitalWire(sim, "w")
        seen = []
        wire.on_edge(lambda w, v, t: seen.append(t))
        sim.schedule(123, lambda: wire.drive(1))
        sim.run()
        assert seen == [123]


class TestStepWire:
    def test_pulse_count(self, sim):
        wire = StepWire(sim, "s")
        for _ in range(3):
            wire.pulse()
        assert wire.pulse_count == 3

    def test_pulse_callback_receives_width(self, sim):
        wire = StepWire(sim, "s")
        seen = []
        wire.on_pulse(lambda w, t, width: seen.append((t, width)))
        wire.pulse(width_ns=1500)
        assert seen == [(0, 1500)]

    def test_zero_width_rejected(self, sim):
        wire = StepWire(sim, "s")
        with pytest.raises(SimulationError):
            wire.pulse(width_ns=0)

    def test_min_interval_tracking(self, sim):
        wire = StepWire(sim, "s")
        tracer = Tracer()
        tracer.watch_one(wire)
        for at in (0, 100, 150, 400):
            sim.schedule_at(at, wire.pulse)
        sim.run()
        assert tracer.trace("s").min_interval_ns == 50

    def test_min_interval_tracking_through_pulse_batch(self, sim):
        wire = StepWire(sim, "s")
        tracer = Tracer()
        tracer.watch_one(wire)
        assert wire.batch_ready(4)
        wire.pulse_batch(np.asarray([0, 100, 150, 400], dtype=np.int64))
        trace = tracer.trace("s")
        assert trace.min_interval_ns == 50
        assert trace.min_pulse_width_ns == StepWire.DEFAULT_WIDTH_NS

    def test_max_frequency_from_min_interval(self, sim):
        wire = StepWire(sim, "s")
        tracer = Tracer()
        tracer.watch_one(wire)
        sim.schedule_at(0, wire.pulse)
        sim.schedule_at(1000, wire.pulse)  # 1 us apart -> 1 MHz
        sim.run()
        assert tracer.trace("s").max_frequency_hz == pytest.approx(1e6)

    def test_max_frequency_none_for_single_pulse(self, sim):
        wire = StepWire(sim, "s")
        tracer = Tracer()
        tracer.watch_one(wire)
        wire.pulse()
        assert tracer.trace("s").max_frequency_hz is None

    def test_min_width_tracking(self, sim):
        wire = StepWire(sim, "s")
        tracer = Tracer()
        tracer.watch_one(wire)
        wire.pulse(width_ns=3000)
        wire.pulse(width_ns=1000)
        wire.pulse(width_ns=2000)
        assert tracer.trace("s").min_pulse_width_ns == 1000


class TestPwmWire:
    def test_duty_clamped(self, sim):
        wire = PwmWire(sim, "p")
        wire.drive(1.7)
        assert wire.duty == 1.0
        wire.drive(-0.5)
        assert wire.duty == 0.0

    def test_change_callback(self, sim):
        wire = PwmWire(sim, "p")
        seen = []
        wire.on_change(lambda w, d, t: seen.append(d))
        wire.drive(0.5)
        wire.drive(0.5)  # no change, no callback
        wire.drive(0.8)
        assert seen == [0.5, 0.8]

    def test_update_count(self, sim):
        wire = PwmWire(sim, "p")
        wire.drive(0.1)
        wire.drive(0.2)
        assert wire.update_count == 2


class TestAnalogWire:
    def test_value_and_callback(self, sim):
        wire = AnalogWire(sim, "a", initial=1.0)
        seen = []
        wire.on_change(lambda w, v, t: seen.append(v))
        wire.drive(2.5)
        assert wire.value == 2.5
        assert seen == [2.5]

    def test_no_callback_on_identical_value(self, sim):
        wire = AnalogWire(sim, "a", initial=3.0)
        seen = []
        wire.on_change(lambda w, v, t: seen.append(v))
        wire.drive(3.0)
        assert seen == []


class TestClaiming:
    def test_claim_and_release(self, sim):
        wire = DigitalWire(sim, "w")
        wire.claim("firmware")
        assert wire.driver == "firmware"
        wire.release("firmware")
        assert wire.driver is None

    def test_release_by_non_owner_is_noop(self, sim):
        wire = DigitalWire(sim, "w")
        wire.claim("a")
        wire.release("b")
        assert wire.driver == "a"
