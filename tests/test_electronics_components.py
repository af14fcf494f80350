"""Tests for the RAMPS-side components: driver, MOSFET, thermistor, endstop, UART."""

import random

import pytest

from repro.electronics.drivers import A4988Driver
from repro.electronics.endstop import Endstop
from repro.electronics.mosfet import PowerMosfet
from repro.electronics.thermistor import (
    adc_to_temp,
    divider_voltage,
    temp_to_adc,
    thermistor_resistance,
    voltage_to_adc,
)
from repro.electronics.uart import (
    FRAME_SIZE_BYTES,
    UartBus,
    pack_step_counts,
    unpack_step_counts,
)
from repro.errors import CaptureError, ElectronicsError
from repro.sim.signals import AnalogWire, DigitalWire, PwmWire, StepWire


def _driver(sim, invert=False, microsteps=16):
    step = StepWire(sim, "s")
    direction = DigitalWire(sim, "d")
    enable = DigitalWire(sim, "e", initial=0)  # active low: enabled
    steps = []
    driver = A4988Driver(
        "drv", step, direction, enable,
        on_step=lambda direction_, t: steps.append(direction_),
        microsteps=microsteps, invert_direction=invert,
    )
    return driver, step, direction, enable, steps


class TestA4988:
    def test_steps_forward_by_default_dir_low(self, sim):
        driver, step, direction, _, steps = _driver(sim)
        direction.drive(1)
        step.pulse()
        assert steps == [1]

    def test_direction_decode(self, sim):
        driver, step, direction, _, steps = _driver(sim)
        direction.drive(0)
        step.pulse()
        direction.drive(1)
        step.pulse()
        assert steps == [-1, 1]

    def test_inverted_wiring(self, sim):
        driver, step, direction, _, steps = _driver(sim, invert=True)
        direction.drive(1)
        step.pulse()
        assert steps == [-1]

    def test_disabled_driver_misses_steps(self, sim):
        driver, step, _, enable, steps = _driver(sim)
        enable.drive(1)  # disable
        step.pulse()
        step.pulse()
        assert steps == []
        assert driver.missed_steps == 2

    def test_reenabled_driver_steps_again(self, sim):
        driver, step, _, enable, steps = _driver(sim)
        enable.drive(1)
        step.pulse()
        enable.drive(0)
        step.pulse()
        assert len(steps) == 1
        assert driver.steps_taken == 1

    def test_invalid_microsteps(self, sim):
        with pytest.raises(ElectronicsError):
            _driver(sim, microsteps=3)


class TestMosfet:
    def test_power_follows_duty(self, sim):
        gate = PwmWire(sim, "g")
        powers = []
        mosfet = PowerMosfet("m", gate, 40.0, lambda p, t: powers.append(p))
        gate.drive(0.5)
        assert powers == [20.0]
        assert mosfet.power_w == 20.0

    def test_switch_count(self, sim):
        gate = PwmWire(sim, "g")
        mosfet = PowerMosfet("m", gate, 10.0, lambda p, t: None)
        gate.drive(0.1)
        gate.drive(0.9)
        assert mosfet.switch_count == 2

    def test_invalid_power(self, sim):
        with pytest.raises(ElectronicsError):
            PowerMosfet("m", PwmWire(sim, "g"), 0.0, lambda p, t: None)


class TestThermistor:
    def test_resistance_at_nominal(self):
        assert thermistor_resistance(25.0) == pytest.approx(100_000.0, rel=1e-6)

    def test_resistance_decreases_with_temperature(self):
        assert thermistor_resistance(200.0) < thermistor_resistance(25.0)

    def test_adc_roundtrip_at_print_temps(self):
        for temp in (25.0, 60.0, 110.0, 210.0, 250.0):
            recovered = adc_to_temp(temp_to_adc(temp))
            assert recovered == pytest.approx(temp, abs=2.0)  # ADC quantisation

    def test_adc_rails_map_to_fault_values(self):
        assert adc_to_temp(0) > 400.0  # shorted: reads absurdly hot
        assert adc_to_temp(1023) < 0.0  # open: reads absurdly cold

    def test_voltage_monotonic(self):
        assert divider_voltage(25.0) > divider_voltage(210.0)

    def test_voltage_to_adc_clamped(self):
        assert voltage_to_adc(-1.0) == 0
        assert voltage_to_adc(99.0) == 1023

    def test_channel_refresh_drives_wire(self, sim):
        wire = AnalogWire(sim, "t")
        from repro.electronics.thermistor import ThermistorChannel

        channel = ThermistorChannel("t", wire, lambda: 100.0)
        temp = channel.refresh()
        assert temp == 100.0
        assert wire.value == pytest.approx(divider_voltage(100.0))


class TestEndstop:
    def test_triggers_at_zero(self, sim):
        wire = DigitalWire(sim, "es")
        endstop = Endstop("X_MIN", wire)
        endstop.update(5.0)
        assert not endstop.triggered
        endstop.update(0.0)
        assert endstop.triggered

    def test_actuation_counted_once_per_press(self, sim):
        wire = DigitalWire(sim, "es")
        endstop = Endstop("X_MIN", wire)
        for pos in (1.0, 0.0, -0.1, 2.0, 0.0):
            endstop.update(pos)
        assert endstop.actuation_count == 2

    def test_custom_trigger_position(self, sim):
        wire = DigitalWire(sim, "es")
        endstop = Endstop("X_MIN", wire, trigger_position_mm=1.5)
        endstop.update(1.4)
        assert endstop.triggered


class TestUart:
    def test_frame_is_16_bytes(self):
        assert FRAME_SIZE_BYTES == 16
        assert len(pack_step_counts(1, 2, 3, 4)) == 16

    def test_pack_unpack_roundtrip(self):
        frame = pack_step_counts(6060, -8266, 960, 52843)
        assert unpack_step_counts(frame) == (6060, -8266, 960, 52843)

    def test_out_of_range_rejected(self):
        with pytest.raises(CaptureError):
            pack_step_counts(2**40, 0, 0, 0)

    def test_bad_frame_size_rejected(self):
        with pytest.raises(CaptureError):
            unpack_step_counts(b"short")

    def test_bus_delivers_to_listeners(self):
        bus = UartBus()
        got = []
        bus.on_frame(lambda t, frame: got.append((t, frame)))
        frame = pack_step_counts(1, 2, 3, 4)
        bus.send(12345, frame)
        assert got == [(12345, frame)]
        assert bus.frames_sent == 1


class TestServedThermistors:
    """The fast path's event-free thermistor refresh against the 50 ms event.

    Both benches run the same seeded schedule of heater power changes and
    sensor reads on a real :class:`RampsBoard`: the reference refreshes
    both channels with a ``sim.every`` task, the served board computes
    each read from the thermal node's sample grid. Every read, and each
    node's ``peak_temp_c`` compared by ``repr``, must agree bit for bit.
    """

    PERIOD_NS = 50_000_000

    def _schedule(self, seed):
        """``(time_ns, action, node, power, lead_ns)`` steps.

        With ``lead_ns`` None the previous step schedules the next one
        directly, more than a period ahead (as the 100 ms heater tick is),
        so a step on a refresh instant runs before that refresh. Otherwise a
        filler event ``lead_ns`` before the step schedules it, as the
        command pump (2 ms ahead) and the wait poll (at once) do: a step on
        an instant then runs after that refresh.
        """
        period = self.PERIOD_NS
        rng = random.Random(seed)
        steps, t = [], 0
        while t < 20_000 * period:
            kind = rng.random()
            if kind < 0.45:  # exactly on a refresh instant
                t = (t // period + rng.randint(2, 12)) * period
            elif kind < 0.9:  # anywhere
                t += rng.randint(3 * period // 2, 40 * period)
            else:  # a long settle towards steady state, onto an instant
                t = (t // period + rng.randint(200, 3000)) * period
            node = rng.choice(["hotend", "bed"])
            lead = rng.choice([None, None, 0, 2_000_000, 30_000_000])
            if rng.random() < 0.5:
                power = rng.choice([0.0, rng.uniform(0.0, 1.0)])
                steps.append((t, "power", node, power, lead))
            else:
                steps.append((t, "read", node, None, lead))
        return steps

    def _run(self, schedule, fast_path):
        from repro.electronics.harness import SignalHarness
        from repro.electronics.ramps import RampsBoard
        from repro.physics.printer import PrinterPlant
        from repro.sim.kernel import Simulator

        sim = Simulator()
        harness = SignalHarness(sim)
        plant = PrinterPlant(sim)
        RampsBoard(sim, harness, plant, fast_path=fast_path)
        nodes = {"hotend": plant.hotend, "bed": plant.bed}
        full_w = {"hotend": plant.profile.hotend_power_w, "bed": plant.profile.bed_power_w}
        wires = {"hotend": harness.downstream("T0_HOTEND"), "bed": harness.downstream("T1_BED")}
        seen = []

        def act(index):
            _t, action, node, power, _lead = schedule[index]
            if action == "power":
                nodes[node].set_power(power * full_w[node])
            else:
                seen.append((sim.now, node, wires[node].value))
            if index + 1 < len(schedule):
                at, lead = schedule[index + 1][0], schedule[index + 1][4]
                if lead is None:
                    sim.schedule_at(at, act, index + 1)
                else:
                    sim.schedule_at(at - lead, sim.schedule_at, at, act, index + 1)

        sim.schedule_at(schedule[0][0], act, 0)
        # Run in windows that end on refresh instants, and between windows
        # (outside any event) change a power and read: there the refresh at
        # exactly ``now`` has already happened.
        end = schedule[-1][0] + self.PERIOD_NS
        stop = 0
        while stop < end:
            stop += self.PERIOD_NS * 2_347
            sim.run(until_ns=stop)
            seen.append((sim.now, "hotend", wires["hotend"].value))
            nodes["bed"].set_power(0.25 * full_w["bed"])
            seen.append((sim.now, "bed", wires["bed"].value))
            seen.append(("peaks", repr(plant.hotend.peak_temp_c), repr(plant.bed.peak_temp_c)))
        return seen, sim.events_dispatched

    @pytest.mark.parametrize("seed", range(6))
    def test_reads_and_peaks_match_the_refresh_event(self, seed):
        schedule = self._schedule(seed)
        on_instant = [lead for t, *_, lead in schedule if t % self.PERIOD_NS == 0]
        assert on_instant.count(None) > 10  # steps on refresh instants, before
        assert len(on_instant) - on_instant.count(None) > 10  # and after them
        reference, reference_events = self._run(schedule, fast_path=False)
        served, served_events = self._run(schedule, fast_path=True)
        assert served == reference
        assert served_events < reference_events // 10  # no refresh events

    def test_set_power_on_an_instant_reanchors_before_that_refresh(self):
        # The tick-then-refresh order: a power change at exactly a refresh
        # instant (scheduled a period ahead) is seen by that refresh.
        schedule = [
            (100 * self.PERIOD_NS, "power", "hotend", 1.0, None),
            (101 * self.PERIOD_NS, "read", "hotend", None, None),
            (300 * self.PERIOD_NS, "power", "hotend", 0.0, None),
            (300 * self.PERIOD_NS + 7, "read", "hotend", None, None),
            (302 * self.PERIOD_NS, "read", "hotend", None, None),
        ]
        assert self._run(schedule, fast_path=True)[0] == self._run(schedule, fast_path=False)[0]

    @pytest.mark.parametrize("lead_ns", [0, 2_000_000])
    def test_step_scheduled_inside_the_period_follows_that_refresh(self, lead_ns):
        # A read or power change on a refresh instant, scheduled less than a
        # period ahead (the command pump, the wait poll), comes after the
        # refresh there, so the read sees that refresh.
        period = self.PERIOD_NS
        schedule = [
            (100 * period, "power", "hotend", 1.0, None),
            (103 * period, "read", "hotend", None, lead_ns),
            (104 * period, "power", "hotend", 0.2, lead_ns),
            (104 * period + 9, "read", "hotend", None, None),
            (106 * period, "read", "hotend", None, lead_ns),
        ]
        reference, _ = self._run(schedule, fast_path=False)
        served, _ = self._run(schedule, fast_path=True)
        assert served == reference
        early = [(103 * period - 3_000_000, "read", "hotend", None, None)]
        before, _ = self._run(sorted(schedule + early, key=lambda step: step[0]), fast_path=False)
        assert before[1][2] != before[0][2]  # the 103rd refresh moved the reading

    def test_cooling_segment_peaks_at_its_first_instant(self):
        # After a long heat the hotend sits exactly at its steady state S.
        # A power cut on a refresh instant re-anchors there, and that
        # refresh reads S2 + (S - S2) with S2 the new steady state, which
        # can round one ulp above S: then it, not S, is the peak.
        from repro.physics.printer import PlantProfile

        profile = PlantProfile()
        full, ambient, loss = profile.hotend_power_w, 25.0, profile.hotend_loss_w_per_k
        steady = ambient + (0.66 * full) / loss
        cut = next(
            frac
            for frac in (k / 1000 for k in range(1, 500))
            if (ambient + frac * full / loss) + (steady - (ambient + frac * full / loss)) > steady
        )
        heat_until = 60_000 * self.PERIOD_NS  # 50 minutes: e^(-t/tau) underflows
        schedule = [
            (2 * self.PERIOD_NS, "power", "hotend", 0.66, None),
            (heat_until, "power", "hotend", cut, None),
            (heat_until + 3 * self.PERIOD_NS + 11, "read", "hotend", None, None),
        ]
        reference, _ = self._run(schedule, fast_path=False)
        served, _ = self._run(schedule, fast_path=True)
        assert served == reference
        assert float(reference[-1][1]) > steady  # the ulp above S is the peak

    @pytest.mark.parametrize("watcher", ["subscriber", "interceptor"])
    def test_watcher_brings_the_refresh_event_back(self, watcher):
        from repro.electronics.harness import SignalHarness
        from repro.electronics.ramps import RampsBoard
        from repro.physics.printer import PrinterPlant
        from repro.sim.kernel import Simulator

        traces = []
        for fast_path in (False, True):
            sim = Simulator()
            harness = SignalHarness(sim)
            plant = PrinterPlant(sim)
            RampsBoard(sim, harness, plant, fast_path=fast_path)
            plant.hotend.set_power(30.0)
            sim.run(until_ns=7 * self.PERIOD_NS + 3)
            seen = []
            if watcher == "subscriber":
                harness.upstream("T0_HOTEND").on_change(lambda _w, v, t: seen.append((t, v)))
            else:

                def forward(path, _kind, value, time_ns):
                    seen.append((time_ns, value))
                    path.downstream.drive(value)

                harness.path("T0_HOTEND").install_interceptor("probe", forward)
            sim.run(until_ns=40 * self.PERIOD_NS)
            seen.append(("firmware reads", harness.downstream("T0_HOTEND").value))
            traces.append((seen, repr(plant.hotend.peak_temp_c), sim.events_dispatched))
        (seen, peak, events), (served_seen, served_peak, served_events) = traces
        assert (served_seen, served_peak) == (seen, peak)
        assert len(seen) == 34  # one drive per refresh from the 8th to the 40th
        # Refreshes 1 to 7 took no event, nor did the 8th: the clock ran it
        # in its event's place and armed the task for the 9th on.
        assert served_events == events - 8
