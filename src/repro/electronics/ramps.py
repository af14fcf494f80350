"""RAMPS 1.4 board assembly: harness downstream wires → plant physics.

Binds the downstream (RAMPS-side) end of every harness signal to the board's
components: A4988 drivers per axis, the three power MOSFETs, the endstop
switches, and the thermistor channels that report plant temperatures back up
the harness. This is the last digital hop before physics — everything the
OFFRAMPS Trojans change lands here.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.electronics.drivers import A4988Driver
from repro.electronics.endstop import Endstop
from repro.electronics.harness import SignalHarness
from repro.electronics.mosfet import PowerMosfet
from repro.electronics.pins import AXES, ENDSTOP_SIGNALS
from repro.electronics.thermistor import ThermistorChannel
from repro.physics.printer import PrinterPlant
from repro.sim.kernel import PeriodicTask, SampleClock, Simulator
from repro.sim.time import MS

_REFRESH_NS = 50 * MS  # thermistor channel refresh period


class RampsBoard:
    """The printer-side control board, fully wired to a plant.

    The thermistor channels refresh every 50 ms. By default a periodic
    kernel event drives both wires. With ``fast_path`` the channels serve
    their signals from the plant nodes' sample grids on a
    :class:`~repro.sim.kernel.SampleClock` instead
    (:meth:`ThermistorChannel.serve`): no event, yet every read returns
    what the refresh event would have left, in the same order against
    every other event at a refresh instant, and ``peak_temp_c`` is the
    same. The event comes back, at the next refresh instant, as soon as
    anything else watches ``T0_HOTEND`` or ``T1_BED``: an ``on_change``
    subscriber such as a :class:`~repro.sim.trace.Tracer`, a drive, or an
    FPGA interceptor.
    """

    def __init__(
        self,
        sim: Simulator,
        harness: SignalHarness,
        plant: PrinterPlant,
        microsteps: int = 16,
        fast_path: bool = False,
    ) -> None:
        self.sim = sim
        self.harness = harness
        self.plant = plant

        # Stepper drivers: downstream STEP/DIR/EN → plant microsteps.
        self.drivers: Dict[str, A4988Driver] = {}
        for axis in AXES:
            self.drivers[axis] = A4988Driver(
                name=f"A4988_{axis}",
                step=harness.downstream(f"{axis}_STEP"),
                direction=harness.downstream(f"{axis}_DIR"),
                enable=harness.downstream(f"{axis}_EN"),
                on_step=lambda direction, t, _axis=axis: plant.motor_step(_axis, direction, t),
                microsteps=microsteps,
                on_step_batch=lambda direction, times, _axis=axis: plant.motor_step_batch(
                    _axis, direction, times
                ),
                on_step_ready=lambda direction, count, _axis=axis: plant.can_batch_steps(
                    _axis, direction, count
                ),
            )

        # Heater / fan MOSFETs: downstream PWM duty → plant power.
        self.hotend_mosfet = PowerMosfet(
            "hotend",
            harness.downstream("D10_HOTEND"),
            plant.profile.hotend_power_w,
            plant.set_hotend_power,
        )
        self.bed_mosfet = PowerMosfet(
            "bed",
            harness.downstream("D8_BED"),
            plant.profile.bed_power_w,
            plant.set_bed_power,
        )
        self.fan_mosfet = PowerMosfet(
            "fan",
            harness.downstream("D9_FAN"),
            1.0,  # the fan "load" is its duty itself
            plant.set_fan_duty,
        )

        # Endstops: physical switches on the frame, wired to upstream
        # (RAMPS-side) endstop signals flowing back to the Arduino.
        self.endstops: Dict[str, Endstop] = {}
        for name in ENDSTOP_SIGNALS:
            axis = name.split("_")[0]
            endstop = Endstop(name, harness.upstream(name), trigger_position_mm=0.0)
            self.endstops[axis] = endstop
            plant.axes[axis].on_move(
                self._make_endstop_updater(endstop),
                range_ok=self._make_endstop_range_ok(endstop),
            )
            endstop.update(plant.axes[axis].position_mm)

        # Thermistors: plant temperature → divider voltage on the upstream
        # analog wires, refreshed periodically like a real sampled channel.
        self.thermistors = {
            "hotend": ThermistorChannel(
                "T0_HOTEND", harness.upstream("T0_HOTEND"), plant.hotend_temp_c
            ),
            "bed": ThermistorChannel("T1_BED", harness.upstream("T1_BED"), plant.bed_temp_c),
        }
        self._refresh_thermistors()
        self._thermistor_task: Optional[PeriodicTask] = None
        self._thermistor_clock: Optional[SampleClock] = None
        if fast_path:
            self._thermistor_clock = sim.clock(_REFRESH_NS)
            for channel, node in zip(self.thermistors.values(), (plant.hotend, plant.bed)):
                channel.serve(
                    harness.path(channel.name), node, self._thermistor_clock, self._watched
                )
        else:
            self._thermistor_task = sim.every(_REFRESH_NS, self._refresh_thermistors)

    @staticmethod
    def _make_endstop_updater(endstop: Endstop):
        def update(_axis: str, position_mm: float, _time_ns: int) -> None:
            endstop.update(position_mm)

        return update

    @staticmethod
    def _make_endstop_range_ok(endstop: Endstop):
        # The switch state is pure position (pressed ⟺ pos ≤ trigger): a run
        # whose span sits strictly on one side of the trigger can never
        # transition, so the final-position update is per-step-equivalent.
        def range_ok(lo_mm: float, hi_mm: float) -> bool:
            trigger = endstop.trigger_position_mm
            return lo_mm > trigger or hi_mm <= trigger

        return range_ok

    def _refresh_thermistors(self) -> None:
        for channel in self.thermistors.values():
            channel.refresh()

    def _watched(self) -> None:
        # Something now sees the thermistor wires: they hold the latest
        # refresh, and from the next instant on a refresh event drives them,
        # as on the precise path.
        for channel in self.thermistors.values():
            channel.unserve()
        self._thermistor_clock.hand_off(self._resume_refresh)

    def _resume_refresh(self) -> None:
        self._thermistor_clock = None
        self._thermistor_task = self.sim.every(_REFRESH_NS, self._refresh_thermistors)
        self._refresh_thermistors()

    # ------------------------------------------------------------------
    def total_missed_steps(self) -> int:
        """Pulses that arrived while drivers were disabled (T8's footprint)."""
        return sum(driver.missed_steps for driver in self.drivers.values())

    def shutdown(self) -> None:
        """Stop periodic activity (end of simulation housekeeping)."""
        for channel in self.thermistors.values():
            channel.unserve()
        if self._thermistor_clock is not None:
            self._thermistor_clock.cancel()
        if self._thermistor_task is not None:
            self._thermistor_task.cancel()
