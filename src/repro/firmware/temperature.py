"""Heater control: PID loops plus Marlin's thermal-protection watchdogs.

Each heater (hotend, bed) runs a fixed-period control tick that samples its
thermistor channel through the harness ADC path, computes a PID duty, drives
the PWM gate wire, and evaluates three protections:

* **MAXTEMP / MINTEMP** — sensor reads outside the sane range → kill.
* **Heating watch** (``WATCH_TEMP_PERIOD`` / ``WATCH_TEMP_INCREASE``) — after
  a target raise, temperature must climb by the watch increase within the
  watch period or the firmware declares "Heating failed" (what Trojan T6
  provokes by cutting MOSFET power).
* **Thermal runaway** (``THERMAL_PROTECTION_PERIOD`` / ``HYSTERESIS``) — once
  the target is reached, a sustained sag below target - hysteresis kills the
  machine.

Kills are delivered through a callback so the firmware can stop everything;
crucially, the kill only drives the *upstream* heater wire to zero — if an
interposer forces the downstream gate on (Trojan T7), the physical heater
keeps heating, exactly the paper's observation that the Trojan "ignores the
firmware's thermal runaway panic".
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

from repro.electronics.thermistor import adc_to_temp, voltage_to_adc
from repro.firmware.config import MarlinConfig, PidGains
from repro.sim.kernel import PeriodicTask, Simulator
from repro.sim.signals import AnalogWire, PwmWire
from repro.sim.time import MS


class _ProtectionState(enum.Enum):
    INACTIVE = "inactive"  # no target set
    FIRST_HEATING = "first_heating"  # climbing toward a new target
    TRACKING = "tracking"  # target reached; watching for sag


class HeaterController:
    """PID + protection for one heater."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        sensor: AnalogWire,
        gate: PwmWire,
        gains: PidGains,
        maxtemp_c: float,
        config: MarlinConfig,
        on_kill: Callable[[str], None],
    ) -> None:
        self.sim = sim
        self.name = name
        self.sensor = sensor
        self.gate = gate
        self.gains = gains
        self.maxtemp_c = maxtemp_c
        self.config = config
        self._on_kill = on_kill

        self.target_c = 0.0
        self._integral = 0.0
        self._d_smoothed = 0.0
        self._previous_temp: Optional[float] = None
        self._state = _ProtectionState.INACTIVE
        self._watch_deadline_ns: Optional[int] = None
        self._watch_temp_c = 0.0
        self._sag_since_ns: Optional[int] = None
        self._killed = False
        self._task: Optional[PeriodicTask] = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin the periodic control loop."""
        if self._task is None or self._task.cancelled:
            self._task = self.sim.every(
                self.config.temp_control_period_ms * MS, self.tick
            )

    def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            self._task = None

    def read_temp_c(self) -> float:
        """Sample the thermistor through the ADC quantisation path."""
        return adc_to_temp(voltage_to_adc(self.sensor.value))

    def set_target(self, target_c: float) -> None:
        """M104/M140-style target update; arms the heating watch on a raise."""
        current = self.read_temp_c()
        if target_c > 0 and target_c > current + self.config.watch_temp_increase_c:
            self._state = _ProtectionState.FIRST_HEATING
            self._arm_watch(current)
        elif target_c > 0:
            self._state = _ProtectionState.TRACKING
            self._sag_since_ns = None
        else:
            self._state = _ProtectionState.INACTIVE
            self._watch_deadline_ns = None
            self._sag_since_ns = None
        self.target_c = target_c
        self._integral = 0.0
        self._d_smoothed = 0.0
        self._previous_temp = None

    def _arm_watch(self, current_c: float) -> None:
        self._watch_temp_c = current_c + self.config.watch_temp_increase_c
        self._watch_deadline_ns = self.sim.now + int(self.config.watch_temp_period_s * 1e9)

    # ------------------------------------------------------------------
    def tick(self) -> None:
        """One control period: sample, check protections, drive the gate."""
        if self._killed:
            return
        temp = self.read_temp_c()
        self._check_protection(temp)
        if self._killed:
            return
        self.gate.drive(self._pid(temp))

    _FUNCTIONAL_RANGE_C = 15.0  # Marlin PID_FUNCTIONAL_RANGE
    _D_SMOOTHING = 0.95  # Marlin PID_K1 measurement filter

    def _pid(self, temp: float) -> float:
        """Marlin-style PID: bang-bang outside the functional range, then PID
        with conditional integration and a filtered measurement derivative
        (the raw ADC-quantised signal is too noisy to differentiate)."""
        if self.target_c <= 0:
            self._integral = 0.0
            self._previous_temp = None
            return 0.0
        error = self.target_c - temp
        if error > self._FUNCTIONAL_RANGE_C:
            self._previous_temp = temp
            return 1.0
        if error < -self._FUNCTIONAL_RANGE_C:
            self._previous_temp = temp
            return 0.0

        dt_s = self.config.temp_control_period_ms / 1000.0
        if self._previous_temp is not None:
            k1 = self._D_SMOOTHING
            self._d_smoothed = k1 * self._d_smoothed + (1.0 - k1) * (
                temp - self._previous_temp
            )
        self._previous_temp = temp
        d_term = -self.gains.kd * self._d_smoothed / dt_s

        p_term = self.gains.kp * error
        raw = p_term + self.gains.ki * self._integral + d_term
        # Conditional integration: only wind while the output is unsaturated.
        if 0.0 < raw < 1.0 or (raw >= 1.0 and error < 0) or (raw <= 0.0 and error > 0):
            self._integral += error * dt_s
            if self.gains.ki > 0:
                self._integral = max(0.0, min(1.0 / self.gains.ki, self._integral))
        duty = p_term + self.gains.ki * self._integral + d_term
        return max(0.0, min(1.0, duty))

    # ------------------------------------------------------------------
    def _check_protection(self, temp: float) -> None:
        config = self.config
        if temp > self.maxtemp_c:
            self._kill(f"{self.name}: MAXTEMP triggered ({temp:.1f}C)")
            return
        if self.target_c > 0 and temp < config.mintemp_c:
            self._kill(f"{self.name}: MINTEMP triggered ({temp:.1f}C)")
            return

        if self._state is _ProtectionState.FIRST_HEATING:
            if temp >= self.target_c - config.temp_window_c:
                self._state = _ProtectionState.TRACKING
                self._sag_since_ns = None
                self._watch_deadline_ns = None
            elif self._watch_deadline_ns is not None and self.sim.now >= self._watch_deadline_ns:
                if temp < self._watch_temp_c:
                    self._kill(f"{self.name}: Heating failed, system stopped!")
                    return
                self._arm_watch(temp)  # progress made: watch the next increment
        elif self._state is _ProtectionState.TRACKING and self.target_c > 0:
            if temp < self.target_c - config.runaway_hysteresis_c:
                if self._sag_since_ns is None:
                    self._sag_since_ns = self.sim.now
                elif self.sim.now - self._sag_since_ns >= int(config.runaway_period_s * 1e9):
                    self._kill(f"{self.name}: Thermal Runaway, system stopped!")
                    return
            else:
                self._sag_since_ns = None

    def _kill(self, reason: str) -> None:
        self._killed = True
        self.gate.drive(0.0)
        self._on_kill(reason)

    # ------------------------------------------------------------------
    @property
    def killed(self) -> bool:
        return self._killed

    def at_target(self) -> bool:
        """True when within the M109 wait window of the target."""
        if self.target_c <= 0:
            return True
        return abs(self.read_temp_c() - self.target_c) <= self.config.temp_window_c
