"""The whole-machine plant: a Prusa-i3-MK3S-like printer's physics.

:class:`PrinterPlant` owns the axis mechanics, the hotend/bed thermal nodes,
the part-cooling fan state, and the deposition trace. It exposes exactly
the interfaces the RAMPS board model drives (motor steps, heater power, fan
duty) and the interfaces the sensors read back (carriage positions for the
endstops, block temperatures for the thermistors) — closing the
cyber-physical loop the paper's test environment closes with real hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import PlantError
from repro.physics.deposition import PartTrace
from repro.physics.kinematics import AxisMechanics
from repro.physics.thermal import ThermalNode
from repro.sim.kernel import Simulator
from repro.sim.time import MS

# The axes a deposition sample records, in PartTrace column order.
_SAMPLED_AXES = ("X", "Y", "Z", "E")


@dataclass(frozen=True)
class PlantProfile:
    """Physical constants of the simulated machine.

    Defaults approximate the paper's modified Prusa i3 MK3S+: 100/100/400/280
    steps-per-mm drivetrain (at 16x microstepping), 250x210x210 mm build
    volume, a 50 W hotend cartridge and a 250 W bed. The thermal constants
    are tuned so heat-up transients take tens of simulated seconds — the same
    qualitative shape as the real machine without minutes of dead time.
    """

    steps_per_mm: Dict[str, float] = field(
        default_factory=lambda: {"X": 100.0, "Y": 100.0, "Z": 400.0, "E": 280.0}
    )
    travel_mm: Dict[str, Tuple[float, float]] = field(
        default_factory=lambda: {"X": (0.0, 250.0), "Y": (0.0, 210.0), "Z": (0.0, 210.0)}
    )
    start_position_mm: Dict[str, float] = field(
        default_factory=lambda: {"X": 15.0, "Y": 12.0, "Z": 3.0, "E": 0.0}
    )
    ambient_c: float = 25.0
    hotend_power_w: float = 50.0
    hotend_heat_capacity_j_per_k: float = 6.0
    hotend_loss_w_per_k: float = 0.17
    hotend_damage_c: float = 290.0
    bed_power_w: float = 250.0
    bed_heat_capacity_j_per_k: float = 120.0
    bed_loss_w_per_k: float = 1.4
    bed_damage_c: float = 135.0
    sample_period_ms: int = 20


class PrinterPlant:
    """The physical printer, driven by the RAMPS outputs."""

    def __init__(self, sim: Simulator, profile: Optional[PlantProfile] = None) -> None:
        self.sim = sim
        self.profile = profile or PlantProfile()
        prof = self.profile

        self.axes: Dict[str, AxisMechanics] = {}
        for axis, spm in prof.steps_per_mm.items():
            limits = prof.travel_mm.get(axis, (None, None))
            self.axes[axis] = AxisMechanics(
                axis,
                spm,
                min_mm=limits[0],
                max_mm=limits[1],
                start_mm=prof.start_position_mm.get(axis, 0.0),
            )

        self.hotend = ThermalNode(
            sim,
            "hotend",
            prof.hotend_heat_capacity_j_per_k,
            prof.hotend_loss_w_per_k,
            ambient_c=prof.ambient_c,
            damage_temp_c=prof.hotend_damage_c,
        )
        self.bed = ThermalNode(
            sim,
            "bed",
            prof.bed_heat_capacity_j_per_k,
            prof.bed_loss_w_per_k,
            ambient_c=prof.ambient_c,
            damage_temp_c=prof.bed_damage_c,
        )

        self.fan_duty = 0.0
        self.fan_profile: List[Tuple[int, float]] = [(sim.now, 0.0)]

        self._trace = PartTrace()
        self._sample_period_ns = prof.sample_period_ms * MS
        self._next_sample_ns: Optional[int] = None  # None: not sampling

    # ------------------------------------------------------------------
    # Actuator-side interfaces (driven by the RAMPS model)
    # ------------------------------------------------------------------
    def motor_step(self, axis: str, direction: int, time_ns: int) -> None:
        """One accepted driver microstep on ``axis``."""
        try:
            mechanics = self.axes[axis]
        except KeyError:
            raise PlantError(f"unknown axis {axis!r}") from None
        mechanics.step(direction, time_ns)

    def can_batch_steps(self, axis: str, direction: int, count: int) -> bool:
        """True when ``count`` steps on ``axis`` can be applied in bulk."""
        mechanics = self.axes.get(axis)
        return mechanics is not None and mechanics.batch_ok(direction, count)

    def motor_step_batch(self, axis: str, direction: int, times_ns: np.ndarray) -> None:
        """Apply a :meth:`can_batch_steps`-approved run of microsteps at once."""
        try:
            mechanics = self.axes[axis]
        except KeyError:
            raise PlantError(f"unknown axis {axis!r}") from None
        mechanics.step_batch(direction, times_ns)

    def set_hotend_power(self, power_w: float, time_ns: int) -> None:
        self.hotend.set_power(power_w, time_ns)

    def set_bed_power(self, power_w: float, time_ns: int) -> None:
        self.bed.set_power(power_w, time_ns)

    def set_fan_duty(self, duty: float, time_ns: int) -> None:
        duty = min(1.0, max(0.0, duty))
        if duty != self.fan_duty:
            self.fan_duty = duty
            self.fan_profile.append((time_ns, duty))

    # ------------------------------------------------------------------
    # Sensor-side interfaces (read by the RAMPS model)
    # ------------------------------------------------------------------
    def position_mm(self, axis: str) -> float:
        return self.axes[axis].position_mm

    def hotend_temp_c(self) -> float:
        return self.hotend.temperature_c()

    def bed_temp_c(self) -> float:
        return self.bed.temperature_c()

    # ------------------------------------------------------------------
    # Deposition sampling
    # ------------------------------------------------------------------
    def start_sampling(self) -> None:
        """Begin recording the deposition trace (idempotent).

        Samples land on a grid: now, then every ``sample_period_ms``. No
        kernel event takes them — each axis records its position at the
        grid instants its steps pass (:meth:`AxisMechanics.step_batch`), so
        a sample at ``ts`` sees every step before ``ts`` and none at it.
        """
        if self._next_sample_ns is None:
            now = self.sim.now
            self._next_sample_ns = now
            for name in _SAMPLED_AXES:
                self.axes[name].start_grid(now, self._sample_period_ns)
            self._flush_samples()

    def stop_sampling(self) -> None:
        if self._next_sample_ns is not None:
            self._flush_samples()
            self._next_sample_ns = None
            for name in _SAMPLED_AXES:
                self.axes[name].stop_grid()

    @property
    def trace(self) -> PartTrace:
        """The deposition trace, holding every sample due by now."""
        self._flush_samples()
        return self._trace

    def _flush_samples(self) -> None:
        """Move every grid sample due by now from the axes into the trace."""
        first_ns = self._next_sample_ns
        if first_ns is None:
            return
        columns = [self.axes[name].take_grid(self.sim.now) for name in _SAMPLED_AXES]
        period = self._sample_period_ns
        next_ns = first_ns + len(columns[0]) * period
        self._trace.extend(range(first_ns, next_ns, period), *columns)
        self._next_sample_ns = next_ns

    # ------------------------------------------------------------------
    # Outcome summary
    # ------------------------------------------------------------------
    def mean_fan_duty(self, since_ns: int = 0) -> float:
        """Time-weighted average fan duty from ``since_ns`` to now."""
        end = self.sim.now
        if end <= since_ns:
            return self.fan_duty
        total = 0.0
        profile = self.fan_profile + [(end, self.fan_duty)]
        for (t0, duty), (t1, _) in zip(profile, profile[1:]):
            lo, hi = max(t0, since_ns), min(t1, end)
            if hi > lo:
                total += duty * (hi - lo)
        return total / (end - since_ns)

    @property
    def damaged(self) -> bool:
        """True if any heater crossed its damage threshold."""
        return self.hotend.damaged or self.bed.damaged

    def damage_summary(self) -> List[str]:
        lines = []
        for node in (self.hotend, self.bed):
            for event in node.damage_events:
                lines.append(
                    f"{event.node} exceeded damage threshold at "
                    f"{event.temperature_c:.1f}C (t={event.time_ns}ns)"
                )
        return lines
