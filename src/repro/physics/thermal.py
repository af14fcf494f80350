"""First-order thermal dynamics with exact integration between power changes.

A heater block is modelled as a lumped thermal mass ``C`` (J/K) losing heat
to ambient through conductance ``k`` (W/K). Between power changes the
temperature follows the exact exponential solution, so the model is both fast
(no fixed-step ODE integration) and exact regardless of event spacing:

    T(t) = T_inf + (T0 - T_inf) * exp(-(t - t0) / tau),
    T_inf = T_ambient + P / k,   tau = C / k.

Damage crossings (the destructive outcome of Trojan T7) are detected by
solving for the crossing time analytically and scheduling an event there, so
no overshoot is missed between samples.

A node can also be read on a sample grid without a kernel event per sample
(:meth:`ThermalNode.start_grid`, on a :class:`~repro.sim.kernel.SampleClock`):
the RAMPS thermistor refresh on the fast path. Between two power changes the trajectory is monotone, so only the
first grid instant of a cooling segment and the last of any segment can
raise ``peak_temp_c``; those, and the instants actually read, are the only
ones evaluated, and the peak ends bit-identical to sampling every instant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import PlantError
from repro.sim.kernel import EventHandle, SampleClock, Simulator


@dataclass(frozen=True)
class DamageEvent:
    """The heater crossed its damage threshold — hardware is being destroyed."""

    node: str
    time_ns: int
    temperature_c: float


class ThermalNode:
    """One lumped heater: the hotend block or the heated bed."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        heat_capacity_j_per_k: float,
        loss_w_per_k: float,
        ambient_c: float = 25.0,
        damage_temp_c: Optional[float] = None,
        initial_c: Optional[float] = None,
    ) -> None:
        if heat_capacity_j_per_k <= 0 or loss_w_per_k <= 0:
            raise PlantError(f"thermal node {name}: C and k must be positive")
        self.sim = sim
        self.name = name
        self.heat_capacity = float(heat_capacity_j_per_k)
        self.loss = float(loss_w_per_k)
        self.ambient_c = float(ambient_c)
        self.damage_temp_c = damage_temp_c
        self.damage_events: List[DamageEvent] = []

        self._t0_ns = sim.now
        self._temp0_c = float(initial_c) if initial_c is not None else self.ambient_c
        self._power_w = 0.0
        self._peak_c = self._temp0_c
        self._damage_handle: Optional[EventHandle] = None
        # Sample grid (clock None: not sampling): the next instant not yet
        # taken, the temperature at the latest instant taken, and whether
        # the current segment has had its first instant taken.
        self._grid_clock: Optional[SampleClock] = None
        self._grid_next_ns = 0
        self._grid_temp_c = self._temp0_c
        self._grid_segment_open = False

    # ------------------------------------------------------------------
    @property
    def tau_s(self) -> float:
        """Thermal time constant in seconds."""
        return self.heat_capacity / self.loss

    @property
    def power_w(self) -> float:
        return self._power_w

    @property
    def steady_state_c(self) -> float:
        """Temperature the node converges to under the current power."""
        return self.ambient_c + self._power_w / self.loss

    @property
    def peak_temp_c(self) -> float:
        """Highest temperature read so far, grid instants already past included."""
        if self._grid_clock is not None:
            self._take_grid(self._grid_clock.last_ns)
        return self._peak_c

    def temperature_c(self, time_ns: Optional[int] = None) -> float:
        """Exact temperature at ``time_ns`` (default: now)."""
        t_ns = self.sim.now if time_ns is None else time_ns
        if t_ns < self._t0_ns:
            raise PlantError(f"thermal node {self.name}: query at t={t_ns} before state t0")
        dt_s = (t_ns - self._t0_ns) / 1e9
        t_inf = self.steady_state_c
        temp = t_inf + (self._temp0_c - t_inf) * math.exp(-dt_s / self.tau_s)
        if temp > self._peak_c:
            self._peak_c = temp
        return temp

    def set_power(self, power_w: float, time_ns: Optional[int] = None) -> None:
        """Change the applied heater power; re-anchors the exact solution."""
        if power_w < 0:
            raise PlantError(f"thermal node {self.name}: negative power {power_w}W")
        t_ns = self.sim.now if time_ns is None else time_ns
        # Grid instants already past belong to the old segment; one at
        # exactly t_ns that has not passed yet is taken after this change.
        if self._grid_clock is not None:
            self._take_grid(min(t_ns, self._grid_clock.last_ns))
        self._temp0_c = self.temperature_c(t_ns)
        self._t0_ns = t_ns
        self._power_w = float(power_w)
        self._grid_segment_open = False
        self._schedule_damage_check()

    # ------------------------------------------------------------------
    # Sample grid
    # ------------------------------------------------------------------
    def start_grid(self, clock: SampleClock) -> None:
        """Sample the temperature now and at each instant of ``clock``, lazily.

        No kernel event takes a sample: :meth:`grid_temperature_c` returns
        the temperature at ``clock.last_ns``, and a power change or a
        ``peak_temp_c`` read first takes every instant already passed. Each
        instant reads as if the clock's periodic task had read
        :meth:`temperature_c` there, ``peak_temp_c`` included.
        """
        self._grid_clock = clock
        self._grid_next_ns = clock.last_ns
        self._grid_segment_open = False
        self._take_grid(clock.last_ns)

    def stop_grid(self) -> None:
        """Take every instant already passed and stop sampling."""
        if self._grid_clock is not None:
            self._take_grid(self._grid_clock.last_ns)
            self._grid_clock = None

    def grid_temperature_c(self) -> float:
        """Temperature at the latest grid instant passed."""
        if self._grid_clock is not None:
            self._take_grid(self._grid_clock.last_ns)
        return self._grid_temp_c

    def _take_grid(self, through_ns: int) -> None:
        first = self._grid_next_ns
        if through_ns < first:
            return
        period = self._grid_clock.period_ns
        last = first + (through_ns - first) // period * period
        if not self._grid_segment_open:
            self._grid_segment_open = True
            if self._temp0_c > self.steady_state_c:
                # A cooling segment peaks at its first instant.
                self.temperature_c(first)
        self._grid_temp_c = self.temperature_c(last)
        self._grid_next_ns = last + period

    # ------------------------------------------------------------------
    # Damage-threshold crossing
    # ------------------------------------------------------------------
    def _schedule_damage_check(self) -> None:
        if self._damage_handle is not None:
            self._damage_handle.cancel()
            self._damage_handle = None
        if self.damage_temp_c is None or self.damage_events:
            return
        crossing_ns = self._crossing_time_ns(self.damage_temp_c)
        if crossing_ns is not None:
            self._damage_handle = self.sim.schedule_at(crossing_ns, self._record_damage)

    def _crossing_time_ns(self, threshold_c: float) -> Optional[int]:
        """Absolute time the trajectory first reaches ``threshold_c``, if ever."""
        t_inf = self.steady_state_c
        if self._temp0_c >= threshold_c:
            return self._t0_ns
        if t_inf <= threshold_c:
            return None  # never reaches it under the current power
        ratio = (threshold_c - t_inf) / (self._temp0_c - t_inf)
        dt_s = -self.tau_s * math.log(ratio)
        return self._t0_ns + int(dt_s * 1e9) + 1

    def _record_damage(self) -> None:
        temp = self.temperature_c()
        self.damage_events.append(DamageEvent(self.name, self.sim.now, temp))

    @property
    def damaged(self) -> bool:
        """True once the node has crossed its damage threshold."""
        return bool(self.damage_events)
