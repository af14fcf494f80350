"""A4988 stepper driver model.

The RAMPS ships with socketed A4988 drivers (the paper used the defaults).
The behaviour that matters at the harness level: a STEP pulse advances the
motor one microstep in the direction selected by DIR, but **only while the
active-low EN input is asserted** — Trojan T8 exploits exactly that gate.
Microstep resolution is set by the RAMPS configuration jumpers (1/16 default).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.errors import ElectronicsError
from repro.sim.signals import DigitalWire, StepWire

VALID_MICROSTEPS = (1, 2, 4, 8, 16)


class A4988Driver:
    """One stepper driver channel: STEP/DIR/EN in, motor microsteps out.

    ``on_step(direction, time_ns)`` is invoked per accepted pulse with
    ``direction`` ∈ {+1, -1}; ``on_step_batch(direction, times_ns)`` takes a
    run of accepted pulses approved by ``on_step_ready(direction, count)``.
    Pulses arriving while disabled are counted in ``missed_steps`` — the
    physical motor did not move, which is how the plant observes T8's
    sabotage.
    """

    def __init__(
        self,
        name: str,
        step: StepWire,
        direction: DigitalWire,
        enable: DigitalWire,
        on_step: Callable[[int, int], None],
        microsteps: int = 16,
        invert_direction: bool = False,
        on_step_batch: Optional[Callable[[int, np.ndarray], None]] = None,
        on_step_ready: Optional[Callable[[int, int], bool]] = None,
    ) -> None:
        if microsteps not in VALID_MICROSTEPS:
            raise ElectronicsError(f"A4988 microstep setting must be one of {VALID_MICROSTEPS}")
        self.name = name
        self.microsteps = microsteps
        self.invert_direction = invert_direction
        self._direction_wire = direction
        self._enable_wire = enable
        self._on_step = on_step
        self._on_step_batch = on_step_batch
        self._on_step_ready = on_step_ready
        self.steps_taken = 0
        self.missed_steps = 0
        step.on_pulse(
            self._handle_pulse,
            batch=self._handle_pulse_batch,
            ready=self._pulse_batch_ready,
        )

    @property
    def enabled(self) -> bool:
        """EN is active low: 0 on the wire means the driver is engaged."""
        return self._enable_wire.value == 0

    @property
    def direction(self) -> int:
        """+1 or -1 according to the DIR level (and wiring inversion)."""
        positive = bool(self._direction_wire.value) != self.invert_direction
        return 1 if positive else -1

    def _handle_pulse(self, _wire: StepWire, time_ns: int, _width_ns: int) -> None:
        if not self.enabled:
            self.missed_steps += 1
            return
        self.steps_taken += 1
        self._on_step(self.direction, time_ns)

    def _pulse_batch_ready(self, count: int) -> bool:
        # EN and DIR are level signals driven by kernel events; a batch spans
        # an event-free window, so both are constant across its pulses.
        if not self.enabled:
            return True  # the whole run is missed steps — trivially bulkable
        if self._on_step_batch is None or self._on_step_ready is None:
            return False
        return self._on_step_ready(self.direction, count)

    def _handle_pulse_batch(self, _wire: StepWire, times_ns, _width_ns: int) -> None:
        count = len(times_ns)
        if not self.enabled:
            self.missed_steps += count
            return
        self.steps_taken += count
        self._on_step_batch(self.direction, times_ns)
