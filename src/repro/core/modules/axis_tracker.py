"""Axis-tracking module: signed step counters per motor.

"This consists of a set of rising edge detectors and counters, which
increment for each STEP rising edge when DIR dictated that the motors were
moving in the positive direction and decrement when they moved negatively"
(Section V-B). Counters are zeroed when the homing detector fires, so they
represent absolute position within the build volume (in steps) and total
extruded filament — the columns of Figure 4.

The tracker taps the *upstream* (Arduino-side) wires: it records what the
firmware commanded, which is exactly why it detects Trojans acting at or
before the firmware (Flaw3D, dr0wned) — their edits are visible in the
command stream itself.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.electronics.harness import SignalHarness
from repro.electronics.pins import AXES


RunListener = Callable[[str, int, Optional[np.ndarray], int], None]


class AxisTracker:
    """Signed step counters for X/Y/Z/E, synchronised to homing."""

    def __init__(self, harness: SignalHarness) -> None:
        self.counts: Dict[str, int] = dict.fromkeys(AXES, 0)
        self.armed = False
        self.first_step_ns: int = -1
        self._dir_wires = {axis: harness.upstream(f"{axis}_DIR") for axis in AXES}
        self._first_step_listeners: List[Callable[[int], None]] = []
        self._on_run: Optional[RunListener] = None
        for axis in AXES:
            harness.upstream(f"{axis}_STEP").on_pulse(
                self._make_handler(axis),
                batch=self._make_batch_handler(axis),
                ready=self._batch_ready,
            )

    def _make_handler(self, axis: str):
        dir_wire = self._dir_wires[axis]

        def handle(_wire, time_ns: int, _width_ns: int) -> None:
            if not self.armed:
                return
            step = 1 if dir_wire.value else -1
            self.counts[axis] += step
            on_run = self._on_run
            if on_run is not None:
                on_run(axis, time_ns, None, step)
            if self.first_step_ns < 0:
                self.first_step_ns = time_ns
                for listener in list(self._first_step_listeners):
                    listener(time_ns)

        return handle

    def _batch_ready(self, _count: int) -> bool:
        # The first armed step fires listeners that schedule kernel events
        # (the UART export sync) — that pulse must dispatch individually.
        return not self.armed or self.first_step_ns >= 0

    def _make_batch_handler(self, axis: str):
        dir_wire = self._dir_wires[axis]

        def handle(_wire, times_ns, _width_ns: int) -> None:
            if not self.armed:
                return
            count = len(times_ns)
            signed = count if dir_wire.value else -count
            self.counts[axis] += signed
            on_run = self._on_run
            if on_run is not None:
                on_run(axis, int(times_ns[-1]), times_ns, signed)

        return handle

    # ------------------------------------------------------------------
    def arm(self, _time_ns: int = 0) -> None:
        """Zero the counters and start counting (wired to the homed event)."""
        self.counts = dict.fromkeys(AXES, 0)
        self.first_step_ns = -1
        self.armed = True

    def on_run(self, callback: "RunListener") -> None:
        """Report every counted run: ``callback(axis, last_ns, times_ns, signed)``.

        ``times_ns`` is the run's (unmodified) pulse-time array, or None for
        a single pulse at ``last_ns``; ``signed`` is the change it made to
        the axis count. Runs arrive after their counts, in the order the
        wires emit them, so each axis's runs are in time order.
        """
        self._on_run = callback

    def on_first_step(self, callback: Callable[[int], None]) -> None:
        """Subscribe to the first STEP edge after arming (UART sync point)."""
        self._first_step_listeners.append(callback)
        if self.first_step_ns >= 0:
            callback(self.first_step_ns)

    def snapshot(self) -> Dict[str, int]:
        """Copy of the current counters."""
        return dict(self.counts)
