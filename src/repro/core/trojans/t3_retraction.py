"""Trojan T3 — retraction tampering ("Incorrect Slicing").

"Retraction refers to the amount of filament that is pulled back during
certain movements. By affecting extruder steps during some movements we can
cause over or under extrusion in a way that could appear to a user as if part
settings were incorrect when sliced."

Two modes, keyed to recent Y-axis motion (the paper's trigger: "filament
retraction during Y steps"):

* ``over`` — retraction-direction pulses are masked, so less filament is
  pulled back and the restart over-extrudes (the Table I photo's mode);
* ``under`` — each retraction pulse is doubled by injection, pulling back
  extra filament and starving the restart.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.board import TrojanAction
from repro.core.trojans.base import NO_PULSES, Trojan, TrojanCategory
from repro.electronics.harness import SignalPath
from repro.sim.time import MS

_Y_RECENT_WINDOW_NS = 200 * MS


class RetractionTrojan(Trojan):
    """Tamper with retraction-direction extruder pulses near Y motion."""

    trojan_id = "T3"
    category = TrojanCategory.PART_MODIFICATION
    scenario = "Incorrect Slicing"
    effect = "Increases or decreases filament retraction during Y steps"
    signals_intercepted = ("E_STEP",)

    def __init__(self, mode: str = "over", mask_fraction: float = 1.0) -> None:
        super().__init__()
        if mode not in ("over", "under"):
            raise ValueError(f"mode must be 'over' or 'under', got {mode!r}")
        if not 0.0 < mask_fraction <= 1.0:
            raise ValueError("mask_fraction must be in (0, 1]")
        self.mode = mode
        self.mask_fraction = mask_fraction
        self.retraction_pulses_affected = 0
        self._accumulator = 0.0
        self._last_y_step_ns = -(10**18)
        # The latest bulk run of Y pulses and the latest Y time before it,
        # until a single Y pulse supersedes them (see on_batch).
        self._y_run: Optional[Tuple[int, np.ndarray]] = None
        self._e_dir = None

    def _on_attach(self) -> None:
        self._e_dir = self.ctx.harness.upstream("E_DIR")
        # Batch-capable tap: a Y run is kept whole so on_batch can order it
        # against the E pulses of the same chunk.
        self.ctx.harness.upstream("Y_STEP").on_pulse(
            self._note_y_step, batch=self._note_y_batch
        )

    def _note_y_step(self, _wire, time_ns: int, _width_ns: int) -> None:
        self._last_y_step_ns = time_ns
        self._y_run = None

    def _note_y_batch(self, _wire, times_ns, _width_ns: int) -> None:
        self._y_run = (self._last_y_step_ns, times_ns)
        self._last_y_step_ns = int(times_ns[-1])

    def _y_recent(self, time_ns: int) -> bool:
        return time_ns - self._last_y_step_ns <= _Y_RECENT_WINDOW_NS

    def on_event(
        self, path: SignalPath, kind: str, value: float, time_ns: int
    ) -> Optional[TrojanAction]:
        if not self.active or kind != "pulse":
            return None
        if self._e_dir.value != 0:
            return None  # only retraction-direction pulses are targeted
        if not self._y_recent(time_ns):
            return None
        self._accumulator += self.mask_fraction
        if self._accumulator < 1.0:
            return None
        self._accumulator -= 1.0
        self.retraction_pulses_affected += 1
        if self.mode == "over":
            return TrojanAction.drop()  # weaker retraction -> over-extrusion
        # "under": double the retraction by injecting a twin pulse. DIR is
        # already reverse, so the injected pulse also retracts.
        self.ctx.board.inject_pulse("E_STEP", int(value))
        return None

    def on_batch(
        self, path: SignalPath, times_ns: np.ndarray, width_ns: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`on_event` for a run of E pulses, which share one E_DIR level.

        A stepper chunk delivers its Y run before its E run, so the latest
        Y time may lie past an E pulse. Per pulse, the E pulse at ``t`` has
        seen exactly the Y pulses at or before ``t`` (a Y pulse of the same
        step event comes first), so recency is measured from the latest Y
        time ``<= t``. Every Y pulse before the current chunk is at or
        before its first E pulse, so only the latest Y run needs searching.
        """
        if not self.active or self._e_dir.value != 0:
            return times_ns, NO_PULSES
        if self._y_run is None:
            last_y = self._last_y_step_ns
        else:
            before, y_times = self._y_run
            seen = np.searchsorted(y_times, times_ns, side="right")
            last_y = np.where(seen > 0, y_times[np.maximum(seen - 1, 0)], before)
        recent = np.flatnonzero(times_ns - last_y <= _Y_RECENT_WINDOW_NS)
        accumulator = self._accumulator
        mask_fraction = self.mask_fraction
        affected = []
        for index in recent.tolist():
            accumulator += mask_fraction
            if accumulator >= 1.0:
                accumulator -= 1.0
                affected.append(index)
        self._accumulator = accumulator
        self.retraction_pulses_affected += len(affected)
        if not affected:
            return times_ns, NO_PULSES
        if self.mode == "over":
            return np.delete(times_ns, affected), NO_PULSES
        return times_ns, times_ns[affected]
