"""Trojan T2 — constant under-extrusion ("Incorrect Slicing").

"The Trojaned part was printed while masking half of extruder stepper motor
pulses sent to the RAMPS board, reducing the flow and amount of material
extruded by 50%. This implements reduction Trojans from Flaw3D."

Deposition pulses are kept with probability ``keep_fraction`` using an exact
accumulator, so the realised flow ratio equals the parameter. Retraction and
its matching re-prime are left untouched: a retraction-debt counter
(reverse pulses add debt, forward pulses first pay it down) distinguishes a
prime from fresh deposition at pure signal level — masking primes would
desynchronise the retraction state rather than starve the part.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.board import TrojanAction
from repro.core.trojans.base import NO_PULSES, Trojan, TrojanCategory
from repro.electronics.harness import SignalPath


class ExtrusionScaleTrojan(Trojan):
    """Mask a fraction of forward extruder STEP pulses."""

    trojan_id = "T2"
    category = TrojanCategory.PART_MODIFICATION
    scenario = "Incorrect Slicing"
    effect = "Constant over / under extrusion per print"
    signals_intercepted = ("E_STEP",)

    def __init__(self, keep_fraction: float = 0.5) -> None:
        super().__init__()
        if not 0.0 < keep_fraction <= 1.0:
            raise ValueError(f"keep_fraction must be in (0, 1], got {keep_fraction}")
        self.keep_fraction = keep_fraction
        self._accumulator = 0.0
        self._retraction_debt = 0
        self.pulses_masked = 0
        self.pulses_kept = 0
        self._e_dir = None

    def _on_attach(self) -> None:
        self._e_dir = self.ctx.harness.upstream("E_DIR")

    def on_event(
        self, path: SignalPath, kind: str, value: float, time_ns: int
    ) -> Optional[TrojanAction]:
        if not self.active or kind != "pulse":
            return None
        if self._e_dir.value == 0:
            self._retraction_debt += 1
            return None  # retraction: pass through
        if self._retraction_debt > 0:
            self._retraction_debt -= 1
            return None  # re-prime after a retraction: pass through
        self._accumulator += self.keep_fraction
        if self._accumulator >= 1.0:
            self._accumulator -= 1.0
            self.pulses_kept += 1
            return None
        self.pulses_masked += 1
        return TrojanAction.drop()

    def on_batch(
        self, path: SignalPath, times_ns: np.ndarray, width_ns: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`on_event` for a run of E pulses, which share one E_DIR level."""
        if not self.active:
            return times_ns, NO_PULSES
        count = len(times_ns)
        if self._e_dir.value == 0:
            self._retraction_debt += count
            return times_ns, NO_PULSES
        primes = min(self._retraction_debt, count)
        self._retraction_debt -= primes
        accumulator = self._accumulator
        keep_fraction = self.keep_fraction
        masked = []
        for index in range(primes, count):
            accumulator += keep_fraction
            if accumulator >= 1.0:
                accumulator -= 1.0
            else:
                masked.append(index)
        self._accumulator = accumulator
        self.pulses_masked += len(masked)
        self.pulses_kept += count - primes - len(masked)
        if not masked:
            return times_ns, NO_PULSES
        return np.delete(times_ns, masked), NO_PULSES
