"""Trojan base class and shared context.

Each Table I Trojan is a small event-driven module: it may *intercept*
signals routed through the FPGA (returning drop/replace/pass actions to the
mux) and it may *inject* events the Arduino never produced. Activation
triggers commonly key off the homing detector — "the first action taken at
the start of print and can determine when to activate Trojans".
"""

from __future__ import annotations

import enum
import random
import zlib
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro.core.board import OfframpsBoard, TrojanAction
from repro.core.modules.homing_detect import HomingDetector
from repro.electronics.harness import SignalHarness, SignalPath
from repro.errors import OfframpsError
from repro.sim.kernel import Simulator


NO_PULSES = np.empty(0, dtype=np.int64)
"""The empty pulse run: what a batch handler injects when it injects nothing."""


class TrojanCategory(enum.Enum):
    """Table I's Trojan taxonomy."""

    PART_MODIFICATION = "PM"
    DENIAL_OF_SERVICE = "DoS"
    DESTRUCTIVE = "D"


@dataclass
class TrojanContext:
    """Everything a Trojan may touch, handed over at attach time."""

    sim: Simulator
    board: OfframpsBoard
    harness: SignalHarness
    homing: HomingDetector
    seed: int = 0

    def rng_for(self, trojan_id: str) -> random.Random:
        """A deterministic per-Trojan RNG (reproducible experiments).

        The id is mixed in via CRC-32, not ``hash()``: string hashing is
        randomized per process (PYTHONHASHSEED), which used to make every
        stochastic Trojan's draws differ from run to run — the exact
        irreproducibility the seed exists to prevent.
        """
        return random.Random((self.seed << 8) ^ zlib.crc32(trojan_id.encode()))


class Trojan:
    """Base class for the Table I Trojans."""

    trojan_id: str = "T?"
    category: TrojanCategory = TrojanCategory.PART_MODIFICATION
    scenario: str = ""
    effect: str = ""
    signals_intercepted: Tuple[str, ...] = ()

    # Optional bulk form of :meth:`on_event` for a run of intercepted STEP
    # pulses, ``on_batch(path, times_ns, width_ns) -> (passed, injected)``
    # (see :meth:`OfframpsBoard.register_interceptor`). Without it the mux
    # offers this Trojan every pulse individually.
    on_batch: Optional[Callable] = None

    def __init__(self) -> None:
        self.ctx: Optional[TrojanContext] = None
        self.rng: Optional[random.Random] = None
        self.active = False
        self.activations = 0

    # ------------------------------------------------------------------
    def attach(self, ctx: TrojanContext) -> None:
        """Bind the Trojan to a platform; called once by TrojanControl."""
        if self.ctx is not None:
            raise OfframpsError(f"{self.trojan_id} is already attached")
        self.ctx = ctx
        self.rng = ctx.rng_for(self.trojan_id)
        self._on_attach()

    def activate(self) -> None:
        if self.ctx is None:
            raise OfframpsError(f"{self.trojan_id} must be attached before activation")
        if not self.active:
            self.active = True
            self.activations += 1
            self._on_activate()

    def deactivate(self) -> None:
        if self.active:
            self.active = False
            self._on_deactivate()

    # ------------------------------------------------------------------
    # Hooks for subclasses
    # ------------------------------------------------------------------
    def _on_attach(self) -> None:
        """Install passive taps (runs once, before any activation)."""

    def _on_activate(self) -> None:
        """Begin malicious behaviour."""

    def _on_deactivate(self) -> None:
        """Cease malicious behaviour and restore pass-through state."""

    def on_event(
        self, path: SignalPath, kind: str, value: float, time_ns: int
    ) -> Optional[TrojanAction]:
        """Mux callback for intercepted signals; default is pass-through."""
        return None

    # ------------------------------------------------------------------
    def describe(self) -> str:
        return (
            f"{self.trojan_id} [{self.category.value}] scenario={self.scenario!r} "
            f"effect={self.effect!r}"
        )
