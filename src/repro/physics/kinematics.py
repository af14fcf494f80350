"""Axis mechanics: motor microsteps → carriage position.

Each axis integrates signed steps into a physical position. Travel limits
model the hard frame: steps commanded past an end of travel do not move the
carriage (belts skip) and are recorded as crash steps — this is how runaway
Trojan moves manifest physically instead of teleporting the head.

Each axis also fills its share of the plant's deposition sample grid
(``origin + k * period``) as steps arrive, so sampling costs no kernel
events: a sample at ``ts`` sees every step with time strictly before ``ts``.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro.errors import PlantError

# Grid instant of an axis that is not sampling: later than any step time.
_NO_GRID = 1 << 62


class AxisMechanics:
    """One axis of the machine: position state plus step integration."""

    def __init__(
        self,
        name: str,
        steps_per_mm: float,
        min_mm: Optional[float] = None,
        max_mm: Optional[float] = None,
        start_mm: float = 0.0,
    ) -> None:
        if steps_per_mm <= 0:
            raise PlantError(f"steps_per_mm must be positive for axis {name}")
        if min_mm is not None and max_mm is not None and min_mm >= max_mm:
            raise PlantError(f"axis {name}: empty travel range [{min_mm}, {max_mm}]")
        self.name = name
        self.steps_per_mm = float(steps_per_mm)
        self.min_mm = min_mm
        self.max_mm = max_mm
        self.position_steps = round(start_mm * steps_per_mm)
        self.crash_steps = 0
        self.total_steps = 0
        self._listeners: List[Callable[[str, float, int], None]] = []
        self._range_oks: List[Optional[Callable[[float, float], bool]]] = []
        # Sample grid: positions (in steps) recorded at grid instants not yet
        # taken, the instant of the first of them, and the next to record.
        self._grid_steps: List[int] = []
        self._grid_first_ns = _NO_GRID
        self._grid_next_ns = _NO_GRID
        self._grid_period_ns = 1

    @property
    def position_mm(self) -> float:
        return self.position_steps / self.steps_per_mm

    def on_move(
        self,
        callback: Callable[[str, float, int], None],
        range_ok: Optional[Callable[[float, float], bool]] = None,
    ) -> None:
        """Subscribe ``callback(axis_name, position_mm, time_ns)`` to motion.

        ``range_ok(lo_mm, hi_mm)`` declares the listener insensitive to
        intermediate positions inside that span: when every accepted step
        of a monotonic run stays within [lo, hi] and range_ok approves,
        one callback at the final position is equivalent to one per step.
        Listeners without ``range_ok`` veto batching entirely.
        """
        self._listeners.append(callback)
        self._range_oks.append(range_ok)

    def start_grid(self, first_ns: int, period_ns: int) -> None:
        """Record the position at ``first_ns + k * period_ns`` for k = 0, 1, ..."""
        self._grid_steps = []
        self._grid_first_ns = self._grid_next_ns = first_ns
        self._grid_period_ns = period_ns

    def stop_grid(self) -> None:
        self._grid_steps = []
        self._grid_first_ns = self._grid_next_ns = _NO_GRID

    def _fill_grid(self, until_ns: int) -> None:
        """Record the current position at every grid instant ``<= until_ns``."""
        count = (until_ns - self._grid_next_ns) // self._grid_period_ns + 1
        self._grid_steps.extend([self.position_steps] * count)
        self._grid_next_ns += count * self._grid_period_ns

    def take_grid(self, until_ns: int) -> List[float]:
        """Positions (mm) at the untaken grid instants ``<= until_ns``, oldest first.

        Each sees every step with time before its instant, none at or after.
        """
        if until_ns < self._grid_first_ns:
            return []
        if until_ns >= self._grid_next_ns:
            self._fill_grid(until_ns)
        count = (until_ns - self._grid_first_ns) // self._grid_period_ns + 1
        taken = self._grid_steps[:count]
        del self._grid_steps[:count]
        self._grid_first_ns += count * self._grid_period_ns
        return [steps / self.steps_per_mm for steps in taken]

    def step(self, direction: int, time_ns: int) -> None:
        """Advance one microstep in ``direction`` (+1/-1), honouring limits."""
        if direction not in (1, -1):
            raise PlantError(f"axis {self.name}: step direction must be +1/-1, got {direction}")
        if time_ns >= self._grid_next_ns:
            self._fill_grid(time_ns)
        self.total_steps += 1
        candidate = self.position_steps + direction
        candidate_mm = candidate / self.steps_per_mm
        if self.min_mm is not None and candidate_mm < self.min_mm:
            self.crash_steps += 1
            return
        if self.max_mm is not None and candidate_mm > self.max_mm:
            self.crash_steps += 1
            return
        self.position_steps = candidate
        position_mm = candidate / self.steps_per_mm
        for listener in self._listeners:
            listener(self.name, position_mm, time_ns)

    def batch_ok(self, direction: int, count: int) -> bool:
        """Can ``count`` steps in ``direction`` be applied as one update?

        True only when (a) the whole monotonic run stays inside the travel
        limits — the end position suffices since every intermediate lies
        between start and end — and (b) every listener declared, via its
        ``range_ok``, that it cannot observe a transition inside the span.
        """
        if direction not in (1, -1):
            return False
        end = self.position_steps + direction * count
        end_mm = end / self.steps_per_mm
        if self.min_mm is not None and end_mm < self.min_mm:
            return False
        if self.max_mm is not None and end_mm > self.max_mm:
            return False
        start_mm = self.position_steps / self.steps_per_mm
        lo_mm = min(start_mm, end_mm)
        hi_mm = max(start_mm, end_mm)
        for range_ok in self._range_oks:
            if range_ok is None or not range_ok(lo_mm, hi_mm):
                return False
        return True

    def step_batch(self, direction: int, times_ns: np.ndarray) -> None:
        """Apply a run of accepted steps at ``times_ns`` (nondecreasing) at once.

        Only valid after :meth:`batch_ok` approved the same run — no limit
        clamping happens here, and listeners see only the final position, at
        the last step's time. Grid instants the run covers record the
        position after the steps strictly before them.
        """
        count = len(times_ns)
        last_ns = int(times_ns[-1])
        start = self.position_steps
        # A run spans at most one chunk window, so this loops a few times.
        next_ns = self._grid_next_ns
        while next_ns <= last_ns:
            before = int(times_ns.searchsorted(next_ns, side="left"))
            self._grid_steps.append(start + direction * before)
            next_ns += self._grid_period_ns
        self._grid_next_ns = next_ns
        self.total_steps += count
        self.position_steps = start + direction * count
        position_mm = self.position_steps / self.steps_per_mm
        for listener in self._listeners:
            listener(self.name, position_mm, last_ns)
