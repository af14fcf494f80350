"""UART export unit: periodic step-count transactions to the host.

"With the analysis started, the UART control unit sends a 16-byte transaction
containing step counts for all of the motors each 0.1 seconds" (Section V-B),
and the counter "starts after the print head is homed and the first STEP edge
is found" — the synchronisation the paper credits with significantly
increased accuracy. Both behaviours are reproduced: the exporter arms on the
homing detector, begins its period at the first tracked step edge, and packs
each snapshot into a 16-byte frame on the UART bus.

On the fast path no kernel event takes a snapshot while every bus listener
is deferred (a :class:`~repro.core.capture.PulseCapture`): a
:class:`~repro.sim.kernel.SampleClock` keeps the export schedule, the
exporter keeps the runs of pulses the tracker counts, and it rebuilds each
snapshot at its instant ``t`` from the pulses before ``t``
(``searchsorted``, as the deposition sample grid does), sending the frames
of the instants passed when runs arrive, when a listener pulls and at
:meth:`UartExporter.stop`. Bulk step emission then runs through export
instants. A live listener (a
:class:`~repro.detection.realtime.StreamingDetector`, which may kill the
print mid-run) brings back one event per instant, from the next one on.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Tuple

import numpy as np

from repro.core.modules.axis_tracker import AxisTracker
from repro.core.modules.homing_detect import HomingDetector
from repro.electronics.pins import AXES
from repro.electronics.uart import UartBus, pack_step_counts
from repro.errors import OfframpsError
from repro.sim.kernel import PeriodicTask, SampleClock, Simulator
from repro.sim.time import MS

_Run = Tuple[int, Optional[np.ndarray], int]  # (last_ns, times_ns or None, signed count)

DEFAULT_PERIOD_MS = 100
"""The paper's 0.1 s transaction period."""


class UartExporter:
    """Streams axis-tracker snapshots as fixed-period UART transactions.

    By default one periodic kernel event takes and sends each snapshot.
    With ``fast_path`` the snapshots are rebuilt from the tracker's runs
    and sent late while every bus listener is deferred (see the module
    docstring); the frames, their times and their order are the same.
    """

    def __init__(
        self,
        sim: Simulator,
        tracker: AxisTracker,
        homing: HomingDetector,
        bus: Optional[UartBus] = None,
        period_ms: int = DEFAULT_PERIOD_MS,
        fast_path: bool = False,
    ) -> None:
        if period_ms <= 0:
            raise OfframpsError(f"UART period must be positive, got {period_ms}ms")
        self.sim = sim
        self.tracker = tracker
        self.bus = bus or UartBus()
        self.period_ms = period_ms
        self.transactions_sent = 0
        self._task: Optional[PeriodicTask] = None
        self._stopped = False
        # Fast path: the export schedule (None: no stream held back), the
        # next export instant not yet sent (None: no stream), each axis's
        # count before the oldest kept run, and the kept runs.
        self.fast_path = fast_path
        self._clock: Optional[SampleClock] = None
        self._next_ns: Optional[int] = None
        self._base: Dict[str, int] = dict.fromkeys(AXES, 0)
        self._runs: Dict[str, Deque[_Run]] = {axis: deque() for axis in AXES}
        if fast_path:
            tracker.on_run(self._on_run)
            self.bus.defer_sends(self._pull, self._go_live)
        homing.on_homed(self._on_homed)

    def _on_homed(self, time_ns: int) -> None:
        # The homed event fires *during* the endstop-triggering step event; in
        # hardware the counters reset on the following FPGA clock edge, so the
        # in-flight pulse must not be counted. Arm one tick later.
        def arm() -> None:
            if self._next_ns is not None:
                # A re-homing mid-stream: snapshots already passed count
                # the old run.
                self._pull()
                self._base = dict.fromkeys(AXES, 0)
                for runs in self._runs.values():
                    runs.clear()
            self.tracker.arm(self.sim.now)
            self.tracker.on_first_step(self._on_first_step)

        self.sim.schedule(1, arm)

    def _on_first_step(self, _time_ns: int) -> None:
        if self._task is not None or self._next_ns is not None or self._stopped:
            return
        if not self.fast_path:
            self._task = self.sim.every(self.period_ms * MS, self._export)
            return
        self._base = self.tracker.snapshot()
        self._clock = self.sim.clock(self.period_ms * MS)
        self._next_ns = self._clock.next_ns
        if self.bus.live:
            self._go_live()

    def _export(self) -> None:
        counts = self.tracker.snapshot()
        frame = pack_step_counts(counts["X"], counts["Y"], counts["Z"], counts["E"])
        self.bus.send(self.sim.now, frame)
        self.transactions_sent += 1

    # ------------------------------------------------------------------
    # Fast path: snapshots rebuilt from the tracker's runs
    # ------------------------------------------------------------------
    def _on_run(self, axis: str, last_ns: int, times_ns: Optional[np.ndarray], signed: int) -> None:
        if self._next_ns is None:
            return
        self._runs[axis].append((last_ns, times_ns, signed))
        # Every pulse before now has reached the tracker, and none of this
        # run is before an instant passed: those snapshots are final, and
        # sending them drops the runs they consumed.
        clock = self._clock
        if clock is not None and self._next_ns <= clock.last_ns:
            self._send_through(clock.last_ns)

    def _pull(self) -> None:
        if self._clock is not None:
            self._send_through(self._clock.last_ns)

    def _go_live(self) -> None:
        if self._clock is None:
            return
        self._pull()
        self._clock.hand_off(self._resume_exports)

    def _resume_exports(self) -> None:
        self._clock = None
        self._task = self.sim.every(self.period_ms * MS, self._send_due)
        self._send_due()

    def _send_due(self) -> None:
        self._send_through(self.sim.now)

    def _send_through(self, through_ns: int) -> None:
        """Send every snapshot due at or before ``through_ns``, in order."""
        period = self.period_ms * MS
        while self._next_ns <= through_ns:
            at = self._next_ns
            counts = [self._count_before(axis, at) for axis in AXES]
            self.bus.send(at, pack_step_counts(*counts))
            self.transactions_sent += 1
            self._next_ns = at + period

    def _count_before(self, axis: str, at_ns: int) -> int:
        """The axis count over every pulse before ``at_ns``; absorbs spent runs."""
        runs = self._runs[axis]
        base = self._base[axis]
        while runs and runs[0][0] < at_ns:
            base += runs.popleft()[2]
        self._base[axis] = base
        if runs:
            _last, times, signed = runs[0]
            if times is not None and times[0] < at_ns:
                before = int(times.searchsorted(at_ns))
                return base + (before if signed > 0 else -before)
        return base

    def stop(self) -> None:
        """End the export stream (end-of-print housekeeping)."""
        self._pull()
        self._stopped = True
        self._next_ns = None
        for runs in self._runs.values():
            runs.clear()
        if self._clock is not None:
            self._clock.cancel()
            self._clock = None
        if self._task is not None:
            self._task.cancel()
            self._task = None
