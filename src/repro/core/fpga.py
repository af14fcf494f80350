"""FPGA fabric model: clocking and propagation for the Cmod-A7 stand-in.

The real OFFRAMPS deploys VHDL modules on an Artix-7 at 100 MHz. The
behaviours that matter to the system are (a) the fabric observes and drives
signals with a small, bounded latency, and (b) Trojan logic can act at
FPGA-clock resolution, e.g. inserting pulses *between* original step pulses.
Both are captured here: event times are quantised to the 10 ns clock and
forwarded signals incur a configurable propagation delay, defaulting to the
paper's measured worst case of 12.923 ns (rounded to the nearest kernel
tick, 13 ns, and never below 1 ns).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import OfframpsError
from repro.sim.kernel import Simulator

FPGA_CLOCK_HZ = 100_000_000
"""The Cmod-A7 design clock used by the paper."""

FPGA_CLOCK_PERIOD_NS = 10

MAX_PROPAGATION_DELAY_NS = 12.923
"""The paper's reported worst-case MITM propagation delay (on Y_DIR)."""


class FpgaFabric:
    """Clock-domain utilities shared by all OFFRAMPS modules."""

    def __init__(self, sim: Simulator, propagation_delay_ns: float = MAX_PROPAGATION_DELAY_NS) -> None:
        if propagation_delay_ns < 0:
            raise OfframpsError("propagation delay cannot be negative")
        self.sim = sim
        self.propagation_delay_ns = float(propagation_delay_ns)
        self.delay_ns = max(1, int(round(self.propagation_delay_ns)))
        self.forwarded_events = 0

    def quantize(self, time_ns: int) -> int:
        """Round ``time_ns`` up to the next FPGA clock edge."""
        remainder = time_ns % FPGA_CLOCK_PERIOD_NS
        return time_ns if remainder == 0 else time_ns + (FPGA_CLOCK_PERIOD_NS - remainder)

    def forward(self, action: Callable[[], None]) -> None:
        """Run ``action`` after the fabric's propagation delay.

        Used by the board to drive downstream wires: the delay is what the
        overhead analysis (Section V-B) budgets against the signal timing.
        """
        self.forwarded_events += 1
        self.sim.schedule(self.delay_ns, action)

    def forward_times(self, times_ns: np.ndarray) -> np.ndarray:
        """Downstream times of a run of pulses forwarded in bulk.

        Counts and delays each pulse exactly as one :meth:`forward` per
        pulse would; the caller delivers the run.
        """
        self.forwarded_events += len(times_ns)
        return times_ns + self.delay_ns

    def at_next_tick(self, action: Callable[[], None]) -> None:
        """Run ``action`` on the next clock edge (module-to-module timing)."""
        target = self.quantize(self.sim.now + 1)
        self.sim.schedule_at(target, action)
