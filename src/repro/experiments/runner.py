"""PrintSession: assemble the full stack, print, and capture.

One session owns an entire simulated bench: kernel, harness, plant, RAMPS,
firmware, the OFFRAMPS board with its monitoring modules, optionally a
Trojan, optionally a signal tracer, and a pulse capture. ``run()`` executes
the print to completion (or kill/timeout), flushes the final UART
transaction, and returns a :class:`SessionResult` with everything the
experiments score.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.board import OfframpsBoard
from repro.core.capture import PulseCapture
from repro.core.fpga import FpgaFabric
from repro.core.modules.axis_tracker import AxisTracker
from repro.core.modules.homing_detect import HomingDetector
from repro.core.modules.trojan_ctrl import TrojanControl
from repro.core.modules.uart_export import UartExporter
from repro.core.trojans.base import Trojan, TrojanContext
from repro.electronics.harness import SignalHarness
from repro.electronics.pins import AXES
from repro.electronics.ramps import RampsBoard
from repro.electronics.uart import UartBus
from repro.errors import ReproError
from repro.firmware.config import MarlinConfig
from repro.firmware.marlin import MarlinFirmware, PrinterStatus
from repro.firmware.serial_host import SerialHost
from repro.gcode.ast import GcodeProgram
from repro.physics.printer import PlantProfile, PrinterPlant
from repro.sim.kernel import Simulator
from repro.sim.time import MS, S
from repro.sim.trace import Tracer

_CONTROL_SIGNALS = tuple(
    [f"{axis}_{fn}" for axis in AXES for fn in ("STEP", "DIR", "EN")]
    + ["D10_HOTEND", "D8_BED", "D9_FAN"]
)


@dataclass
class SessionResult:
    """Everything observable after one simulated print."""

    status: PrinterStatus
    kill_reason: Optional[str]
    duration_s: float
    events_dispatched: int
    capture: PulseCapture
    plant: PrinterPlant
    firmware: MarlinFirmware
    ramps: RampsBoard
    board: OfframpsBoard
    tracker: AxisTracker
    tracer: Optional[Tracer] = None
    trojan: Optional[Trojan] = None

    @property
    def completed(self) -> bool:
        return self.status is PrinterStatus.DONE

    @property
    def killed(self) -> bool:
        return self.status is PrinterStatus.KILLED

    @property
    def timed_out(self) -> bool:
        return self.status is PrinterStatus.TIMED_OUT

    @property
    def missed_steps(self) -> int:
        return self.ramps.total_missed_steps()

    def final_counts(self) -> Dict[str, int]:
        """Axis-tracker totals at end of print (the 0 %-margin quantities)."""
        return self.tracker.snapshot()


class PrintSession:
    """Builds the bench and runs exactly one print job."""

    def __init__(
        self,
        program: GcodeProgram,
        config: Optional[MarlinConfig] = None,
        plant_profile: Optional[PlantProfile] = None,
        trojan: Optional[Trojan] = None,
        trojan_seed: int = 0,
        uart_period_ms: int = 100,
        trace_signals: bool = False,
        use_host_protocol: bool = False,
        fast_path: bool = False,
    ) -> None:
        self.program = program
        self.sim = Simulator()
        self.harness = SignalHarness(self.sim)
        self.plant = PrinterPlant(self.sim, plant_profile)
        self.ramps = RampsBoard(self.sim, self.harness, self.plant, fast_path=fast_path)
        self.firmware = MarlinFirmware(
            self.sim, config or MarlinConfig(), self.harness, fast_path=fast_path
        )

        # The OFFRAMPS platform and its monitoring modules.
        self.fabric = FpgaFabric(self.sim)
        self.board = OfframpsBoard(self.sim, self.harness, self.fabric)
        self.homing_detector = HomingDetector(self.harness)
        self.tracker = AxisTracker(self.harness)
        self.uart_bus = UartBus()
        self.exporter = UartExporter(
            self.sim,
            self.tracker,
            self.homing_detector,
            bus=self.uart_bus,
            period_ms=uart_period_ms,
            fast_path=fast_path,
        )
        self.capture = PulseCapture(self.uart_bus)

        self.trojan_control = TrojanControl(
            TrojanContext(
                sim=self.sim,
                board=self.board,
                harness=self.harness,
                homing=self.homing_detector,
                seed=trojan_seed,
            )
        )
        self.trojan = trojan
        if trojan is not None:
            self.trojan_control.load(trojan)
            self.trojan_control.enable(trojan.trojan_id)

        self.tracer: Optional[Tracer] = None
        if trace_signals:
            self.tracer = Tracer()
            self.tracer.watch(self.harness.upstream(name) for name in _CONTROL_SIGNALS)

        self._use_host_protocol = use_host_protocol
        self._ran = False

    # ------------------------------------------------------------------
    def run(
        self,
        timeout_s: float = 900.0,
        grace_s: float = 1.0,
    ) -> SessionResult:
        """Execute the print; returns after teardown.

        ``grace_s`` keeps the simulation (and physics!) running after the
        firmware finishes or dies — long enough for the final UART
        transaction to flush, and for destructive Trojans to finish wrecking
        the hardware after the firmware's kill() (T7's whole point).
        """
        if self._ran:
            raise ReproError("a PrintSession can only run once")
        self._ran = True

        self.plant.start_sampling()
        if self._use_host_protocol:
            self.firmware.attach_source(SerialHost(self.program))
        else:
            self.firmware.start_print(self.program)

        deadline = int(timeout_s * S)
        chunk = 500 * MS
        while not self.firmware.finished and self.sim.now < deadline:
            self.sim.run_for(chunk)
        if not self.firmware.finished:
            # Surface the deadline distinctly: a print still PRINTING here
            # has exhausted its budget, not completed or been killed.
            self.firmware.timeout(f"print timed out after {timeout_s:g}s")
        self.sim.run_for(int(grace_s * S))

        duration_s = self.sim.now / 1e9
        # Teardown: stop periodic activity so the event queue can drain.
        self.exporter.stop()
        self.firmware.power_off()
        self.ramps.shutdown()
        self.plant.stop_sampling()
        if self.trojan is not None:
            self.trojan_control.disable(self.trojan.trojan_id)

        return SessionResult(
            status=self.firmware.status,
            kill_reason=self.firmware.kill_reason,
            duration_s=duration_s,
            events_dispatched=self.sim.events_dispatched,
            capture=self.capture,
            plant=self.plant,
            firmware=self.firmware,
            ramps=self.ramps,
            board=self.board,
            tracker=self.tracker,
            tracer=self.tracer,
            trojan=self.trojan,
        )


def run_print(
    program: GcodeProgram,
    noise_sigma: float = 0.0,
    noise_seed: int = 0,
    trojan: Optional[Trojan] = None,
    trojan_seed: int = 0,
    uart_period_ms: int = 100,
    grace_s: float = 1.0,
    trace_signals: bool = False,
    use_host_protocol: bool = False,
    config: Optional[MarlinConfig] = None,
    fast_path: bool = False,
) -> SessionResult:
    """Convenience wrapper: one call, one printed part, one result."""
    base_config = config or MarlinConfig()
    if noise_sigma > 0:
        base_config = base_config.with_noise(noise_sigma, noise_seed)
    session = PrintSession(
        program,
        config=base_config,
        trojan=trojan,
        trojan_seed=trojan_seed,
        uart_period_ms=uart_period_ms,
        trace_signals=trace_signals,
        use_host_protocol=use_host_protocol,
        fast_path=fast_path,
    )
    return session.run(grace_s=grace_s)
