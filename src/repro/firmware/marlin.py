"""The firmware top level: G-code dispatch, waits, kill, print lifecycle.

:class:`MarlinFirmware` glues the planner, stepper, heater controllers, and
homing controller into the machine a host talks to. It pulls parsed commands
from a source (a program iterator or a :class:`~repro.firmware.serial_host.
SerialHost`), honours planner backpressure, implements the blocking commands
(G4, G28, M109, M190), and provides Marlin's ``kill()`` semantics: on a
protection fault everything the *firmware* controls stops — which, as the
paper demonstrates with Trojan T7, is not necessarily everything the
*hardware* does.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Iterator, List, Optional

from repro.electronics.harness import SignalHarness
from repro.errors import FirmwareError
from repro.firmware.config import MarlinConfig
from repro.firmware.endstops import HomingController
from repro.firmware.planner import AXES, MotionPlanner
from repro.firmware.state import MachineState
from repro.firmware.stepper import StepperExecutor
from repro.firmware.temperature import HeaterController
from repro.gcode.ast import Command, GcodeProgram
from repro.sim.kernel import PeriodicTask, Simulator
from repro.sim.time import MS, US

_WAIT_POLL_MS = 100


class PrinterStatus(enum.Enum):
    """Print-job lifecycle states.

    ``FAILED`` is never entered by the firmware itself: it marks a session
    whose *execution* raised (bad spec, worker crash) at the batch layer,
    so a failed print session can be reported alongside real outcomes
    instead of aborting a whole batch.
    """

    IDLE = "idle"
    PRINTING = "printing"
    DONE = "done"
    KILLED = "killed"
    TIMED_OUT = "timed_out"
    FAILED = "failed"


class MarlinFirmware:
    """A Marlin-like controller bound to one harness."""

    def __init__(
        self,
        sim: Simulator,
        config: MarlinConfig,
        harness: SignalHarness,
        fast_path: bool = False,
    ) -> None:
        self.sim = sim
        self.config = config
        self.harness = harness
        self.state = MachineState(config)
        self.planner = MotionPlanner(config)
        self.stepper = StepperExecutor(sim, config, harness, self.planner, fast_path=fast_path)
        self.homing = HomingController(sim, config, harness, self.stepper, self.state)

        self.hotend = HeaterController(
            sim,
            "hotend",
            sensor=harness.downstream("T0_HOTEND"),
            gate=harness.upstream("D10_HOTEND"),
            gains=config.hotend_pid,
            maxtemp_c=config.hotend_maxtemp_c,
            config=config,
            on_kill=self.kill,
        )
        self.bed = HeaterController(
            sim,
            "bed",
            sensor=harness.downstream("T1_BED"),
            gate=harness.upstream("D8_BED"),
            gains=config.bed_pid,
            maxtemp_c=config.bed_maxtemp_c,
            config=config,
            on_kill=self.kill,
        )
        self._fan_gate = harness.upstream("D9_FAN")

        self.status = PrinterStatus.IDLE
        self.kill_reason: Optional[str] = None
        self.log: List[str] = []
        self.on_complete: List[Callable[[], None]] = []
        self.on_kill: List[Callable[[str], None]] = []

        self._source: Optional[Iterator[Command]] = None
        self._pending: Optional[Command] = None  # command stalled on backpressure
        self._waiting = False
        self._wait_task: Optional[PeriodicTask] = None
        self._heater_task: Optional[PeriodicTask] = None
        self._powered = False
        self.commands_processed = 0
        self._allow_cold_extrusion = config.allow_cold_extrusion

        self._handlers: Dict[str, Callable[[Command], None]] = {
            "G0": self._g_move,
            "G1": self._g_move,
            "G4": self._g_dwell,
            "G28": self._g_home,
            "G90": lambda cmd: self._set_abs_coords(True),
            "G91": lambda cmd: self._set_abs_coords(False),
            "G92": self._g_set_position,
            "M82": lambda cmd: self._set_abs_e(True),
            "M83": lambda cmd: self._set_abs_e(False),
            "M84": self._m_disable_steppers,
            "M18": self._m_disable_steppers,
            "M17": lambda cmd: self.stepper.enable_steppers(),
            "M104": self._m_set_hotend,
            "M109": self._m_wait_hotend,
            "M140": self._m_set_bed,
            "M190": self._m_wait_bed,
            "M105": self._m_report_temps,
            "M106": self._m_fan_on,
            "M107": lambda cmd: self._set_fan(0.0),
            "M112": lambda cmd: self.kill("Emergency stop (M112)"),
            "M114": self._m_report_position,
            "M204": self._m_set_accel,
            "M220": self._m_feedrate_percent,
            "M221": self._m_flow_percent,
            "M302": self._m_cold_extrusion,
            "M110": lambda cmd: None,  # line-number reset: handled by the host layer
        }
        self._accel_override: Optional[float] = None

        self.stepper.on_block_done.append(self._on_stepper_progress)

    # ------------------------------------------------------------------
    # Power and lifecycle
    # ------------------------------------------------------------------
    def power_on(self) -> None:
        """Start the periodic controllers (thermistor ticks, PID loops).

        On the fast path one task ticks the hotend then the bed, the order
        in which their two tasks, armed back to back, fire on the precise
        path.
        """
        if not self._powered:
            if self.stepper.fast_path:
                self._heater_task = self.sim.every(
                    self.config.temp_control_period_ms * MS, self._tick_heaters
                )
            else:
                self.hotend.start()
                self.bed.start()
            self._powered = True

    def _tick_heaters(self) -> None:
        self.hotend.tick()
        self.bed.tick()

    def power_off(self) -> None:
        """Stop periodic controllers so the event queue can drain."""
        self.hotend.stop()
        self.bed.stop()
        if self._heater_task is not None:
            self._heater_task.cancel()
            self._heater_task = None
        if self._wait_task is not None:
            self._wait_task.cancel()
            self._wait_task = None
        self._powered = False

    def start_print(self, program: GcodeProgram) -> None:
        """Begin executing ``program`` (as if streamed from a host)."""
        self.attach_source(iter(list(program.executable())))

    def attach_source(self, source: Iterator[Command]) -> None:
        """Begin pulling commands from an arbitrary source iterator."""
        if self.status is PrinterStatus.PRINTING:
            raise FirmwareError("already printing")
        if self.status in (PrinterStatus.KILLED, PrinterStatus.TIMED_OUT):
            raise FirmwareError(
                f"printer is halted ({self.status.value}); reset required"
            )
        self.power_on()
        self._source = source
        self.status = PrinterStatus.PRINTING
        self._schedule_pump()

    @property
    def finished(self) -> bool:
        return self.status in (
            PrinterStatus.DONE,
            PrinterStatus.KILLED,
            PrinterStatus.TIMED_OUT,
        )

    def kill(self, reason: str) -> None:
        """Marlin ``kill()``: halt everything the firmware controls."""
        if self.status is PrinterStatus.KILLED:
            return
        self.status = PrinterStatus.KILLED
        self.kill_reason = reason
        self._log(f"Error: {reason}")
        self._log("Error: Printer halted. kill() called!")
        self.stepper.abort()
        self.planner.clear()
        self.stepper.disable_steppers()
        for heater in (self.hotend, self.bed):
            heater.target_c = 0.0
            heater.gate.drive(0.0)
        self._fan_gate.drive(0.0)
        if self._wait_task is not None:
            self._wait_task.cancel()
            self._wait_task = None
        for callback in list(self.on_kill):
            callback(reason)

    def timeout(self, reason: str) -> None:
        """Abort a print that exceeded its simulation-time budget.

        Same physical teardown as :meth:`kill` but with a distinct status,
        so callers can tell a protection-fault halt (a Trojan effect) from a
        harness-imposed deadline; ``on_kill`` hooks are not invoked.
        """
        if self.finished:
            return
        self.status = PrinterStatus.TIMED_OUT
        self.kill_reason = reason
        self._log(f"Error: {reason}")
        self.stepper.abort()
        self.planner.clear()
        self.stepper.disable_steppers()
        for heater in (self.hotend, self.bed):
            heater.target_c = 0.0
            heater.gate.drive(0.0)
        self._fan_gate.drive(0.0)
        if self._wait_task is not None:
            self._wait_task.cancel()
            self._wait_task = None

    # ------------------------------------------------------------------
    # Command pump
    # ------------------------------------------------------------------
    def _schedule_pump(self, delay_ns: Optional[int] = None) -> None:
        delay = self.config.command_latency_us * US if delay_ns is None else delay_ns
        self.sim.schedule(delay, self._pump)

    def _pump(self) -> None:
        if self.status is not PrinterStatus.PRINTING or self._waiting:
            return
        command = self._pending
        self._pending = None
        if command is None:
            command = self._next_command()
        if command is None:
            self._maybe_finish()
            return
        handler = self._handlers.get(command.name)
        if handler is None:
            self._log(f"echo:Unknown command: \"{command.name}\"")
        else:
            handler(command)
            if self._pending is command:
                return  # stalled on planner backpressure; resumed by stepper
        self.commands_processed += 1
        if self.status is PrinterStatus.PRINTING and not self._waiting:
            self._schedule_pump()

    def _next_command(self) -> Optional[Command]:
        if self._source is None:
            return None
        try:
            return next(self._source)
        except StopIteration:
            self._source = None
            return None

    def _maybe_finish(self) -> None:
        if (
            self.status is PrinterStatus.PRINTING
            and self._source is None
            and self._pending is None
            and self.planner.is_empty
            and self.stepper.idle
        ):
            self.status = PrinterStatus.DONE
            for callback in list(self.on_complete):
                callback()

    def _on_stepper_progress(self) -> None:
        if self._pending is not None and not self.planner.is_full:
            self._schedule_pump(0)
        elif self.status is PrinterStatus.PRINTING and self._source is None:
            self._maybe_finish()

    # ------------------------------------------------------------------
    # Waits
    # ------------------------------------------------------------------
    def _begin_wait(self, predicate: Callable[[], bool]) -> None:
        """Block the pump until ``predicate()`` holds."""
        self._waiting = True

        def poll() -> None:
            if self.status is not PrinterStatus.PRINTING:
                task.cancel()
                return
            if predicate():
                task.cancel()
                self._waiting = False
                self._schedule_pump(0)

        task = self.sim.every(_WAIT_POLL_MS * MS, poll)
        self._wait_task = task

    def _residency_predicate(self, heater: HeaterController) -> Callable[[], bool]:
        stable_since: List[Optional[int]] = [None]
        residency_ns = int(self.config.temp_residency_s * 1e9)

        def check() -> bool:
            if heater.at_target():
                if stable_since[0] is None:
                    stable_since[0] = self.sim.now
                return self.sim.now - stable_since[0] >= residency_ns
            stable_since[0] = None
            return False

        return check

    # ------------------------------------------------------------------
    # Motion handlers
    # ------------------------------------------------------------------
    def _g_move(self, cmd: Command) -> None:
        state = self.state
        if cmd.has("F"):
            feed = (cmd.get("F") or 0.0) / 60.0
            if feed > 0:
                state.feedrate_mm_s = feed

        target_mm: Dict[str, float] = {}
        for axis in ("X", "Y", "Z"):
            if cmd.has(axis):
                value = cmd.get(axis) or 0.0
                target_mm[axis] = (
                    value if state.absolute_coords else state.position_mm[axis] + value
                )
        e_delta = 0.0
        if cmd.has("E"):
            value = cmd.get("E") or 0.0
            e_delta = (value - state.position_mm["E"]) if state.absolute_e else value

        if e_delta != 0.0 and not self._cold_extrusion_ok():
            self._log("echo:cold extrusion prevented")
            e_delta = 0.0
            # keep the logical E chain consistent with what the host sent
            if cmd.has("E"):
                value = cmd.get("E") or 0.0
                state.position_mm["E"] = value if state.absolute_e else state.position_mm["E"] + value
                state.position_steps["E"] = state.steps_for("E", state.position_mm["E"])

        steps: Dict[str, int] = {}
        for axis in ("X", "Y", "Z"):
            if axis in target_mm:
                new_steps = state.steps_for(axis, target_mm[axis])
                steps[axis] = new_steps - state.position_steps[axis]
            else:
                steps[axis] = 0
        if e_delta != 0.0:
            flow = state.flow_percent / 100.0
            e_target_steps = state.position_steps["E"] + round(
                e_delta * flow * self.config.steps_per_mm["E"]
            )
            steps["E"] = e_target_steps - state.position_steps["E"]
        else:
            steps["E"] = 0

        if all(count == 0 for count in steps.values()):
            self._commit_move_state(cmd, target_mm, e_delta, steps)
            return

        if self.planner.is_full:
            self._pending = cmd
            return

        speed = state.feedrate_mm_s * state.feedrate_percent / 100.0
        self.planner.add_move(steps, speed, self._accel_override)
        self._commit_move_state(cmd, target_mm, e_delta, steps)
        self.stepper.wake()

    def _commit_move_state(
        self,
        cmd: Command,
        target_mm: Dict[str, float],
        e_delta: float,
        steps: Dict[str, int],
    ) -> None:
        state = self.state
        for axis, value in target_mm.items():
            state.position_mm[axis] = value
            state.position_steps[axis] += steps[axis]
        if e_delta != 0.0 or cmd.has("E"):
            if cmd.has("E"):
                value = cmd.get("E") or 0.0
                state.position_mm["E"] = (
                    value if state.absolute_e else state.position_mm["E"] + value
                )
            state.position_steps["E"] += steps["E"]

    def _cold_extrusion_ok(self) -> bool:
        if self._allow_cold_extrusion:
            return True
        return self.hotend.read_temp_c() >= self.config.min_extrude_temp_c

    def _g_dwell(self, cmd: Command) -> None:
        ms = cmd.get("P", 0.0) or 0.0
        seconds = cmd.get("S", 0.0) or 0.0
        total_ns = int(ms * 1e6 + seconds * 1e9)
        if total_ns <= 0:
            return
        deadline = self.sim.now + total_ns
        self._begin_wait(
            lambda: self.sim.now >= deadline
            and self.planner.is_empty
            and self.stepper.idle
        )

    def _g_home(self, cmd: Command) -> None:
        axes = [axis for axis in ("X", "Y", "Z") if cmd.has(axis)] or None
        self._waiting = True

        def done() -> None:
            self._waiting = False
            self._schedule_pump(0)

        self.homing.home(axes, done, self.kill)

    def _g_set_position(self, cmd: Command) -> None:
        for axis in AXES:
            if cmd.has(axis):
                self.state.set_logical_position(axis, cmd.get(axis) or 0.0)

    # ------------------------------------------------------------------
    # Mode / misc handlers
    # ------------------------------------------------------------------
    def _set_abs_coords(self, absolute: bool) -> None:
        self.state.absolute_coords = absolute

    def _set_abs_e(self, absolute: bool) -> None:
        self.state.absolute_e = absolute

    def _m_disable_steppers(self, cmd: Command) -> None:
        # Marlin's M84 synchronizes: queued motion finishes before power-off.
        if not (self.planner.is_empty and self.stepper.idle):
            self._pending = cmd
            return
        axes = [axis for axis in AXES if cmd.has(axis)]
        self.stepper.disable_steppers(axes or None)

    def _m_set_hotend(self, cmd: Command) -> None:
        target = cmd.get("S", 0.0) or 0.0
        self.state.target_hotend_c = target
        self.hotend.set_target(target)

    def _m_wait_hotend(self, cmd: Command) -> None:
        self._m_set_hotend(cmd)
        if (self.state.target_hotend_c or 0) > 0:
            self._begin_wait(self._residency_predicate(self.hotend))

    def _m_set_bed(self, cmd: Command) -> None:
        target = cmd.get("S", 0.0) or 0.0
        self.state.target_bed_c = target
        self.bed.set_target(target)

    def _m_wait_bed(self, cmd: Command) -> None:
        self._m_set_bed(cmd)
        if (self.state.target_bed_c or 0) > 0:
            self._begin_wait(self._residency_predicate(self.bed))

    def _m_report_temps(self, cmd: Command) -> None:
        self._log(
            f"ok T:{self.hotend.read_temp_c():.2f} /{self.hotend.target_c:.2f} "
            f"B:{self.bed.read_temp_c():.2f} /{self.bed.target_c:.2f}"
        )

    def _m_fan_on(self, cmd: Command) -> None:
        raw = cmd.get("S", 255.0)
        raw = 255.0 if raw is None else raw
        self._set_fan(min(255.0, max(0.0, raw)) / 255.0)

    def _set_fan(self, duty: float) -> None:
        self.state.fan_duty = duty
        self._fan_gate.drive(duty)

    def _m_report_position(self, cmd: Command) -> None:
        pos = self.state.position_mm
        self._log(
            f"X:{pos['X']:.2f} Y:{pos['Y']:.2f} Z:{pos['Z']:.2f} E:{pos['E']:.2f}"
        )

    def _m_set_accel(self, cmd: Command) -> None:
        accel = cmd.get("S") or cmd.get("P")
        if accel and accel > 0:
            self._accel_override = float(accel)

    def _m_feedrate_percent(self, cmd: Command) -> None:
        value = cmd.get("S")
        if value and value > 0:
            self.state.feedrate_percent = float(value)

    def _m_flow_percent(self, cmd: Command) -> None:
        value = cmd.get("S")
        if value and value > 0:
            self.state.flow_percent = float(value)

    def _m_cold_extrusion(self, cmd: Command) -> None:
        if cmd.has("P"):
            self._allow_cold_extrusion = bool(cmd.get("P"))
        elif cmd.has("S"):
            # M302 S0 allows extrusion at any temperature
            self._allow_cold_extrusion = (cmd.get("S") or 0.0) <= 0
        else:
            self._allow_cold_extrusion = True

    # ------------------------------------------------------------------
    def _log(self, message: str) -> None:
        self.log.append(f"[{self.sim.now}] {message}")
