"""Stepper executor: planned blocks → STEP/DIR/EN events on the harness.

Executes one :class:`~repro.firmware.planner.MotionBlock` at a time. For each
block it solves the trapezoid (entry/cruise/exit), derives the time of every
step event by inverting the motion profile, distributes secondary-axis steps
with a Bresenham/DDA accumulator (guaranteeing exact signed step totals), and
schedules events one at a time so aborts and endstop stops are immediate.

The optional *time-noise* model scales each block's execution rate by a
zero-mean random factor — the "time noise" of asynchronous manufacturing
systems the paper cites as the reason for its 5 % detection margin.

Fast path (``fast_path=True``): step times are solved as
array ops (:meth:`StepperExecutor._step_times_array`, pinned int-for-int
equal to the scalar reference) and steps are emitted in *chunks* — one
kernel event per run of steps spanning an event-free window, with pulses
delivered in bulk through :meth:`~repro.sim.signals.StepWire.pulse_batch`.
Every consumer on the wire must declare itself batch-capable for the
window's pulse count; anything that needs per-step granularity (an endstop
the run would cross, a travel-limit clamp, the armed tracker's first-step
sync, a Trojan without a batch handler, a plain test tap) vetoes the batch;
the longest approved prefix of the window's steps still goes in bulk, and
the vetoing step dispatches precisely. Chunks never span a pending kernel
event — counting the FPGA's propagation delay on an intercepted STEP wire —
never outrun ``Simulator.run``'s window, and the final step of a block is
always precise, so aborts and block-done chaining keep their exact
per-event semantics. Three periodic observers take no kernel event on the
fast path, so chunks run through their instants: the plant's deposition
samples (each axis fills its sample grid from the step times), the
thermistor refresh (a read computes the latest refresh from the thermal
closed form) and the UART export (each snapshot is rebuilt from the
tracker's runs). The heater ticks remain, as one event for both heaters
every 100 ms. Homing moves emit runs the same way, and the step
that trips the endstop is always precise, so the stop condition is first
seen at the same event. The byte-identical-verdict contract is preserved by
construction, not by luck.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.errors import FirmwareError
from repro.firmware.config import MarlinConfig
from repro.firmware.planner import AXES, MotionBlock, MotionPlanner
from repro.electronics.harness import SignalHarness
from repro.sim.kernel import EventHandle, Simulator
from repro.sim.time import MS, US

_DIR_SETTLE_NS = 2 * US  # DIR→STEP setup time honoured at block start

# Latency ceiling for one emitted chunk of steps. Chunks already stop at the
# next pending kernel event; in a fast session the shortest periodic one is
# the 100 ms heater tick (the thermistor refresh and the UART export take no
# event there), so this cap matches it and rarely binds. It bounds how far a
# single bulk event can run ahead of anything a test or module might
# schedule next when the queue is otherwise quiet.
FAST_CHUNK_MAX_NS = 100 * MS


def _last_approved(approved: int, vetoed: int, ready: Callable[[int], bool]) -> int:
    """The largest ``n`` in ``[approved, vetoed)`` that ``ready`` approves.

    ``ready(vetoed)`` is false, and ``ready`` approves every ``n`` below one
    it approves (``approved`` itself counts as approved), so bisection
    finds the boundary.
    """
    while vetoed - approved > 1:
        middle = (approved + vetoed) // 2
        if ready(middle):
            approved = middle
        else:
            vetoed = middle
    return approved


class StepperExecutor:
    """Drives the upstream (Arduino-side) motion wires from planner blocks."""

    def __init__(
        self,
        sim: Simulator,
        config: MarlinConfig,
        harness: SignalHarness,
        planner: MotionPlanner,
        fast_path: bool = False,
    ) -> None:
        self.sim = sim
        self.config = config
        self.harness = harness
        self.planner = planner
        self.fast_path = fast_path
        self._rng = random.Random(config.time_noise_seed)

        self._step_paths = {axis: harness.path(f"{axis}_STEP") for axis in AXES}
        self._step_wires = {axis: harness.upstream(f"{axis}_STEP") for axis in AXES}
        self._dir_wires = {axis: harness.upstream(f"{axis}_DIR") for axis in AXES}
        self._en_wires = {axis: harness.upstream(f"{axis}_EN") for axis in AXES}
        for wire in self._en_wires.values():
            wire.drive(1)  # active low: start disabled

        self._block: Optional[MotionBlock] = None
        self._times: List[int] = []
        self._index = 0
        self._dda: Dict[str, int] = {}
        self._block_start_ns = 0
        self._handle: Optional[EventHandle] = None
        self._homing = False
        # Fast-path per-block state (None while executing precisely):
        # _pulse_cum[axis][j] = cumulative pulses after j step events (the
        # closed-form DDA), _pulse_idx[axis] = sorted event indices at which
        # the axis pulses, _abs_times = absolute ns of every step event.
        self._pulse_cum: Optional[Dict[str, "np.ndarray"]] = None
        self._pulse_idx: Optional[Dict[str, "np.ndarray"]] = None
        self._abs_times: Optional["np.ndarray"] = None

        self.on_block_done: List[Callable[[], None]] = []
        self.on_idle: List[Callable[[], None]] = []
        self.blocks_executed = 0
        self.steps_emitted: Dict[str, int] = dict.fromkeys(AXES, 0)

    # ------------------------------------------------------------------
    @property
    def idle(self) -> bool:
        return self._block is None and not self._homing

    def enable_steppers(self) -> None:
        for wire in self._en_wires.values():
            wire.drive(0)

    def disable_steppers(self, axes: Optional[List[str]] = None) -> None:
        for axis in axes if axes is not None else list(AXES):
            self._en_wires[axis].drive(1)

    # ------------------------------------------------------------------
    # Planned-block execution
    # ------------------------------------------------------------------
    def wake(self) -> None:
        """Start executing if idle and the planner has work."""
        if not self.idle:
            return
        block = self.planner.pop_block()
        if block is None:
            return
        self._begin_block(block)

    def _begin_block(self, block: MotionBlock) -> None:
        self.enable_steppers()
        self._block = block
        self._index = 0
        count = block.step_event_count
        self._dda = {axis: count // 2 for axis in AXES}
        for axis in AXES:
            if block.steps[axis] != 0:
                self._dir_wires[axis].drive(1 if block.steps[axis] > 0 else 0)
        self._block_start_ns = self.sim.now
        if self.fast_path:
            times = self._step_times_array(block)
            self._times = times
            self._abs_times = self._block_start_ns + times
            cum: Dict[str, "np.ndarray"] = {}
            idx: Dict[str, "np.ndarray"] = {}
            for axis in AXES:
                axis_steps = abs(block.steps[axis])
                if axis_steps == 0:
                    continue
                # Closed form of the DDA: after j events the accumulator is
                # (count//2 + j*a) mod count, and the axis has pulsed
                # (count//2 + j*a) // count times — event j-1 pulses exactly
                # when that quotient increments.
                cumulative = (
                    count // 2 + np.arange(0, count + 1, dtype=np.int64) * axis_steps
                ) // count
                cum[axis] = cumulative
                idx[axis] = np.nonzero(cumulative[1:] > cumulative[:-1])[0]
            self._pulse_cum = cum
            self._pulse_idx = idx
        else:
            self._times = self._step_times(block)
            self._pulse_cum = None
            self._pulse_idx = None
            self._abs_times = None
        self._schedule_next()

    def _block_profile(self, block: MotionBlock):
        """Solve the block's trapezoid; shared by scalar and vector paths.

        Returns ``(d_accel, d_cruise, v_peak, t_accel, t_cruise, noise)``.
        Draws at most one noise sample from the RNG, so scalar and vector
        executions consume the stream identically.
        """
        v_entry, v_exit = block.entry_speed, block.exit_speed
        v_nominal, accel, distance = block.nominal_speed, block.acceleration, block.distance_mm

        d_accel = max(0.0, (v_nominal**2 - v_entry**2) / (2 * accel))
        d_decel = max(0.0, (v_nominal**2 - v_exit**2) / (2 * accel))
        if d_accel + d_decel > distance:
            v_peak = math.sqrt(max((2 * accel * distance + v_entry**2 + v_exit**2) / 2, 0.0))
            v_peak = max(v_peak, v_entry, v_exit)
            d_accel = max(0.0, (v_peak**2 - v_entry**2) / (2 * accel))
            d_decel = max(0.0, distance - d_accel)
            d_cruise = 0.0
        else:
            v_peak = v_nominal
            d_cruise = distance - d_accel - d_decel

        t_accel = (v_peak - v_entry) / accel
        t_cruise = d_cruise / v_peak if v_peak > 0 else 0.0

        noise = 1.0
        sigma = self.config.time_noise_sigma
        if sigma > 0:
            noise = 1.0 + max(-3 * sigma, min(3 * sigma, self._rng.gauss(0.0, sigma)))
        return d_accel, d_cruise, v_peak, t_accel, t_cruise, noise

    def _step_times(self, block: MotionBlock) -> List[int]:
        """Absolute-offset (ns) times of each step event within the block.

        The scalar reference implementation. :meth:`_step_times_array` must
        return exactly these integers — the property test in
        ``tests/test_fast_path.py`` pins the equality.
        """
        d_accel, d_cruise, v_peak, t_accel, t_cruise, noise = self._block_profile(block)
        v_entry = block.entry_speed
        accel, distance = block.acceleration, block.distance_mm

        count = block.step_event_count
        times: List[int] = []
        for k in range(1, count + 1):
            s = distance * k / count
            if s <= d_accel + 1e-12:
                t = (math.sqrt(max(v_entry**2 + 2 * accel * s, 0.0)) - v_entry) / accel
            elif s <= d_accel + d_cruise + 1e-12:
                t = t_accel + (s - d_accel) / v_peak
            else:
                s_decel = s - d_accel - d_cruise
                v_term = math.sqrt(max(v_peak**2 - 2 * accel * s_decel, 0.0))
                t = t_accel + t_cruise + (v_peak - v_term) / accel
            times.append(_DIR_SETTLE_NS + int(t * noise * 1e9))
        # Guarantee strictly nondecreasing times (rounding can tie).
        for i in range(1, len(times)):
            if times[i] < times[i - 1]:
                times[i] = times[i - 1]
        return times

    def _step_times_array(self, block: MotionBlock) -> "np.ndarray":
        """Vectorized :meth:`_step_times`: same integers, numpy throughput.

        Every operation mirrors the scalar path's order and associativity
        (``(2*accel)*s`` not ``2*(accel*s)``, scalar ``t_accel + t_cruise``
        folded first, truncation via int64 cast) so IEEE-754 rounding — and
        therefore the emitted nanosecond — is bit-identical.
        """
        d_accel, d_cruise, v_peak, t_accel, t_cruise, noise = self._block_profile(block)
        v_entry = block.entry_speed
        accel, distance = block.acceleration, block.distance_mm

        count = block.step_event_count
        k = np.arange(1, count + 1, dtype=np.float64)
        s = distance * k / count

        t = np.empty(count, dtype=np.float64)
        accel_mask = s <= d_accel + 1e-12
        cruise_mask = ~accel_mask & (s <= d_accel + d_cruise + 1e-12)
        decel_mask = ~(accel_mask | cruise_mask)
        if accel_mask.any():
            sa = s[accel_mask]
            t[accel_mask] = (
                np.sqrt(np.maximum(v_entry**2 + 2 * accel * sa, 0.0)) - v_entry
            ) / accel
        if cruise_mask.any():
            sc = s[cruise_mask]
            t[cruise_mask] = t_accel + (sc - d_accel) / v_peak
        if decel_mask.any():
            s_decel = s[decel_mask] - d_accel - d_cruise
            v_term = np.sqrt(np.maximum(v_peak**2 - 2 * accel * s_decel, 0.0))
            t[decel_mask] = (t_accel + t_cruise) + (v_peak - v_term) / accel

        times = _DIR_SETTLE_NS + (t * noise * 1e9).astype(np.int64)
        # Guarantee strictly nondecreasing times (rounding can tie).
        return np.maximum.accumulate(times)

    def _schedule_next(self) -> None:
        if self._block is None:
            return
        n = len(self._times)
        if self._index >= n:
            self._finish_block()
            return
        at = self._block_start_ns + int(self._times[self._index])
        if self._pulse_cum is not None and self._index < n - 1:
            # The final step of a block always dispatches precisely so
            # _finish_block (and the command pump it wakes) runs at the
            # last step's own timestamp, exactly as in precise mode.
            self._handle = self.sim.schedule_at(at, self._emit_chunk)
        else:
            self._handle = self.sim.schedule_at(at, self._emit_step)

    def _emit_step(self) -> None:
        block = self._block
        if block is None:
            return
        width = self.config.step_pulse_width_ns
        if self._pulse_cum is not None:
            # Fast block, precise step: read the closed-form DDA instead of
            # the accumulator (which bulk emission does not maintain).
            i = self._index
            for axis, cumulative in self._pulse_cum.items():
                if cumulative[i + 1] > cumulative[i]:
                    self._step_wires[axis].pulse(width)
                    self.steps_emitted[axis] += 1 if block.steps[axis] > 0 else -1
            self._index += 1
            self._schedule_next()
            return
        count = block.step_event_count
        for axis in AXES:
            axis_steps = abs(block.steps[axis])
            if axis_steps == 0:
                continue
            self._dda[axis] += axis_steps
            if self._dda[axis] >= count:
                self._dda[axis] -= count
                self._step_wires[axis].pulse(width)
                self.steps_emitted[axis] += 1 if block.steps[axis] > 0 else -1
        self._index += 1
        self._schedule_next()

    def _window(self, first_ns: int, lag: int):
        """Bounds on the pulse times of a bulk run starting at ``first_ns``.

        Returns ``(last, before)``: every pulse must be at or before
        ``last`` (inclusive: ``run`` dispatches events at exactly its
        ``until_ns``) and strictly before ``before`` (None: no pending
        event). Pulses landing ``lag`` late downstream shift both bounds
        by ``lag``, so no foreign event sees a pulse before its time.
        """
        last = first_ns + FAST_CHUNK_MAX_NS
        until = self.sim.run_until_ns
        if until is not None and until - lag < last:
            last = until - lag
        next_event = self.sim.next_event_time()
        return last, None if next_event is None else next_event - lag

    def _emit_chunk(self) -> None:
        """Emit every step in the largest provably-safe event-free window.

        Fires at the first pending step's own timestamp. The window ends
        strictly before the next pending kernel event (so no foreign
        callback ever observes half-applied bulk state), at the kernel's
        ``run`` bound, at :data:`FAST_CHUNK_MAX_NS`, and always before the
        block's final step. Where a STEP wire is intercepted, its pulses
        land downstream ``latency_ns`` late, and the window ends that much
        earlier. If a wire consumer vetoes the window (an endstop the run
        would trip, for one), the largest approved prefix of its step
        events goes in bulk instead (:meth:`_approved_end`), and the next
        chunk starts at the vetoing step. If the window is empty or its
        first step is vetoed, exactly one step dispatches precisely and the
        next scheduling decision tries again.
        """
        block = self._block
        if block is None:
            return
        abs_times = self._abs_times
        i0 = self._index
        n = len(abs_times)
        lag = max(path.latency_ns for path in self._step_paths.values())
        last, before = self._window(int(abs_times[i0]), lag)
        i1 = int(abs_times.searchsorted(last, side="right"))
        if before is not None:
            i1 = min(i1, int(abs_times.searchsorted(before, side="left")))
        i1 = min(i1, n - 1)
        if i1 > i0:
            spans = self._spans(i0, i1)
            if not self._ready(spans):
                i1 = self._approved_end(i0, i1)
                spans = self._spans(i0, i1)
        if i1 <= i0:
            self._emit_step()
            return

        width = self.config.step_pulse_width_ns
        for axis, indices, lo, hi in spans:
            times = abs_times[indices[lo:hi]]
            self._step_wires[axis].pulse_batch(times, width)
            pulses = hi - lo
            self.steps_emitted[axis] += pulses if block.steps[axis] > 0 else -pulses
        self._index = i1
        self._schedule_next()

    def _spans(self, i0: int, i1: int):
        """``(axis, pulse indices, lo, hi)`` for each axis pulsing in events [i0, i1).

        The pulses before event i number cumulative[i], which is also where
        i falls in the axis's sorted pulse indices: [lo, hi) is the span.
        """
        spans = []
        for axis, indices in self._pulse_idx.items():
            cumulative = self._pulse_cum[axis]
            lo = int(cumulative[i0])
            hi = int(cumulative[i1])
            if hi > lo:
                spans.append((axis, indices, lo, hi))
        return spans

    def _ready(self, spans) -> bool:
        """Whether every STEP wire's consumers approve their span in bulk."""
        return all(
            self._step_wires[axis].batch_ready(hi - lo) for axis, _indices, lo, hi in spans
        )

    def _approved_end(self, i0: int, i1: int) -> int:
        """The end of the longest approved run of events [i0, end), given [i0, i1) vetoed.

        Ready checks approve every shorter run of one they approve, and an
        event prefix only shortens each axis's run, so the approved ends
        form a prefix of [i0, i1) and bisection finds the last. The first
        event is tried alone before bisecting, so a consumer that vetoes
        every batch costs one extra check per precise step. ``i0`` means
        not even the first event is approved.
        """

        def ready(end: int) -> bool:
            return self._ready(self._spans(i0, end))

        if i1 - i0 == 1 or not ready(i0 + 1):
            return i0
        return _last_approved(i0 + 1, i1, ready)

    def _finish_block(self) -> None:
        block = self._block
        self._block = None
        self._handle = None
        self._pulse_cum = None
        self._pulse_idx = None
        self._abs_times = None
        if block is not None:
            self.planner.release_block(block)
            self.blocks_executed += 1
        for callback in list(self.on_block_done):
            callback()
        # Chain into the next block with no dead time (junction continuity).
        self.wake()
        if self.idle:
            for callback in list(self.on_idle):
                callback()

    # ------------------------------------------------------------------
    # Homing moves (bypass the planner: constant speed, stop on a wire)
    # ------------------------------------------------------------------
    def home_move(
        self,
        axis: str,
        direction: int,
        max_mm: float,
        feedrate_mm_s: float,
        stop_when: Optional[Callable[[], bool]],
        on_done: Callable[[bool, int], None],
    ) -> None:
        """Constant-speed move on one axis until ``stop_when()`` or ``max_mm``.

        ``on_done(hit, steps_taken)`` fires when the move ends; ``hit`` tells
        whether the stop condition (endstop) ended it. On the fast path
        ``stop_when`` is read once per run of pulses
        (:meth:`_home_run_length`), so it may change only at a kernel event
        or through a STEP-wire consumer that vetoes the run, as the
        endstop's range check does.
        """
        if not self.idle:
            raise FirmwareError("home_move while the stepper is busy")
        if direction not in (1, -1):
            raise FirmwareError("home_move direction must be +1/-1")
        self.enable_steppers()
        self._homing = True
        self._dir_wires[axis].drive(1 if direction > 0 else 0)
        spm = self.config.steps_per_mm[axis]
        interval_ns = max(1, int(1e9 / (feedrate_mm_s * spm)))
        remaining = int(max_mm * spm)
        state = {"taken": 0}
        wire = self._step_wires[axis]

        def step_once() -> None:
            if stop_when is not None and stop_when():
                finish(True)
                return
            left = remaining - state["taken"]
            if left <= 0:
                finish(False)
                return
            count = self._home_run_length(axis, interval_ns, left) if self.fast_path else 1
            width = self.config.step_pulse_width_ns
            if count > 1:
                now = self.sim.now
                wire.pulse_batch(now + interval_ns * np.arange(count, dtype=np.int64), width)
            else:
                count = 1
                wire.pulse(width)
            self.steps_emitted[axis] += direction * count
            state["taken"] += count
            self._handle = self.sim.schedule(interval_ns * count, step_once)

        def finish(hit: bool) -> None:
            self._homing = False
            self._handle = None
            on_done(hit, state["taken"])

        self._handle = self.sim.schedule(_DIR_SETTLE_NS, step_once)

    def _home_run_length(self, axis: str, interval_ns: int, left: int) -> int:
        """How many homing pulses, one per ``interval_ns`` from now, make one batch.

        The pulses keep within :meth:`_window`, as a chunk's do. The
        endstop's range check vetoes any run that would trip the switch;
        bisecting the count (ready checks approve every shorter run of one
        they approve) keeps the pulses before the trip in one batch and
        leaves the tripping pulse precise. A result below 2 means one
        precise pulse.
        """
        wire = self._step_wires[axis]
        now = self.sim.now
        last, before = self._window(now, self._step_paths[axis].latency_ns)
        count = min(left, (last - now) // interval_ns + 1)
        if before is not None:
            count = min(count, -(-(before - now) // interval_ns))
        if count < 2 or wire.batch_ready(count):
            return count
        return _last_approved(0, count, wire.batch_ready)

    # ------------------------------------------------------------------
    def abort(self) -> None:
        """Stop motion immediately (kill path)."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        if self._block is not None:
            self.planner.release_block(self._block)
            self._block = None
        self._homing = False
        self._pulse_cum = None
        self._pulse_idx = None
        self._abs_times = None
