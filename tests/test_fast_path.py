"""Fast path vs precise path: the byte-identical-verdict contract, unit-level.

Layers of pinning:

- **Property test** — random trapezoid profiles through the scalar
  :meth:`StepperExecutor._step_times` and the vectorized
  :meth:`StepperExecutor._step_times_array` must produce *exactly* the same
  integers, including the nondecreasing-clamp ties. This is the equality the
  whole fast path rests on.
- **Wire batch protocol** — ``pulse_batch`` must leave the wire's counters
  and a watching Tracer's ``(time_ns, width)`` events exactly as the
  equivalent sequence of ``pulse`` calls would, and any
  subscriber that is not batch-capable (or whose ``ready`` check declines)
  must veto bulk delivery.
- **Trojan batch handlers** — for seeded random pulse runs, T2's and T3's
  ``on_batch`` through the board's mux must equal a per-pulse
  ``on_event`` replay: downstream times, Trojan counters, mux counters.
- **Intercepted windows** — chunks and homing runs on an FPGA-routed STEP
  wire end early enough that no event sees a pulse before the 13 ns
  forward would have delivered it.
- **Session equivalence** — full simulated prints (clean, Trojaned,
  thermal-kill, every signal through the FPGA, homing alone) must be
  observably identical fast vs precise: status, kill reason, duration,
  axis totals, missed steps, every captured UART transaction, mux and
  Trojan counters, and — when traced — every wire trace event.
- **Periodic observers** — a fast session schedules no thermistor refresh,
  UART export or per-heater tick event; a ``Tracer`` on a thermistor wire
  or a live UART listener brings those events back, and the session still
  equals the precise run.
"""

import random

import numpy as np
import pytest

from repro.core.board import JumperMode, OfframpsBoard
from repro.core.modules.homing_detect import HomingDetector
from repro.core.modules.trojan_ctrl import TrojanControl
from repro.core.trojans import make_trojan
from repro.core.trojans.base import TrojanContext
from repro.electronics.harness import SignalHarness
from repro.experiments.batch import SessionSpec, execute_spec
from repro.experiments.runner import PrintSession, run_print
from repro.gcode.parser import parse_program
from repro.experiments.scenario import TABLE1_TROJAN_PARAMS
from repro.firmware.config import MarlinConfig
from repro.firmware.planner import MotionBlock, MotionPlanner
from repro.firmware.stepper import StepperExecutor
from repro.sim.kernel import PeriodicTask, Simulator
from repro.sim.signals import StepWire
from repro.sim.time import MS, S, US
from repro.sim.trace import Tracer


# ----------------------------------------------------------------------
# Property test: scalar and vectorized step-time solvers agree exactly
# ----------------------------------------------------------------------
def _random_block(rng: random.Random) -> MotionBlock:
    """A random-but-valid trapezoid: any mix of accel/cruise/decel shapes."""
    distance = rng.uniform(0.05, 40.0)
    nominal = rng.uniform(5.0, 200.0)
    accel = rng.uniform(100.0, 3000.0)
    entry = rng.uniform(0.0, nominal)
    exit_ = rng.uniform(0.0, nominal)
    major = rng.randint(1, 4000)
    steps = {"X": major, "Y": rng.randint(0, major), "Z": 0, "E": rng.randint(0, major)}
    if rng.random() < 0.5:
        steps["Y"] = -steps["Y"]
    unit = {axis: 0.0 for axis in steps}
    unit["X"] = 1.0
    return MotionBlock(
        steps=steps,
        distance_mm=distance,
        nominal_speed=nominal,
        acceleration=accel,
        unit=unit,
        max_entry_speed=nominal,
        entry_speed=entry,
        exit_speed=exit_,
    )


def _executor(noise_sigma: float = 0.0, seed: int = 0) -> StepperExecutor:
    sim = Simulator()
    config = MarlinConfig(time_noise_sigma=noise_sigma, time_noise_seed=seed)
    harness = SignalHarness(sim)
    planner = MotionPlanner(config)
    return StepperExecutor(sim, config, harness, planner, fast_path=True)


class TestStepTimeEquality:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_trapezoids_match_scalar_reference(self, seed):
        rng = random.Random(900 + seed)
        execu = _executor()
        for _ in range(25):
            block = _random_block(rng)
            scalar = execu._step_times(block)
            vector = execu._step_times_array(block)
            assert vector.dtype == np.int64
            assert list(scalar) == vector.tolist()

    @pytest.mark.parametrize("seed", range(4))
    def test_noisy_blocks_match_when_rng_streams_align(self, seed):
        # Each solver draws exactly one noise sample per block; resetting the
        # stream between calls pins both paths to the same draw.
        rng = random.Random(7700 + seed)
        execu = _executor(noise_sigma=0.0005, seed=seed)
        for _ in range(25):
            block = _random_block(rng)
            execu._rng = random.Random(seed)
            scalar = execu._step_times(block)
            execu._rng = random.Random(seed)
            vector = execu._step_times_array(block)
            assert list(scalar) == vector.tolist()

    def test_nondecreasing_clamp_ties_preserved(self):
        # A fast, dense block guarantees sub-ns step intervals and therefore
        # rounding ties; the clamp (scalar loop vs maximum.accumulate) must
        # resolve them identically and nondecreasingly.
        block = MotionBlock(
            steps={"X": 4000, "Y": 0, "Z": 0, "E": 0},
            distance_mm=0.001,
            nominal_speed=300.0,
            acceleration=5000.0,
            unit={"X": 1.0, "Y": 0.0, "Z": 0.0, "E": 0.0},
            max_entry_speed=300.0,
            entry_speed=300.0,
            exit_speed=300.0,
        )
        execu = _executor()
        scalar = execu._step_times(block)
        vector = execu._step_times_array(block)
        assert list(scalar) == vector.tolist()
        assert any(a == b for a, b in zip(scalar, scalar[1:]))  # ties occurred
        assert all(b >= a for a, b in zip(scalar, scalar[1:]))

    def test_closed_form_dda_matches_accumulator(self):
        # The chunk path derives pulses from the closed-form quotient table;
        # the precise path increments a Bresenham accumulator. Same pulses.
        rng = random.Random(31)
        for _ in range(50):
            count = rng.randint(1, 500)
            axis_steps = rng.randint(0, count)
            acc = count // 2
            reference = []
            for i in range(count):
                acc += axis_steps
                if acc >= count:
                    acc -= count
                    reference.append(i)
            cumulative = (
                count // 2 + np.arange(0, count + 1, dtype=np.int64) * axis_steps
            ) // count
            closed_form = np.nonzero(cumulative[1:] > cumulative[:-1])[0]
            assert closed_form.tolist() == reference
            # _emit_chunk reads a chunk's pulse span [lo, hi) off the table:
            # pulses before event i == where i falls in the pulse indices.
            for i in range(count + 1):
                assert cumulative[i] == np.searchsorted(closed_form, i, side="left")


# ----------------------------------------------------------------------
# Wire batch protocol
# ----------------------------------------------------------------------
class TestWireBatchProtocol:
    def test_plain_subscriber_vetoes_batches(self, sim):
        wire = StepWire(sim, "X_STEP")
        wire.on_pulse(lambda w, t, width: None)
        assert not wire.batch_ready(5)

    def test_batch_capable_subscriber_accepts(self, sim):
        wire = StepWire(sim, "X_STEP")
        wire.on_pulse(lambda w, t, width: None, batch=lambda w, times, width: None)
        assert wire.batch_ready(5)

    def test_ready_check_can_decline(self, sim):
        wire = StepWire(sim, "X_STEP")
        wire.on_pulse(
            lambda w, t, width: None,
            batch=lambda w, times, width: None,
            ready=lambda count: count <= 3,
        )
        assert wire.batch_ready(3)
        assert not wire.batch_ready(4)

    def test_mixed_subscribers_veto_together(self, sim):
        wire = StepWire(sim, "X_STEP")
        wire.on_pulse(lambda w, t, width: None, batch=lambda w, times, width: None)
        wire.on_pulse(lambda w, t, width: None)  # plain tap (e.g. a test probe)
        assert not wire.batch_ready(1)

    @pytest.mark.parametrize(
        "history, batch",
        [
            pytest.param([], [1000, 3000, 3500, 9000], id="spread"),
            pytest.param([], [500], id="one-element"),
            pytest.param([100, 1000], [1200], id="one-element-after-history"),
            pytest.param([], [700, 700, 700], id="all-tied"),
            pytest.param([100], [700, 700, 700], id="all-tied-after-history"),
            pytest.param([1000, 5000], [5100, 6000, 8000], id="first-gap-is-minimum"),
        ],
    )
    def test_pulse_batch_stats_match_sequential_pulses(self, history, batch):
        history_width, batch_width = 2000, 1500

        def replayed(batched):
            sim = Simulator()
            wire = StepWire(sim, "X_STEP")
            tracer = Tracer()
            tracer.watch_one(wire)
            for t in history:
                sim.run(until_ns=t)
                wire.pulse(history_width)
            if batched:
                assert wire.batch_ready(len(batch))
                wire.pulse_batch(np.asarray(batch, dtype=np.int64), batch_width)
            else:
                for t in batch:
                    sim.run(until_ns=t)
                    wire.pulse(batch_width)
            events = [(e.time_ns, e.value) for e in tracer.trace("X_STEP").events]
            return wire, events

        (sequential, seq_events), (batched, batch_events) = replayed(False), replayed(True)
        for attr in ("pulse_count", "last_pulse_ns"):
            assert getattr(batched, attr) == getattr(sequential, attr), attr
        assert batch_events == seq_events

    def test_pulse_batch_delivers_exact_timestamps(self, sim):
        wire = StepWire(sim, "X_STEP")
        seen = []
        wire.on_pulse(
            lambda w, t, width: None,
            batch=lambda w, ts, width: seen.extend(int(t) for t in ts),
        )
        wire.pulse_batch(np.asarray([10, 20, 30], dtype=np.int64), 2000)
        assert seen == [10, 20, 30]
        assert wire.pulse_count == 3


# ----------------------------------------------------------------------
# Trojan batch handlers: on_batch == on_event replayed pulse by pulse
# ----------------------------------------------------------------------
def _random_runs(rng: random.Random):
    """Chunk-shaped runs: (E_DIR level, [(time, y_pulses, e_pulses)]).

    Step events are nondecreasing (ties included); gaps between runs span
    both sides of T3's 200 ms Y-recency window, and long same-direction
    stretches let T2's retraction debt outlive a run.
    """
    runs = []
    t = 1 * MS
    for _ in range(rng.randint(4, 10)):
        t += rng.choice((1 * MS, 150 * MS, 250 * MS, 600 * MS))
        events = []
        for _ in range(rng.randint(1, 40)):
            t += rng.choice((0, 13, 100 * US, 2 * MS, 90 * MS))
            y = rng.random() < 0.4
            e = rng.random() < 0.7 or not y
            events.append((t, y, e))
        runs.append((rng.randint(0, 1), events))
    return runs


def _trojan_replay(trojan, runs, batched: bool, active: bool = True):
    """Drive ``runs`` through a bench with ``trojan`` on E_STEP."""
    sim = Simulator()
    harness = SignalHarness(sim)
    board = OfframpsBoard(sim, harness)
    control = TrojanControl(
        TrojanContext(sim, board, harness, HomingDetector(harness), seed=1)
    )
    control.load(trojan)
    control.enable(trojan.trojan_id)
    if not active:
        trojan.deactivate()  # loaded and routed, not yet triggered
    out = harness.downstream("E_STEP")
    seen = []
    out.on_pulse(
        lambda w, t, width: seen.append(t),
        batch=lambda w, ts, width: seen.extend(ts.tolist()),
    )
    y_wire, e_wire = harness.upstream("Y_STEP"), harness.upstream("E_STEP")
    e_dir = harness.upstream("E_DIR")
    for level, events in runs:
        sim.run(until_ns=events[0][0] - 500 * US)
        e_dir.drive(level)
        if batched:
            sim.run(until_ns=events[0][0])
            # A stepper chunk: the whole Y run first, then the whole E run.
            for wire, pick in ((y_wire, 1), (e_wire, 2)):
                times = np.asarray([ev[0] for ev in events if ev[pick]], dtype=np.int64)
                if len(times):
                    assert wire.batch_ready(len(times))
                    wire.pulse_batch(times, 2000)
        else:
            for t, y, e in events:

                def step(y=y, e=e):
                    if y:
                        y_wire.pulse(2000)
                    if e:
                        e_wire.pulse(2000)

                sim.schedule_at(t, step)
        sim.run(until_ns=events[-1][0] + 1 * MS)
    state = {
        name: value
        for name, value in vars(trojan).items()
        if isinstance(value, (bool, int, float))
    }
    return {
        "downstream": seen,
        "wire": (out.pulse_count, out.last_pulse_ns),
        "trojan": state,
        "board": (
            board.events_intercepted,
            board.events_dropped,
            board.events_replaced,
            board.events_injected,
            board.fabric.forwarded_events,
        ),
    }


_BATCH_TROJANS = [
    pytest.param("T2", dict(keep_fraction=0.5), id="T2-half"),
    pytest.param("T2", dict(keep_fraction=0.3), id="T2-0.3"),
    pytest.param("T3", dict(mode="over"), id="T3-over"),
    pytest.param("T3", dict(mode="over", mask_fraction=0.6), id="T3-over-0.6"),
    pytest.param("T3", dict(mode="under"), id="T3-under"),
    pytest.param("T3", dict(mode="under", mask_fraction=0.5), id="T3-under-0.5"),
]


class TestTrojanBatchParity:
    @pytest.mark.parametrize("trojan_id, params", _BATCH_TROJANS)
    @pytest.mark.parametrize("seed", range(4))
    def test_on_batch_equals_per_pulse_replay(self, trojan_id, params, seed):
        runs = _random_runs(random.Random(4200 + seed))
        per_pulse = _trojan_replay(make_trojan(trojan_id, **params), runs, batched=False)
        batched = _trojan_replay(make_trojan(trojan_id, **params), runs, batched=True)
        assert batched == per_pulse
        assert per_pulse["board"][0] > 0

    @pytest.mark.parametrize("trojan_id, params", _BATCH_TROJANS)
    def test_inactive_trojan_passes_everything(self, trojan_id, params):
        runs = _random_runs(random.Random(77))
        per_pulse = _trojan_replay(
            make_trojan(trojan_id, **params), runs, batched=False, active=False
        )
        batched = _trojan_replay(
            make_trojan(trojan_id, **params), runs, batched=True, active=False
        )
        assert batched == per_pulse
        intercepted, dropped, _replaced, injected, forwarded = batched["board"]
        assert dropped == injected == 0 and forwarded == intercepted > 0

    def test_replays_cover_the_edge_cases(self):
        all_runs = [_random_runs(random.Random(4200 + seed)) for seed in range(4)]
        pairs = [(a, b) for runs in all_runs for a, b in zip(runs, runs[1:])]
        # DIR flips between runs: T2's retraction debt meets forward pulses.
        assert any(a[0] == 0 and b[0] == 1 for a, b in pairs)
        events = [ev for runs in all_runs for _level, evs in runs for ev in evs]
        assert any(y and e for _t, y, e in events)  # Y and E at one step event
        assert any(a[0] == b[0] for a, b in zip(events, events[1:]))  # tied events
        # Retraction pulses fall both inside and outside the Y window.
        retracting = sum(e for runs in all_runs for level, evs in runs if level == 0
                         for _t, _y, e in evs)
        results = [_trojan_replay(make_trojan("T3", mode="under"), runs, True)
                   for runs in all_runs]
        affected = sum(r["trojan"]["retraction_pulses_affected"] for r in results)
        assert 0 < affected < retracting
        assert sum(r["board"][3] for r in results) == affected  # injected twins
        masked = [_trojan_replay(make_trojan("T2"), runs, True)["trojan"]["pulses_masked"]
                  for runs in all_runs]
        assert sum(masked) > 0


# ----------------------------------------------------------------------
# Windows on an intercepted STEP wire leave room for the fabric delay
# ----------------------------------------------------------------------
def _routed_stepper(fast_path: bool, signal: str):
    """A stepper whose ``signal`` runs through the FPGA, plus a downstream tap."""
    sim = Simulator()
    config = MarlinConfig()
    harness = SignalHarness(sim)
    OfframpsBoard(sim, harness).set_mode(signal, JumperMode.FPGA)
    out = harness.downstream(signal)
    out.on_pulse(lambda w, t, width: None, batch=lambda w, ts, width: None)
    planner = MotionPlanner(config)
    stepper = StepperExecutor(sim, config, harness, planner, fast_path=fast_path)
    return sim, planner, stepper, out


class TestInterceptedWindow:
    # Per pulse, a step at t lands downstream at t + 13 ns, so an event 5 ns
    # after a step must not see that step's pulse, batched or not.

    def test_block_chunk_ends_before_delayed_pulse(self):
        def run(fast_path):
            sim, planner, stepper, out = _routed_stepper(fast_path, "E_STEP")
            planner.add_move({"X": 400, "E": 400}, 20.0)
            stepper.wake()
            probe = stepper._block_start_ns + int(stepper._times[200]) + 5
            seen = []
            sim.schedule_at(probe, lambda: seen.append(out.pulse_count))
            sim.run(until_ns=10 * S)
            return seen, out.pulse_count, sim.events_dispatched

        precise, fast = run(False), run(True)
        assert precise[:2] == fast[:2] == ([200], 400)
        assert fast[2] < precise[2]

    def test_homing_run_ends_before_delayed_pulse(self):
        def run(fast_path):
            sim, _planner, stepper, out = _routed_stepper(fast_path, "X_STEP")
            stepper.home_move("X", -1, 5.0, 20.0, None, lambda hit, steps: None)
            interval = int(1e9 / (20.0 * stepper.config.steps_per_mm["X"]))
            seen = []
            sim.schedule_at(2 * US + 50 * interval + 5, lambda: seen.append(out.pulse_count))
            sim.run(until_ns=10 * S)
            return seen, out.pulse_count, sim.events_dispatched

        precise, fast = run(False), run(True)
        assert precise[:2] == fast[:2]
        assert precise[0] == [50]
        assert fast[2] < precise[2]


# ----------------------------------------------------------------------
# Session-level equivalence (the contract, end to end)
# ----------------------------------------------------------------------
def _observables(result):
    """Everything the experiments score, as one comparable structure."""
    return {
        "status": result.status,
        "kill_reason": result.kill_reason,
        "duration_s": result.duration_s,
        "counts": result.final_counts(),
        "missed_steps": result.missed_steps,
        "transactions": [
            (t.index, t.x, t.y, t.z, t.e, t.time_ns)
            for t in result.capture.transactions
        ],
        "trace": {
            name: [
                (e.time_ns, e.kind, e.value)
                for e in result.tracer.trace(name).events
            ]
            for name in (result.tracer.signal_names if result.tracer else ())
        },
        "deposition": [
            (s.time_ns, s.x_mm, s.y_mm, s.z_mm, s.e_mm)
            for s in result.plant.trace.samples
        ],
        "thermal": [
            (repr(node.peak_temp_c), list(node.damage_events))
            for node in (result.plant.hotend, result.plant.bed)
        ],
        "fan_profile": list(result.plant.fan_profile),
        "mux": (
            result.board.events_intercepted,
            result.board.events_dropped,
            result.board.events_replaced,
            result.board.events_injected,
            result.board.fabric.forwarded_events,
        ),
        "trojan": {
            name: value
            for name, value in (vars(result.trojan) if result.trojan else {}).items()
            if isinstance(value, (bool, int, float))
        },
    }


def _pair(tiny_program, trojan_id=None, trojan_params=None, **kwargs):
    # Each run needs its own Trojan instance: a Trojan attaches exactly once.
    def trojan():
        if trojan_id is None:
            return None
        params = TABLE1_TROJAN_PARAMS[trojan_id] if trojan_params is None else trojan_params
        return make_trojan(trojan_id, **dict(params))

    precise = run_print(tiny_program, fast_path=False, trojan=trojan(), **kwargs)
    fast = run_print(tiny_program, fast_path=True, trojan=trojan(), **kwargs)
    return precise, fast


class TestSessionEquivalence:
    def test_clean_print_with_full_trace(self, tiny_program):
        precise, fast = _pair(tiny_program, trace_signals=True)
        assert _observables(precise) == _observables(fast)
        assert fast.events_dispatched < precise.events_dispatched  # it batched

    def test_noisy_print(self, tiny_program):
        precise, fast = _pair(tiny_program, noise_sigma=0.0005, noise_seed=17)
        assert _observables(precise) == _observables(fast)

    def test_t2_extrusion_trojan(self, tiny_program):
        # T2 masks E_STEP pulses through the FPGA mux: batches carry its
        # accumulator and retraction debt and land 13 ns late downstream.
        precise, fast = _pair(
            tiny_program, trojan_id="T2", trojan_seed=42, grace_s=5.0
        )
        assert precise.trojan.pulses_masked > 0
        assert _observables(precise) == _observables(fast)
        assert fast.events_dispatched < precise.events_dispatched

    def test_t3_retraction_trojan(self, tiny_program):
        # T3 intercepts E_STEP and reads Y timing from inside the intercept:
        # the strongest cross-wire ordering dependency in the suite.
        precise, fast = _pair(
            tiny_program, trojan_id="T3", trojan_seed=42, grace_s=5.0
        )
        assert precise.trojan.retraction_pulses_affected > 0
        assert _observables(precise) == _observables(fast)

    def test_t3_under_injects_identically(self, tiny_program):
        # ``under`` doubles retraction pulses by injection: the batched mux
        # merges the injected twins with the delayed kept pulses.
        precise, fast = _pair(
            tiny_program,
            trojan_id="T3",
            trojan_params=dict(mode="under"),
            trojan_seed=42,
            grace_s=5.0,
        )
        assert precise.board.events_injected > 0
        assert _observables(precise) == _observables(fast)

    def test_every_signal_through_the_fpga(self, tiny_program):
        # The overhead experiment's routing: every Arduino-to-RAMPS signal,
        # homing's STEP wires included, crosses the mux 13 ns late.
        def run(fast_path):
            return execute_spec(
                SessionSpec(
                    program=tiny_program,
                    trace_signals=True,
                    route_all_through_fpga=True,
                    fast_path=fast_path,
                )
            )

        precise, fast = run(False), run(True)
        assert precise.board.fabric.forwarded_events > 0
        assert _observables(precise) == _observables(fast)
        assert fast.events_dispatched < precise.events_dispatched

    def test_handler_without_batch_forces_per_pulse(self, tiny_program):
        # A pass-through handler with no batch form beside T2 on E_STEP must
        # veto every E batch; the session still matches the precise run.
        def run(fast_path):
            trojan = make_trojan("T2", **dict(TABLE1_TROJAN_PARAMS["T2"]))
            session = PrintSession(
                tiny_program, trojan=trojan, trojan_seed=42, fast_path=fast_path
            )
            offered = []
            session.board.register_interceptor(
                "E_STEP", lambda path, kind, value, t: offered.append(t)
            )
            return session.run(grace_s=5.0), offered

        (precise, precise_offered), (fast, fast_offered) = run(False), run(True)
        assert _observables(precise) == _observables(fast)
        # Every pulse T2 let through reached the plain handler individually,
        # at its own time, exactly as in the precise run.
        assert fast_offered == precise_offered
        assert len(fast_offered) == fast.board.events_intercepted - fast.trojan.pulses_masked > 0

    def test_vetoed_window_batches_its_approved_prefix(self, tiny_program):
        # A consumer on X_STEP that takes at most 3 pulses per batch: each
        # vetoed window still sends the steps it approves in bulk, and the
        # session and every X pulse time still match the precise run.
        def run(fast_path):
            session = PrintSession(tiny_program, fast_path=fast_path)
            times, batches = [], []

            def batch(_wire, ts, _width):
                times.extend(ts.tolist())
                batches.append(len(ts))

            session.harness.upstream("X_STEP").on_pulse(
                lambda _wire, t, _width: times.append(t),
                batch=batch,
                ready=lambda count: count <= 3,
            )
            return session.run(), times, batches

        (precise, precise_times, _), (fast, fast_times, batches) = run(False), run(True)
        assert _observables(precise) == _observables(fast)
        assert fast_times == precise_times
        assert max(batches) == 3
        assert sum(batches) > len(fast_times) // 2

    def test_t6_thermal_kill(self, tiny_program):
        precise, fast = _pair(
            tiny_program, trojan_id="T6", trojan_seed=42, grace_s=5.0
        )
        assert precise.killed and fast.killed
        assert _observables(precise) == _observables(fast)

    def test_t7_damage_after_kill(self, tiny_program):
        precise, fast = _pair(
            tiny_program, trojan_id="T7", trojan_seed=42, grace_s=30.0
        )
        assert _observables(precise) == _observables(fast)
        assert precise.plant.hotend.damaged == fast.plant.hotend.damaged

    def test_t8_missed_steps(self, tiny_program):
        precise, fast = _pair(
            tiny_program, trojan_id="T8", trojan_seed=42, grace_s=5.0
        )
        assert precise.missed_steps > 0
        assert _observables(precise) == _observables(fast)

    def test_homing_and_endstops_identical(self, tiny_program):
        # Homing moves emit batched runs; the endstop range vetoes keep each
        # tripping step precise, and keep ordinary motion off the endstops'
        # backs, so every stop lands at the same event.
        precise, fast = _pair(tiny_program)
        assert _observables(precise) == _observables(fast)
        homing = parse_program("G28")
        precise, fast = (run_print(homing, fast_path=flag) for flag in (False, True))
        assert _observables(precise) == _observables(fast)
        assert precise.firmware.state.homed_axes == {"X", "Y", "Z"}
        assert fast.events_dispatched < precise.events_dispatched


# ----------------------------------------------------------------------
# Periodic observers off the heap, and the watchers that bring them back
# ----------------------------------------------------------------------
def _run_counting(session, **run_kwargs):
    """Run ``session``; count scheduled events by callback (periodic tasks
    by the callback they run)."""
    names = {}
    schedule_at = session.sim.schedule_at

    def spy(time_ns, callback, *args):
        owner = getattr(callback, "__self__", None)
        runs = owner._callback if isinstance(owner, PeriodicTask) else callback
        name = getattr(runs, "__qualname__", repr(runs))
        names[name] = names.get(name, 0) + 1
        return schedule_at(time_ns, callback, *args)

    session.sim.schedule_at = spy
    return session.run(**run_kwargs), names


_REFRESH = "RampsBoard._refresh_thermistors"
_EXPORTS = ("UartExporter._export", "UartExporter._send_due")


class TestPeriodicObserversOffTheHeap:
    def test_fast_session_schedules_no_refresh_or_export(self, tiny_program):
        precise, precise_names = _run_counting(PrintSession(tiny_program, fast_path=False))
        fast, fast_names = _run_counting(PrintSession(tiny_program, fast_path=True))
        assert precise_names[_REFRESH] > 1000
        assert precise_names["UartExporter._export"] > 100
        assert precise_names["HeaterController.tick"] > 1000
        for name in (_REFRESH, *_EXPORTS, "HeaterController.tick"):
            assert name not in fast_names
        # One event ticks both heaters.
        assert 2 * fast_names["MarlinFirmware._tick_heaters"] == precise_names[
            "HeaterController.tick"
        ]
        assert _observables(fast) == _observables(precise)

    def test_tracer_on_the_thermistor_keeps_the_refresh(self, tiny_program):
        runs = []
        for fast_path in (False, True):
            session = PrintSession(tiny_program, fast_path=fast_path)
            tracer = Tracer()
            tracer.watch([session.harness.upstream("T0_HOTEND")])
            result, names = _run_counting(session)
            events = [(e.time_ns, e.value) for e in tracer.trace("T0_HOTEND.up").events]
            runs.append((result, events, names))
        (precise, precise_events, _), (fast, fast_events, fast_names) = runs
        assert fast_names[_REFRESH] > 1000
        assert len(precise_events) > 1000
        assert fast_events == precise_events
        assert _observables(fast) == _observables(precise)

    def test_live_bus_listener_keeps_the_export(self, tiny_program):
        runs = []
        for fast_path in (False, True):
            session = PrintSession(tiny_program, fast_path=fast_path)
            frames = []
            session.uart_bus.on_frame(
                lambda t, frame, sim=session.sim: frames.append((sim.now, t, frame))
            )
            result, names = _run_counting(session)
            runs.append((result, frames, names))
        (precise, precise_frames, _), (fast, fast_frames, fast_names) = runs
        assert fast_names["UartExporter._send_due"] > 100
        assert len(precise_frames) > 100
        assert all(now == t for now, t, _frame in fast_frames)  # sent on time
        assert fast_frames == precise_frames
        assert _observables(fast) == _observables(precise)

    def test_commands_pumped_onto_a_refresh_instant(self):
        # After the M109 wait the pump runs one M105 every 2 ms, so every
        # 25th lands on a 50 ms refresh instant, scheduled less than a
        # refresh period ahead: it reports that instant's refresh on both
        # paths, not the one before.
        lines = ["M140 S60", "M104 S200", "M109 S200"] + ["M105"] * 120 + ["M104 S0"]
        program = parse_program("\n".join(lines))
        precise = run_print(program, fast_path=False)
        fast = run_print(program, fast_path=True)
        on_instant = [
            line for line in precise.firmware.log if int(line[1 : line.index("]")]) % (50 * MS) == 0
        ]
        assert len(on_instant) >= 4
        assert fast.firmware.log == precise.firmware.log
        assert _observables(fast) == _observables(precise)
