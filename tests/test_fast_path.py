"""Fast path vs precise path: the byte-identical-verdict contract, unit-level.

Three layers of pinning:

- **Property test** — random trapezoid profiles through the scalar
  :meth:`StepperExecutor._step_times` and the vectorized
  :meth:`StepperExecutor._step_times_array` must produce *exactly* the same
  integers, including the nondecreasing-clamp ties. This is the equality the
  whole fast path rests on.
- **Wire batch protocol** — ``pulse_batch`` must update wire statistics
  exactly as the equivalent sequence of ``pulse`` calls would, and any
  subscriber that is not batch-capable (or whose ``ready`` check declines)
  must veto bulk delivery.
- **Session equivalence** — full simulated prints (clean, Trojaned,
  thermal-kill) must be observably identical fast vs precise:
  status, kill reason, duration, axis totals, missed steps, every captured
  UART transaction, and — when traced — every wire trace event.
"""

import random

import numpy as np
import pytest

from repro.core.trojans import make_trojan
from repro.electronics.harness import SignalHarness
from repro.experiments.runner import run_print
from repro.experiments.scenario import TABLE1_TROJAN_PARAMS
from repro.firmware.config import MarlinConfig
from repro.firmware.planner import MotionBlock, MotionPlanner
from repro.firmware.stepper import StepperExecutor
from repro.sim.kernel import Simulator
from repro.sim.signals import StepWire


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
            wire.on_pulse(lambda w, t, wd: None, batch=lambda w, ts, wd: None)
            for t in history:
                sim.run(until_ns=t)
                wire.pulse(history_width)
            if batched:
                wire.pulse_batch(np.asarray(batch, dtype=np.int64), batch_width)
            else:
                for t in batch:
                    sim.run(until_ns=t)
                    wire.pulse(batch_width)
            return wire

        sequential, batched = replayed(False), replayed(True)
        for attr in ("pulse_count", "last_pulse_ns", "min_interval_ns", "min_width_ns"):
            assert getattr(batched, attr) == getattr(sequential, attr), attr

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
    }


def _pair(tiny_program, trojan_id=None, **kwargs):
    # Each run needs its own Trojan instance: a Trojan attaches exactly once.
    def trojan():
        if trojan_id is None:
            return None
        return make_trojan(trojan_id, **dict(TABLE1_TROJAN_PARAMS[trojan_id]))

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

    def test_t3_retraction_trojan(self, tiny_program):
        # T3 intercepts E_STEP and reads Y timing from inside the intercept:
        # the strongest cross-wire ordering dependency in the suite.
        precise, fast = _pair(
            tiny_program, trojan_id="T3", trojan_seed=42, grace_s=5.0
        )
        assert _observables(precise) == _observables(fast)

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
        # Homing runs precise by construction; the equality here proves the
        # endstop range vetoes keep ordinary motion off the endstops' backs.
        precise, fast = _pair(tiny_program)
        assert _observables(precise) == _observables(fast)
