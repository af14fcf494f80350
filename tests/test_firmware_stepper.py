"""Stepper executor tests: exact step emission, timing, homing moves."""

import pytest

from repro.electronics.harness import SignalHarness
from repro.firmware.config import MarlinConfig
from repro.firmware.planner import MotionPlanner
from repro.firmware.stepper import StepperExecutor
from repro.sim.time import S
from repro.sim.trace import Tracer


def _bench(sim, **config_kwargs):
    config = MarlinConfig(**config_kwargs)
    harness = SignalHarness(sim)
    planner = MotionPlanner(config)
    stepper = StepperExecutor(sim, config, harness, planner)
    return harness, planner, stepper


class TestBlockExecution:
    def test_exact_step_counts(self, sim):
        harness, planner, stepper = _bench(sim)
        planner.add_move({"X": 1000, "Y": 700}, 50.0)
        stepper.wake()
        sim.run(until_ns=60 * S)
        assert harness.upstream("X_STEP").pulse_count == 1000
        assert harness.upstream("Y_STEP").pulse_count == 700
        assert stepper.steps_emitted["X"] == 1000
        assert stepper.steps_emitted["Y"] == 700

    def test_negative_steps_set_dir_low(self, sim):
        harness, planner, stepper = _bench(sim)
        planner.add_move({"X": -500}, 50.0)
        stepper.wake()
        sim.run(until_ns=60 * S)
        assert harness.upstream("X_DIR").value == 0
        assert stepper.steps_emitted["X"] == -500

    def test_enable_asserted_on_motion(self, sim):
        harness, planner, stepper = _bench(sim)
        assert harness.upstream("X_EN").value == 1  # disabled at boot
        planner.add_move({"X": 10}, 50.0)
        stepper.wake()
        assert harness.upstream("X_EN").value == 0

    def test_blocks_chain_without_gap(self, sim):
        harness, planner, stepper = _bench(sim)
        planner.add_move({"X": 500}, 50.0)
        planner.add_move({"X": 500}, 50.0)
        stepper.wake()
        sim.run(until_ns=60 * S)
        assert stepper.blocks_executed == 2
        assert harness.upstream("X_STEP").pulse_count == 1000

    def test_duration_close_to_kinematic_estimate(self, sim):
        harness, planner, stepper = _bench(sim)
        # 50mm at 50mm/s with accel 1000: t = d/v + v/a = 1.0 + 0.05 = 1.05s
        planner.add_move({"X": 5000}, 50.0)
        stepper.wake()
        done_at = []
        stepper.on_idle.append(lambda: done_at.append(sim.now))
        sim.run(until_ns=60 * S)
        assert done_at and done_at[0] / 1e9 == pytest.approx(1.05, rel=0.05)

    def test_cruise_step_rate_matches_feedrate(self, sim):
        harness, planner, stepper = _bench(sim)
        tracer = Tracer()
        tracer.watch_one(harness.upstream("X_STEP"))
        planner.add_move({"X": 10_000}, 100.0)  # long cruise at 100mm/s
        stepper.wake()
        sim.run(until_ns=60 * S)
        # 100 mm/s * 100 steps/mm = 10 kHz -> min interval 100 us
        assert tracer.trace("X_STEP.up").min_interval_ns == pytest.approx(100_000, rel=0.05)

    def test_multi_axis_bresenham_exact(self, sim):
        harness, planner, stepper = _bench(sim)
        planner.add_move({"X": 997, "Y": 311, "Z": 89, "E": 13}, 40.0)
        stepper.wake()
        sim.run(until_ns=120 * S)
        assert harness.upstream("X_STEP").pulse_count == 997
        assert harness.upstream("Y_STEP").pulse_count == 311
        assert harness.upstream("Z_STEP").pulse_count == 89
        assert harness.upstream("E_STEP").pulse_count == 13

    def test_abort_stops_mid_block(self, sim):
        harness, planner, stepper = _bench(sim)
        planner.add_move({"X": 10_000}, 10.0)
        stepper.wake()
        sim.run(until_ns=1 * S)
        stepper.abort()
        emitted = harness.upstream("X_STEP").pulse_count
        assert 0 < emitted < 10_000
        sim.run(until_ns=60 * S)
        assert harness.upstream("X_STEP").pulse_count == emitted
        assert stepper.idle

    def test_disable_steppers(self, sim):
        harness, planner, stepper = _bench(sim)
        stepper.enable_steppers()
        stepper.disable_steppers(["X"])
        assert harness.upstream("X_EN").value == 1
        assert harness.upstream("Y_EN").value == 0


class TestTimeNoise:
    def _total_duration(self, sigma, seed):
        from repro.sim.kernel import Simulator

        sim = Simulator()
        harness, planner, stepper = _bench(
            sim, time_noise_sigma=sigma, time_noise_seed=seed
        )
        for _ in range(5):
            planner.add_move({"X": 2000}, 50.0)
            planner.add_move({"X": -2000}, 50.0)
        stepper.wake()
        done = []
        stepper.on_idle.append(lambda: done.append(sim.now))
        sim.run(until_ns=300 * S)
        return done[0]

    def test_noise_changes_timing(self):
        base = self._total_duration(0.0, 0)
        noisy = self._total_duration(0.005, 1)
        assert noisy != base
        assert abs(noisy - base) / base < 0.02  # bounded wander

    def test_noise_is_deterministic_per_seed(self):
        assert self._total_duration(0.005, 7) == self._total_duration(0.005, 7)

    def test_different_seeds_differ(self):
        assert self._total_duration(0.005, 1) != self._total_duration(0.005, 2)

    def test_step_counts_unaffected_by_noise(self, sim):
        harness, planner, stepper = _bench(sim, time_noise_sigma=0.01, time_noise_seed=3)
        planner.add_move({"X": 1234}, 60.0)
        stepper.wake()
        sim.run(until_ns=60 * S)
        assert harness.upstream("X_STEP").pulse_count == 1234


class TestHomeMove:
    def test_stops_on_condition(self, sim):
        harness, planner, stepper = _bench(sim)
        hit_state = {"steps": 0}
        results = []

        def stop_when():
            return hit_state["steps"] >= 250

        harness.upstream("X_STEP").on_pulse(
            lambda w, t, width: hit_state.__setitem__("steps", hit_state["steps"] + 1)
        )
        stepper.home_move("X", -1, 100.0, 50.0, stop_when, lambda hit, n: results.append((hit, n)))
        sim.run(until_ns=60 * S)
        assert results and results[0][0] is True
        assert results[0][1] == pytest.approx(250, abs=2)

    def test_gives_up_at_max_travel(self, sim):
        harness, planner, stepper = _bench(sim)
        results = []
        stepper.home_move("X", -1, 5.0, 50.0, lambda: False, lambda hit, n: results.append((hit, n)))
        sim.run(until_ns=60 * S)
        assert results == [(False, 500)]

    def test_busy_stepper_rejects_homing(self, sim):
        from repro.errors import FirmwareError

        harness, planner, stepper = _bench(sim)
        planner.add_move({"X": 5000}, 10.0)
        stepper.wake()
        with pytest.raises(FirmwareError):
            stepper.home_move("X", -1, 5.0, 50.0, None, lambda hit, n: None)
