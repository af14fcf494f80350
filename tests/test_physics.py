"""Physics tests: kinematics, thermal model, deposition, quality metrics."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PlantError
from repro.physics.deposition import PartTrace, TraceSample
from repro.physics.kinematics import AxisMechanics
from repro.physics.printer import PlantProfile, PrinterPlant
from repro.physics.quality import compare_traces
from repro.physics.thermal import ThermalNode
from repro.sim.kernel import Simulator
from repro.sim.time import MS, S


class TestAxisMechanics:
    def test_step_integration(self, sim):
        axis = AxisMechanics("X", steps_per_mm=100.0)
        for _ in range(250):
            axis.step(1, 0)
        assert axis.position_mm == pytest.approx(2.5)

    def test_bidirectional(self, sim):
        axis = AxisMechanics("X", 100.0, start_mm=1.0)
        axis.step(-1, 0)
        assert axis.position_steps == 99

    def test_travel_limits_cause_crash_steps(self, sim):
        axis = AxisMechanics("X", 100.0, min_mm=0.0, max_mm=1.0, start_mm=0.0)
        for _ in range(150):
            axis.step(1, 0)
        assert axis.position_mm == pytest.approx(1.0)
        assert axis.crash_steps == 50

    def test_min_limit(self, sim):
        axis = AxisMechanics("X", 100.0, min_mm=0.0, start_mm=0.0)
        axis.step(-1, 0)
        assert axis.position_mm == 0.0
        assert axis.crash_steps == 1

    def test_move_listeners(self, sim):
        axis = AxisMechanics("X", 100.0)
        seen = []
        axis.on_move(lambda name, pos, t: seen.append((name, pos, t)))
        axis.step(1, 42)
        assert seen == [("X", 0.01, 42)]

    def test_invalid_direction(self, sim):
        axis = AxisMechanics("X", 100.0)
        with pytest.raises(PlantError):
            axis.step(2, 0)

    def test_invalid_config(self):
        with pytest.raises(PlantError):
            AxisMechanics("X", 0.0)
        with pytest.raises(PlantError):
            AxisMechanics("X", 100.0, min_mm=5.0, max_mm=1.0)


class TestThermalNode:
    def _node(self, sim, **kwargs):
        defaults = dict(
            heat_capacity_j_per_k=6.0, loss_w_per_k=0.17, ambient_c=25.0
        )
        defaults.update(kwargs)
        return ThermalNode(sim, "hotend", **defaults)

    def test_starts_at_ambient(self, sim):
        assert self._node(sim).temperature_c() == 25.0

    def test_heats_toward_steady_state(self, sim):
        node = self._node(sim)
        node.set_power(50.0)
        sim.run(until_ns=600 * S)
        assert node.temperature_c() == pytest.approx(node.steady_state_c, abs=1.0)

    def test_exact_exponential(self, sim):
        node = self._node(sim)
        node.set_power(50.0)
        tau = node.tau_s
        sim.run(until_ns=int(tau * S))
        expected = node.steady_state_c + (25.0 - node.steady_state_c) * math.exp(-1.0)
        assert node.temperature_c() == pytest.approx(expected, rel=1e-6)

    def test_cooling_after_power_off(self, sim):
        node = self._node(sim)
        node.set_power(50.0)
        sim.run(until_ns=100 * S)
        hot = node.temperature_c()
        node.set_power(0.0)
        sim.run(until_ns=400 * S)
        assert node.temperature_c() < hot
        assert node.temperature_c() > 25.0

    def test_peak_tracking(self, sim):
        node = self._node(sim)
        node.set_power(50.0)
        sim.run(until_ns=100 * S)
        node.temperature_c()
        node.set_power(0.0)
        sim.run(until_ns=500 * S)
        node.temperature_c()
        assert node.peak_temp_c > node.temperature_c()

    def test_damage_event_scheduled_and_fires(self, sim):
        node = self._node(sim, damage_temp_c=200.0)
        node.set_power(50.0)  # steady state ~319C crosses 200C
        sim.run(until_ns=600 * S)
        assert node.damaged
        event = node.damage_events[0]
        assert event.temperature_c == pytest.approx(200.0, abs=1.0)

    def test_damage_not_fired_when_unreachable(self, sim):
        node = self._node(sim, damage_temp_c=500.0)
        node.set_power(50.0)
        sim.run(until_ns=600 * S)
        assert not node.damaged

    def test_damage_cancelled_by_power_cut(self, sim):
        node = self._node(sim, damage_temp_c=200.0)
        node.set_power(50.0)
        sim.run(until_ns=5 * S)
        node.set_power(0.0)  # cut before crossing
        sim.run(until_ns=600 * S)
        assert not node.damaged

    def test_negative_power_rejected(self, sim):
        with pytest.raises(PlantError):
            self._node(sim).set_power(-1.0)

    @given(
        st.floats(min_value=1.0, max_value=60.0),
        st.floats(min_value=0.0, max_value=50.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_temperature_bounded_by_ambient_and_steady(self, query_s, power):
        sim = Simulator()
        node = ThermalNode(sim, "n", 6.0, 0.17, ambient_c=25.0)
        node.set_power(power)
        sim.run(until_ns=int(query_s * S))
        temp = node.temperature_c()
        assert 25.0 - 1e-9 <= temp <= max(node.steady_state_c, 25.0) + 1e-9

    @given(st.floats(min_value=0.5, max_value=50.0))
    @settings(max_examples=40, deadline=None)
    def test_heating_is_monotonic(self, power):
        sim = Simulator()
        node = ThermalNode(sim, "n", 6.0, 0.17, ambient_c=25.0)
        node.set_power(power)
        previous = node.temperature_c()
        for step in range(1, 10):
            sim.run(until_ns=step * 10 * S)
            current = node.temperature_c()
            assert current >= previous - 1e-9
            previous = current


def _synthetic_trace(layer_zs, xy_scale=1.0, e_per_seg=0.1, shift=(0.0, 0.0)):
    """Build a simple two-segment-per-layer trace for metric tests."""
    trace = PartTrace()
    t, e = 0, 0.0
    for z in layer_zs:
        points = [
            (0.0 + shift[0], 0.0 + shift[1]),
            (10.0 * xy_scale + shift[0], 0.0 + shift[1]),
            (10.0 * xy_scale + shift[0], 10.0 * xy_scale + shift[1]),
        ]
        trace.add_sample(TraceSample(t, points[0][0], points[0][1], z, e))
        for x, y in points[1:]:
            t += 1000
            e += e_per_seg
            trace.add_sample(TraceSample(t, x, y, z, e))
        t += 1000
    return trace


class TestPartTrace:
    def test_layer_grouping(self):
        trace = _synthetic_trace([0.3, 0.6, 0.9])
        assert len(trace.layers()) == 3

    def test_z_spacings(self):
        trace = _synthetic_trace([0.3, 0.6, 1.2])
        assert trace.z_spacings() == [pytest.approx(0.3), pytest.approx(0.6)]

    def test_net_extrusion(self):
        trace = _synthetic_trace([0.3], e_per_seg=0.5)
        assert trace.total_extruded_mm == pytest.approx(1.0)

    def test_gross_vs_net_with_retraction(self):
        trace = PartTrace()
        trace.add_sample(TraceSample(0, 0, 0, 0.3, 0.0))
        trace.add_sample(TraceSample(1000, 5, 0, 0.3, 1.0))
        trace.add_sample(TraceSample(2000, 5, 0, 0.3, 0.2))  # retract
        trace.add_sample(TraceSample(3000, 6, 0, 0.3, 1.0))  # prime
        assert trace.total_extruded_mm == pytest.approx(1.0)
        assert trace.gross_extruded_mm == pytest.approx(1.8)

    def test_centroid_drift_zero_for_identical_layers(self):
        trace = _synthetic_trace([0.3, 0.6])
        drift = trace.layer_centroid_drift()
        assert max(drift) == pytest.approx(0.0, abs=1e-9)

    def test_duration(self):
        trace = _synthetic_trace([0.3])
        assert trace.duration_ns == 2000


class TestQualityMetrics:
    def test_identical_traces_are_nominal(self):
        golden = _synthetic_trace([0.3, 0.6, 0.9])
        report = compare_traces(golden, _synthetic_trace([0.3, 0.6, 0.9]))
        assert report.nominal
        assert report.flow_ratio == pytest.approx(1.0)

    def test_underextrusion_detected(self):
        golden = _synthetic_trace([0.3, 0.6])
        suspect = _synthetic_trace([0.3, 0.6], e_per_seg=0.05)
        report = compare_traces(golden, suspect)
        assert report.underextruded
        assert report.flow_ratio == pytest.approx(0.5)

    def test_layer_shift_detected(self):
        golden = _synthetic_trace([0.3, 0.6])
        suspect = _synthetic_trace([0.3, 0.6], shift=(1.0, 0.0))
        report = compare_traces(golden, suspect)
        assert report.max_centroid_shift_mm == pytest.approx(1.0, abs=0.01)
        assert report.geometry_compromised

    def test_delamination_detected(self):
        golden = _synthetic_trace([0.3, 0.6, 0.9])
        suspect = _synthetic_trace([0.3, 1.0, 1.3])
        report = compare_traces(golden, suspect)
        assert report.delaminated

    def test_bbox_growth_detected(self):
        golden = _synthetic_trace([0.3])
        suspect = _synthetic_trace([0.3], xy_scale=1.2)
        report = compare_traces(golden, suspect)
        assert report.max_bbox_growth_mm == pytest.approx(2.0, abs=0.01)

    def test_anomaly_listing(self):
        golden = _synthetic_trace([0.3, 0.6])
        suspect = _synthetic_trace([0.3, 0.6], e_per_seg=0.05)
        anomalies = compare_traces(golden, suspect).anomalies()
        assert any("under-extrusion" in a for a in anomalies)


class TestPrinterPlant:
    def test_motor_step_moves_axis(self, sim):
        plant = PrinterPlant(sim)
        start = plant.position_mm("X")
        plant.motor_step("X", 1, 0)
        assert plant.position_mm("X") == pytest.approx(start + 0.01)

    def test_unknown_axis_rejected(self, sim):
        plant = PrinterPlant(sim)
        with pytest.raises(PlantError):
            plant.motor_step("Q", 1, 0)

    def test_fan_profile_recorded(self, sim):
        plant = PrinterPlant(sim)
        plant.set_fan_duty(0.5, 100)
        plant.set_fan_duty(1.0, 200)
        assert plant.fan_profile[-1] == (200, 1.0)

    def test_mean_fan_duty_time_weighted(self, sim):
        plant = PrinterPlant(sim)
        plant.set_fan_duty(1.0, 0)
        sim.run(until_ns=10 * S)
        assert plant.mean_fan_duty() == pytest.approx(1.0, abs=0.01)

    def test_sampling_produces_trace(self, sim):
        plant = PrinterPlant(sim)
        plant.start_sampling()
        sim.run(until_ns=1 * S)
        assert len(plant.trace) >= 50
        plant.stop_sampling()

    def test_sampling_schedules_no_events(self, sim):
        plant = PrinterPlant(sim)
        plant.start_sampling()
        assert sim.pending_events == 0
        sim.run(until_ns=1 * S)
        plant.stop_sampling()
        assert sim.events_dispatched == 0
        assert [s.time_ns for s in plant.trace.samples] == [k * 20 * MS for k in range(51)]

    def test_damage_summary_empty_when_clean(self, sim):
        plant = PrinterPlant(sim)
        assert not plant.damaged
        assert plant.damage_summary() == []


# ----------------------------------------------------------------------
# The lazy sample grid: axes record positions at grid instants as steps pass
# ----------------------------------------------------------------------
_PERIOD = 20 * MS


def _grid_axis():
    axis = AxisMechanics("X", 100.0, start_mm=5.0)
    axis.start_grid(1 * S, _PERIOD)
    return axis


def _random_runs(seed):
    """Nondecreasing pulse times cut into runs of one direction each.

    About a third of the pulses land exactly on a grid instant; the first
    run starts before the first instant and the last ends after the last.
    """
    rng = random.Random(seed)
    t = 1 * S - 3 * _PERIOD
    runs = []
    for _ in range(40):
        direction = rng.choice((1, -1))
        times = []
        for _ in range(rng.randint(1, 30)):
            if rng.random() < 0.3:
                t = (t // _PERIOD + rng.randint(0, 2)) * _PERIOD  # on the grid
            else:
                t += rng.choice((0, rng.randint(1, 3 * _PERIOD)))
            times.append(t)
        runs.append((direction, times))
    return runs, t + 2 * _PERIOD + 7


class TestSampleGrid:
    @pytest.mark.parametrize("seed", range(6))
    def test_batch_equals_single_steps(self, seed):
        runs, end = _random_runs(seed)
        single, batched = _grid_axis(), _grid_axis()
        for direction, times in runs:
            for t in times:
                single.step(direction, t)
            batched.step_batch(direction, np.array(times, dtype=np.int64))
        assert batched.position_steps == single.position_steps
        expected = single.take_grid(end)
        assert batched.take_grid(end) == expected
        assert len(expected) == (end - 1 * S) // _PERIOD + 1

    def test_grid_instant_sees_only_earlier_steps(self):
        axis = _grid_axis()
        axis.step_batch(1, np.array([1 * S - 1, 1 * S, 1 * S + _PERIOD], dtype=np.int64))
        axis.step(1, 1 * S + 2 * _PERIOD)
        assert axis.take_grid(1 * S + 2 * _PERIOD) == [5.01, 5.02, 5.03]
        assert axis.take_grid(1 * S + 3 * _PERIOD) == [5.04]

    @pytest.mark.parametrize("seed", range(4))
    def test_precise_events_match_reference_sampler(self, sim, seed):
        # X starts 5 steps above its travel limit, so runs toward it crash.
        profile = PlantProfile(start_position_mm={"X": 0.05, "Y": 12.0, "Z": 3.0, "E": 0.0})
        plant = PrinterPlant(sim, profile)
        reference = []

        def take_reference():
            reference.append(
                (sim.now, *(plant.position_mm(axis) for axis in ("X", "Y", "Z", "E")))
            )

        take_reference()
        sim.every(_PERIOD, take_reference)
        plant.start_sampling()
        rng = random.Random(seed)

        # Each step schedules the next less than one period later, as the
        # stepper does, so a step on a grid instant fires after the
        # reference sampler there.
        def step(left):
            axis = rng.choice(("X", "Y", "Z", "E"))
            plant.motor_step(axis, rng.choice((1, -1, -1)), sim.now)
            if left:
                on_grid = (sim.now // _PERIOD + 1) * _PERIOD - sim.now
                gap = on_grid if rng.random() < 0.2 else rng.randint(0, _PERIOD // 3)
                sim.schedule(gap, step, left - 1)

        sim.schedule(0, step, 3000)
        sim.run(until_ns=5 * S)
        plant.stop_sampling()
        assert plant.axes["X"].crash_steps > 0
        assert [
            (s.time_ns, s.x_mm, s.y_mm, s.z_mm, s.e_mm) for s in plant.trace.samples
        ] == reference

    def test_mid_run_reads_match_one_read_at_end(self):
        def run(read_times):
            sim = Simulator()
            plant = PrinterPlant(sim)
            plant.start_sampling()
            rng = random.Random(3)
            for t in range(0, 3 * S, 7 * MS):
                times = np.sort(
                    np.array([t + rng.randint(0, 60 * MS) for _ in range(20)], dtype=np.int64)
                )
                sim.schedule_at(t, plant.motor_step_batch, rng.choice("XYZE"), 1, times)
                sim.schedule_at(t + 3 * MS, plant.motor_step, rng.choice("XYZE"), -1, t + 3 * MS)
            reads = []
            for t in read_times:
                # Reads land on grid instants and inside batches' spans.
                sim.schedule_at(t, lambda: reads.append(list(plant.trace.samples)))
            sim.run(until_ns=4 * S)
            plant.stop_sampling()
            return reads, plant.trace.samples

        reads, samples = run([20 * MS, 21 * MS, 500 * MS, 1003 * MS, 2 * S])
        _, once = run([])
        assert samples == once
        assert len(once) == 4 * S // _PERIOD + 1
        for read in reads:
            assert read == once[: len(read)]
        assert [len(read) for read in reads] == [2, 2, 26, 51, 101]
