"""Tests for the FPGA monitoring modules."""

import random

import numpy as np
import pytest

from repro.core.capture import PulseCapture, Transaction
from repro.core.modules.axis_tracker import AxisTracker
from repro.core.modules.edge_detect import EdgeDetector
from repro.core.modules.homing_detect import HomingDetector
from repro.core.modules.pulse_gen import PulseGenerator
from repro.core.modules.uart_export import UartExporter
from repro.electronics.harness import SignalHarness
from repro.electronics.uart import UartBus, unpack_step_counts
from repro.errors import OfframpsError
from repro.sim.kernel import Simulator
from repro.sim.time import MS, S


class TestEdgeDetector:
    def test_counts_pulses(self, sim):
        harness = SignalHarness(sim)
        detector = EdgeDetector(harness.upstream("X_STEP"))
        for _ in range(5):
            harness.upstream("X_STEP").pulse()
        assert detector.rising_edges == 5

    def test_counts_rising_level_edges_only(self, sim):
        harness = SignalHarness(sim)
        detector = EdgeDetector(harness.upstream("X_MIN"))
        wire = harness.upstream("X_MIN")
        wire.drive(1)
        wire.drive(0)
        wire.drive(1)
        assert detector.rising_edges == 2

    def test_listener_fanout(self, sim):
        harness = SignalHarness(sim)
        detector = EdgeDetector(harness.upstream("X_STEP"))
        seen = []
        detector.on_rising(seen.append)
        sim.schedule_at(77, harness.upstream("X_STEP").pulse)
        sim.run()
        assert seen == [77]
        assert detector.last_event_ns == 77


class TestPulseGenerator:
    def test_burst_count_and_spacing(self, sim):
        times = []
        generator = PulseGenerator(sim, lambda width: times.append(sim.now))
        generator.burst(5, frequency_hz=1000.0)
        sim.run()
        assert len(times) == 5
        assert times[1] - times[0] == 1_000_000  # 1 kHz -> 1 ms

    def test_on_done_callback(self, sim):
        done = []
        generator = PulseGenerator(sim, lambda width: None)
        generator.burst(3, 1000.0, on_done=lambda: done.append(sim.now))
        sim.run()
        assert len(done) == 1
        assert generator.pulses_generated == 3

    def test_stop_mid_burst(self, sim):
        emitted = []
        generator = PulseGenerator(sim, lambda width: emitted.append(1))
        generator.burst(100, 1000.0)
        sim.run(until_ns=5_500_000)
        generator.stop()
        sim.run()
        assert len(emitted) == 5

    def test_busy_rejects_second_burst(self, sim):
        generator = PulseGenerator(sim, lambda width: None)
        generator.burst(10, 1000.0)
        with pytest.raises(OfframpsError):
            generator.burst(10, 1000.0)

    def test_invalid_burst_params(self, sim):
        generator = PulseGenerator(sim, lambda width: None)
        with pytest.raises(OfframpsError):
            generator.burst(0, 1000.0)


def _home_sequence(sim, harness, order=("X_MIN", "Y_MIN", "Z_MIN")):
    at = 100
    for name in order:
        sim.schedule_at(at, lambda n=name: harness.upstream(n).drive(1))
        sim.schedule_at(at + 50, lambda n=name: harness.upstream(n).drive(0))
        at += 100


class TestHomingDetector:
    def test_detects_ordered_sequence(self, sim):
        harness = SignalHarness(sim)
        detector = HomingDetector(harness)
        _home_sequence(sim, harness)
        sim.run()
        assert detector.homed
        assert detector.homed_at_ns == 300

    def test_repeated_actuations_ignored(self, sim):
        harness = SignalHarness(sim)
        detector = HomingDetector(harness)
        # X bounces twice (back-off + re-bump) before Y and Z
        for at, name, value in [
            (10, "X_MIN", 1), (20, "X_MIN", 0), (30, "X_MIN", 1),
            (40, "Y_MIN", 1), (50, "Z_MIN", 1),
        ]:
            sim.schedule_at(at, lambda n=name, v=value: harness.upstream(n).drive(v))
        sim.run()
        assert detector.homed

    def test_out_of_order_not_homed(self, sim):
        harness = SignalHarness(sim)
        detector = HomingDetector(harness)
        _home_sequence(sim, harness, order=("Z_MIN", "Y_MIN", "X_MIN"))
        sim.run()
        assert not detector.homed

    def test_on_homed_callback(self, sim):
        harness = SignalHarness(sim)
        detector = HomingDetector(harness)
        seen = []
        detector.on_homed(seen.append)
        _home_sequence(sim, harness)
        sim.run()
        assert seen == [300]

    def test_late_subscriber_fires_immediately(self, sim):
        harness = SignalHarness(sim)
        detector = HomingDetector(harness)
        _home_sequence(sim, harness)
        sim.run()
        seen = []
        detector.on_homed(seen.append)
        assert seen == [300]

    def test_reset(self, sim):
        harness = SignalHarness(sim)
        detector = HomingDetector(harness)
        _home_sequence(sim, harness)
        sim.run()
        detector.reset()
        assert not detector.homed


class TestAxisTracker:
    def test_counts_signed_steps(self, sim):
        harness = SignalHarness(sim)
        tracker = AxisTracker(harness)
        tracker.arm()
        harness.upstream("X_DIR").drive(1)
        for _ in range(10):
            harness.upstream("X_STEP").pulse()
        harness.upstream("X_DIR").drive(0)
        for _ in range(3):
            harness.upstream("X_STEP").pulse()
        assert tracker.counts["X"] == 7

    def test_ignores_steps_before_arming(self, sim):
        harness = SignalHarness(sim)
        tracker = AxisTracker(harness)
        harness.upstream("X_STEP").pulse()
        tracker.arm()
        assert tracker.counts["X"] == 0

    def test_arm_resets_counts(self, sim):
        harness = SignalHarness(sim)
        tracker = AxisTracker(harness)
        tracker.arm()
        harness.upstream("E_STEP").pulse()
        tracker.arm()
        assert tracker.counts["E"] == 0

    def test_first_step_event(self, sim):
        harness = SignalHarness(sim)
        tracker = AxisTracker(harness)
        seen = []
        tracker.arm()
        tracker.on_first_step(seen.append)
        sim.schedule_at(500, harness.upstream("Y_STEP").pulse)
        sim.schedule_at(600, harness.upstream("Y_STEP").pulse)
        sim.run()
        assert seen == [500]

    def test_snapshot_is_copy(self, sim):
        harness = SignalHarness(sim)
        tracker = AxisTracker(harness)
        tracker.arm()
        snap = tracker.snapshot()
        harness.upstream("X_STEP").pulse()
        assert snap["X"] == 0


class TestUartExporter:
    def _bench(self, sim, period_ms=100):
        harness = SignalHarness(sim)
        detector = HomingDetector(harness)
        tracker = AxisTracker(harness)
        bus = UartBus()
        exporter = UartExporter(sim, tracker, detector, bus=bus, period_ms=period_ms)
        capture = PulseCapture(bus)
        return harness, detector, tracker, exporter, capture

    def test_no_export_before_homing(self, sim):
        harness, detector, tracker, exporter, capture = self._bench(sim)
        sim.run(until_ns=2 * S)
        assert len(capture) == 0

    def test_export_starts_after_first_step(self, sim):
        harness, detector, tracker, exporter, capture = self._bench(sim)
        _home_sequence(sim, harness)
        sim.schedule_at(1 * S, harness.upstream("X_STEP").pulse)
        sim.run(until_ns=int(1.55 * S))
        # first step at 1s; transactions at 1.1s, 1.2s, ... 1.5s
        assert len(capture) == 5
        assert capture[0].time_ns == 1 * S + 100 * MS

    def test_transaction_contents(self, sim):
        harness, detector, tracker, exporter, capture = self._bench(sim)
        _home_sequence(sim, harness)
        harness.upstream("X_DIR").drive(1)
        sim.schedule_at(1 * S, harness.upstream("X_STEP").pulse)
        sim.schedule_at(int(1.05 * S), harness.upstream("X_STEP").pulse)
        sim.run(until_ns=int(1.15 * S))
        assert capture[0].x == 2
        assert capture[0].index == 1

    def test_custom_period(self, sim):
        harness, detector, tracker, exporter, capture = self._bench(sim, period_ms=50)
        _home_sequence(sim, harness)
        sim.schedule_at(1 * S, harness.upstream("X_STEP").pulse)
        sim.run(until_ns=int(1.26 * S))
        assert len(capture) == 5

    def test_stop_ends_stream(self, sim):
        harness, detector, tracker, exporter, capture = self._bench(sim)
        _home_sequence(sim, harness)
        sim.schedule_at(1 * S, harness.upstream("X_STEP").pulse)
        sim.run(until_ns=int(1.35 * S))
        exporter.stop()
        sim.run(until_ns=3 * S)
        assert len(capture) == 3

    def test_invalid_period(self, sim):
        harness = SignalHarness(sim)
        detector = HomingDetector(harness)
        tracker = AxisTracker(harness)
        with pytest.raises(OfframpsError):
            UartExporter(sim, tracker, detector, period_ms=0)

    def test_frames_are_16_bytes(self, sim):
        harness, detector, tracker, exporter, capture = self._bench(sim)
        frames = []
        exporter.bus.on_frame(lambda t, frame: frames.append(frame))
        _home_sequence(sim, harness)
        sim.schedule_at(1 * S, harness.upstream("X_STEP").pulse)
        sim.run(until_ns=int(1.25 * S))
        assert frames and all(len(frame) == 16 for frame in frames)
        assert unpack_step_counts(frames[0])[0] == tracker.counts["X"]


class TestRebuiltUartSnapshots:
    """The fast exporter's rebuilt snapshots against the per-event exporter.

    Both benches see the same STEP traffic after homing. The reference
    dispatches one kernel event per pulse and exports by periodic event;
    the fast bench emits each run of pulses from one event at its first
    pulse (as a stepper chunk does) and takes no export event at all.
    Every event schedules the next one less than a period ahead, as the
    stepper does, so a pulse exactly on an export instant comes after
    that export on both benches.
    """

    @staticmethod
    def _runs(seed):
        """``(axis, direction, times_ns)`` runs, time-ordered per axis."""
        rng = random.Random(seed)
        # The first step starts the export grid (whole 100 ms instants from
        # here) and must come alone: the tracker vetoes batches until then.
        runs, t = [("X", 1, np.array([1 * S], dtype=np.int64))], 1 * S + 1
        for _ in range(120):
            axis = rng.choice(["X", "Y", "Z", "E"])
            count = rng.choice([1, 1, 2, rng.randint(3, 400)])
            if rng.random() < 0.3:
                t = (t // (100 * MS) + rng.randint(1, 3)) * 100 * MS  # on an export instant
            else:
                t += rng.randint(1, 250 * MS)
            spacing = rng.choice([1, 1_000, 150_000, 2 * MS])
            times = t + spacing * np.arange(count, dtype=np.int64)
            if rng.random() < 0.2:
                # pull one pulse onto a later export instant inside the run
                k = rng.randrange(count)
                times[k:] += -int(times[k]) % (100 * MS)
            runs.append((axis, rng.choice([0, 1]), times))
            t = int(times[-1]) + 1
        return runs

    @staticmethod
    def _bench(sim, fast_path):
        harness = SignalHarness(sim)
        detector = HomingDetector(harness)
        tracker = AxisTracker(harness)
        bus = UartBus()
        exporter = UartExporter(sim, tracker, detector, bus=bus, fast_path=fast_path)
        capture = PulseCapture(bus)
        return harness, exporter, capture

    @staticmethod
    def _chain(sim, actions):
        """Run ``(time_ns, fn)`` actions in order, each scheduled by the one
        before (or by a filler event) less than one period ahead."""
        actions = sorted(actions, key=lambda a: a[0])

        def step(index):
            actions[index][1]()
            if index + 1 < len(actions):
                hop(actions[index + 1][0], index + 1)

        def hop(at, index):
            if at - sim.now >= 50 * MS:
                sim.schedule(40 * MS, hop, at, index)
            else:
                sim.schedule_at(at, step, index)

        sim.schedule_at(actions[0][0], step, 0)

    def _play(self, runs, fast_path, stop_at=None, stop=True):
        sim = Simulator()
        harness, exporter, capture = self._bench(sim, fast_path)
        _home_sequence(sim, harness)
        actions = []
        for axis, direction, times in runs:
            dir_wire = harness.upstream(f"{axis}_DIR")
            step = harness.upstream(f"{axis}_STEP")
            if fast_path:

                def emit(d=dir_wire, w=step, d_value=direction, ts=times):
                    d.drive(d_value)
                    if len(ts) == 1:
                        w.pulse()
                    else:
                        w.pulse_batch(ts)

                actions.append((int(times[0]), emit))
            else:
                actions.append((int(times[0]), lambda d=dir_wire, v=direction: d.drive(v)))
                actions.extend((int(t), step.pulse) for t in times)
        self._chain(sim, actions)
        end = int(runs[-1][2][-1]) + 300 * MS
        if stop_at is not None:
            sim.run(until_ns=stop_at)
            exporter.stop()
        sim.run(until_ns=end)
        if not stop:
            return exporter
        exporter.stop()
        rows = [(t.index, t.x, t.y, t.z, t.e, t.time_ns) for t in capture.transactions]
        return rows, exporter.transactions_sent, exporter.bus.frames_sent

    @pytest.mark.parametrize("seed", range(5))
    def test_snapshots_match_the_per_event_exporter(self, seed):
        runs = self._runs(seed)
        on_instant = sum(
            int(np.count_nonzero(times % (100 * MS) == 0)) for _axis, _d, times in runs
        )
        assert on_instant > 5  # pulses really land on export instants
        assert any(times[-1] - times[0] > 200 * MS for _axis, _d, times in runs)
        reference = self._play(runs, fast_path=False)
        rebuilt = self._play(runs, fast_path=True)
        assert rebuilt == reference
        assert len(reference[0]) > 50

    def test_stop_mid_period(self):
        runs = self._runs(7)
        stop_at = int(runs[40][2][-1]) + 37 * MS  # between two export instants
        reference = self._play(runs, fast_path=False, stop_at=stop_at)
        rebuilt = self._play(runs, fast_path=True, stop_at=stop_at)
        assert rebuilt == reference
        assert reference[0][-1][-1] < stop_at

    def test_consumed_runs_are_dropped(self):
        # Nothing pulls and nothing stops: each run arriving after an
        # export instant sends that export and drops the runs it spent.
        exporter = self._play(self._runs(3), fast_path=True, stop=False)
        assert exporter.transactions_sent > 50
        assert sum(len(kept) for kept in exporter._runs.values()) < 10

    def test_live_listener_keeps_the_export_event(self):
        sim = Simulator()
        harness, exporter, capture = self._bench(sim, fast_path=True)
        live = []
        exporter.bus.on_frame(lambda t, frame: live.append((sim.now, t)))
        _home_sequence(sim, harness)
        sim.schedule_at(1 * S, harness.upstream("X_STEP").pulse)
        sim.run(until_ns=int(1.35 * S))
        # Delivered at their own instants, not when the capture pulls.
        assert live == [(t, t) for t in (1100 * MS, 1200 * MS, 1300 * MS)]
        assert len(capture) == 3

    def test_listener_joining_mid_stream(self):
        frames = []
        for fast_path in (False, True):
            sim = Simulator()
            harness, exporter, capture = self._bench(sim, fast_path)
            _home_sequence(sim, harness)
            sim.schedule_at(1 * S, harness.upstream("X_STEP").pulse)
            for k in range(1, 13):  # off the export instants (see _chain)
                sim.schedule_at(1 * S + k * 20 * MS + 7, harness.upstream("X_STEP").pulse)
            # The fast exporter still holds back the snapshots of 1.3-1.5 s.
            sim.run(until_ns=int(1.55 * S))
            live = []
            exporter.bus.on_frame(lambda t, frame, sim=sim: live.append((sim.now, t, frame)))
            sim.run(until_ns=int(1.75 * S))
            frames.append((live, [(t.index, t.x, t.time_ns) for t in capture.transactions]))
        assert frames[1] == frames[0]
        live, _ = frames[1]
        assert [(now, t) for now, t, _frame in live] == [(t, t) for t in (1600 * MS, 1700 * MS)]

    def test_append_comes_after_held_back_frames(self):
        rows = []
        for fast_path in (False, True):
            sim = Simulator()
            harness, _exporter, capture = self._bench(sim, fast_path)
            _home_sequence(sim, harness)
            sim.schedule_at(1 * S, harness.upstream("X_STEP").pulse)
            sim.run(until_ns=int(1.35 * S))
            capture.append(Transaction(99, 1, 2, 3, 4))
            sim.run(until_ns=int(1.55 * S))
            rows.append([(t.index, t.x, t.time_ns) for t in capture.transactions])
        assert rows[1] == rows[0]
        assert [index for index, _x, _t in rows[0]] == [1, 2, 3, 99, 100, 101]

    def test_rehoming_mid_stream(self):
        frames = []
        for fast_path in (False, True):
            sim = Simulator()
            harness = SignalHarness(sim)
            detector = HomingDetector(harness)
            tracker = AxisTracker(harness)
            bus = UartBus()
            UartExporter(sim, tracker, detector, bus=bus, fast_path=fast_path)
            capture = PulseCapture(bus)
            _home_sequence(sim, harness)
            step = harness.upstream("X_STEP")
            for k in range(30):  # off the export instants (see _chain)
                sim.schedule_at(1 * S + k * 20 * MS + 7 * (k > 0), step.pulse)
            sim.run(until_ns=int(1.43 * S))
            detector.reset()
            for index, name in enumerate(("X_MIN", "Y_MIN", "Z_MIN")):
                at = int(1.45 * S) + index * 100
                sim.schedule_at(at, harness.upstream(name).drive, 1)
                sim.schedule_at(at + 50, harness.upstream(name).drive, 0)
            sim.run(until_ns=int(1.95 * S))
            frames.append([(t.x, t.time_ns) for t in capture.transactions])
        assert frames[1] == frames[0]
        assert [x for x, _t in frames[0]][3:6] == [-20, -2, -7]  # counts restart at 0
