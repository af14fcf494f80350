"""OFFRAMPS board and FPGA fabric tests."""

import numpy as np
import pytest

from repro.core.board import JumperMode, OfframpsBoard, TrojanAction
from repro.core.fpga import FPGA_CLOCK_HZ, FpgaFabric, MAX_PROPAGATION_DELAY_NS
from repro.electronics.harness import SignalHarness
from repro.errors import OfframpsError
from repro.sim.kernel import Simulator


def _board(sim):
    harness = SignalHarness(sim)
    return harness, OfframpsBoard(sim, harness)


class TestFabric:
    def test_clock_constants(self):
        assert FPGA_CLOCK_HZ == 100_000_000
        assert MAX_PROPAGATION_DELAY_NS == pytest.approx(12.923)

    def test_quantize_rounds_up_to_tick(self, sim):
        fabric = FpgaFabric(sim)
        assert fabric.quantize(0) == 0
        assert fabric.quantize(1) == 10
        assert fabric.quantize(10) == 10
        assert fabric.quantize(11) == 20

    def test_forward_applies_delay(self, sim):
        fabric = FpgaFabric(sim)
        fired = []
        fabric.forward(lambda: fired.append(sim.now))
        sim.run()
        assert fired == [13]  # 12.923 ns on the kernel's integer tick

    def test_one_delay_in_whole_ns(self, sim):
        assert FpgaFabric(sim).delay_ns == 13
        assert FpgaFabric(sim, propagation_delay_ns=12.4).delay_ns == 12
        assert FpgaFabric(sim, propagation_delay_ns=0).delay_ns == 1  # never instantaneous

    def test_forward_times_matches_per_pulse_forwards(self, sim):
        times = np.asarray([0, 5, 40, 40, 1000], dtype=np.int64)
        per_pulse = FpgaFabric(sim)
        fired = []
        for t in times.tolist():
            sim.schedule_at(t, lambda: per_pulse.forward(lambda: fired.append(sim.now)))
        sim.run()
        batched = FpgaFabric(Simulator())
        assert batched.forward_times(times).tolist() == fired
        assert batched.forwarded_events == per_pulse.forwarded_events == len(times)

    def test_at_next_tick(self, sim):
        fabric = FpgaFabric(sim)
        fired = []
        sim.schedule_at(15, lambda: fabric.at_next_tick(lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [20]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(OfframpsError):
            FpgaFabric(sim, propagation_delay_ns=-1)


class TestJumpers:
    def test_default_bypass(self, sim):
        harness, board = _board(sim)
        assert board.mode("X_STEP") is JumperMode.BYPASS
        harness.upstream("X_STEP").pulse()
        assert harness.downstream("X_STEP").pulse_count == 1

    def test_fpga_mode_forwards_with_delay(self, sim):
        harness, board = _board(sim)
        board.set_mode("X_STEP", JumperMode.FPGA)
        times = []
        harness.downstream("X_STEP").on_pulse(lambda w, t, width: times.append(t))
        sim.schedule_at(100, harness.upstream("X_STEP").pulse)
        sim.run()
        assert times == [113]

    def test_unknown_signal(self, sim):
        harness, board = _board(sim)
        with pytest.raises(OfframpsError):
            board.set_mode("NOPE", JumperMode.FPGA)

    def test_route_group(self, sim):
        harness, board = _board(sim)
        board.route_through_fpga(["X_STEP", "Y_STEP"])
        assert board.intercepted_signals() == ["X_STEP", "Y_STEP"]

    def test_return_to_bypass(self, sim):
        harness, board = _board(sim)
        board.set_mode("X_DIR", JumperMode.FPGA)
        board.set_mode("X_DIR", JumperMode.BYPASS)
        harness.upstream("X_DIR").drive(1)
        assert harness.downstream("X_DIR").value == 1


class TestTrojanMux:
    def test_drop_action(self, sim):
        harness, board = _board(sim)
        board.set_mode("E_STEP", JumperMode.FPGA)
        board.register_interceptor("E_STEP", lambda p, k, v, t: TrojanAction.drop())
        harness.upstream("E_STEP").pulse()
        sim.run()
        assert harness.downstream("E_STEP").pulse_count == 0
        assert board.events_dropped == 1

    def test_replace_action(self, sim):
        harness, board = _board(sim)
        board.set_mode("D9_FAN", JumperMode.FPGA)
        board.register_interceptor(
            "D9_FAN", lambda p, k, v, t: TrojanAction.replace(v * 0.5)
        )
        harness.upstream("D9_FAN").drive(0.8)
        sim.run()
        assert harness.downstream("D9_FAN").duty == pytest.approx(0.4)
        assert board.events_replaced == 1

    def test_pass_action_forwards(self, sim):
        harness, board = _board(sim)
        board.set_mode("D9_FAN", JumperMode.FPGA)
        board.register_interceptor("D9_FAN", lambda p, k, v, t: TrojanAction.passthrough())
        harness.upstream("D9_FAN").drive(0.8)
        sim.run()
        assert harness.downstream("D9_FAN").duty == pytest.approx(0.8)

    def test_first_non_pass_wins(self, sim):
        harness, board = _board(sim)
        board.set_mode("D9_FAN", JumperMode.FPGA)
        board.register_interceptor("D9_FAN", lambda p, k, v, t: None)
        board.register_interceptor("D9_FAN", lambda p, k, v, t: TrojanAction.replace(0.1))
        board.register_interceptor("D9_FAN", lambda p, k, v, t: TrojanAction.replace(0.9))
        harness.upstream("D9_FAN").drive(0.5)
        sim.run()
        assert harness.downstream("D9_FAN").duty == pytest.approx(0.1)

    def test_unregister(self, sim):
        harness, board = _board(sim)
        board.set_mode("D9_FAN", JumperMode.FPGA)
        handler = lambda p, k, v, t: TrojanAction.drop()  # noqa: E731
        board.register_interceptor("D9_FAN", handler)
        board.unregister_interceptor("D9_FAN", handler)
        harness.upstream("D9_FAN").drive(0.5)
        sim.run()
        assert harness.downstream("D9_FAN").duty == pytest.approx(0.5)


def _mux_run(times, handlers, batched):
    """Run ``times`` through an FPGA-routed E_STEP; report what came out.

    ``handlers`` are (per-pulse, batch) factories, instantiated fresh so
    both replays start from the same handler state.
    """
    sim = Simulator()
    harness, board = _board(sim)
    board.set_mode("E_STEP", JumperMode.FPGA)
    for make in handlers:
        per_pulse, batch = make(board)
        board.register_interceptor("E_STEP", per_pulse, batch)
    seen = []
    harness.downstream("E_STEP").on_pulse(
        lambda w, t, width: seen.append(t),
        batch=lambda w, ts, width: seen.extend(ts.tolist()),
    )
    upstream = harness.upstream("E_STEP")
    if batched:
        assert upstream.batch_ready(len(times))
        upstream.pulse_batch(np.asarray(times, dtype=np.int64), 2000)
    else:
        for t in times:
            sim.schedule_at(t, upstream.pulse)
    sim.run()
    counters = (
        board.events_intercepted,
        board.events_dropped,
        board.events_injected,
        board.fabric.forwarded_events,
    )
    return seen, counters


def _drop_every_other(board):
    state = {"n": 0}

    def per_pulse(path, kind, value, t):
        state["n"] += 1
        return TrojanAction.drop() if state["n"] % 2 else None

    def batch(path, times, width):
        keep = [(state["n"] + i + 1) % 2 == 0 for i in range(len(times))]
        state["n"] += len(times)
        return times[np.asarray(keep, dtype=bool)], times[:0]

    return per_pulse, batch


def _inject_twin(board):
    def per_pulse(path, kind, value, t):
        board.inject_pulse("E_STEP", int(value))
        return None

    def batch(path, times, width):
        return times, times.copy()

    return per_pulse, batch


class TestBatchedMux:
    TIMES = [100, 110, 5000, 5000, 5013, 9000, 12000]

    @pytest.mark.parametrize(
        "handlers",
        [
            pytest.param((), id="no-trojan"),
            pytest.param((_drop_every_other,), id="drop"),
            pytest.param((_inject_twin,), id="inject"),
            pytest.param((_drop_every_other, _inject_twin), id="drop-then-inject"),
            pytest.param((_inject_twin, _drop_every_other), id="inject-then-drop"),
        ],
    )
    def test_batch_matches_per_pulse(self, handlers):
        assert _mux_run(self.TIMES, handlers, True) == _mux_run(self.TIMES, handlers, False)

    def test_handler_without_batch_vetoes(self, sim):
        harness, board = _board(sim)
        board.set_mode("E_STEP", JumperMode.FPGA)
        assert harness.upstream("E_STEP").batch_ready(4)
        board.register_interceptor("E_STEP", lambda p, k, v, t: None)
        assert not harness.upstream("E_STEP").batch_ready(4)

    def test_intercepted_path_reports_fabric_latency(self, sim):
        harness, board = _board(sim)
        path = harness.path("E_STEP")
        assert path.latency_ns == 0
        board.set_mode("E_STEP", JumperMode.FPGA)
        assert path.latency_ns == board.fabric.delay_ns == 13
        board.set_mode("E_STEP", JumperMode.BYPASS)
        assert path.latency_ns == 0


class TestInjection:
    def test_inject_pulse(self, sim):
        harness, board = _board(sim)
        board.inject_pulse("X_STEP")
        assert harness.downstream("X_STEP").pulse_count == 1
        assert harness.upstream("X_STEP").pulse_count == 0  # Arduino never saw it

    def test_inject_level(self, sim):
        harness, board = _board(sim)
        board.inject_level("X_EN", 1)
        assert harness.downstream("X_EN").value == 1

    def test_inject_duty(self, sim):
        harness, board = _board(sim)
        board.inject_level("D10_HOTEND", 1.0)
        assert harness.downstream("D10_HOTEND").duty == 1.0

    def test_inject_pulse_on_level_signal_rejected(self, sim):
        harness, board = _board(sim)
        with pytest.raises(OfframpsError):
            board.inject_pulse("X_DIR")

    def test_inject_level_on_step_signal_rejected(self, sim):
        harness, board = _board(sim)
        with pytest.raises(OfframpsError):
            board.inject_level("X_STEP", 1)

    def test_injection_counted(self, sim):
        harness, board = _board(sim)
        board.inject_pulse("X_STEP")
        board.inject_level("X_EN", 1)
        assert board.events_injected == 2

    def test_downstream_level_readback(self, sim):
        harness, board = _board(sim)
        board.inject_level("D9_FAN", 0.7)
        assert board.downstream_level("D9_FAN") == pytest.approx(0.7)
