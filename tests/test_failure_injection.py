"""Failure injection: broken sensors, stuck switches, hostile conditions.

Exercises the firmware's protective behaviour under faults the paper's
threat model brushes against (counterfeit boards with "inferior counterfeit
components", Section III-A) — the machine must fail safe, not print garbage.
"""

import pytest

from repro.firmware.marlin import PrinterStatus
from repro.gcode.parser import parse_program
from repro.sim.time import S
from tests.conftest import build_bench


def _run(sim, firmware, text, until_s=400):
    firmware.start_print(parse_program(text))
    while not firmware.finished and sim.now < until_s * S:
        sim.run_for(1 * S)


class TestSensorFaults:
    def test_shorted_thermistor_reads_hot_and_kills(self, sim):
        harness, plant, ramps, firmware = build_bench(sim)
        firmware.power_on()
        # Short the divider: 0 V reads as an absurd overtemperature.
        harness.path("T0_HOTEND").install_interceptor(
            "fault", lambda p, kind, value, t: p.downstream.drive(0.0)
        )
        harness.path("T0_HOTEND").downstream.drive(0.0)
        _run(sim, firmware, "M104 S210\nG4 P2000")
        assert firmware.status is PrinterStatus.KILLED
        assert "MAXTEMP" in firmware.kill_reason

    def test_open_thermistor_reads_cold_and_kills(self, sim):
        harness, plant, ramps, firmware = build_bench(sim)
        firmware.power_on()
        # Open circuit: full rail voltage reads as absurdly cold (MINTEMP).
        harness.path("T0_HOTEND").install_interceptor(
            "fault", lambda p, kind, value, t: p.downstream.drive(5.0)
        )
        harness.path("T0_HOTEND").downstream.drive(5.0)
        _run(sim, firmware, "M104 S210\nG4 P2000")
        assert firmware.status is PrinterStatus.KILLED
        assert "MINTEMP" in firmware.kill_reason

    def test_heater_gate_stuck_off_fails_safe(self, sim):
        harness, plant, ramps, firmware = build_bench(sim)
        harness.path("D10_HOTEND").install_interceptor("fault", lambda *args: None)
        _run(sim, firmware, "M109 S210\nG28\nM84")
        assert firmware.status is PrinterStatus.KILLED
        assert "Heating failed" in firmware.kill_reason
        # Fail-safe: no motion ever happened.
        assert plant.axes["X"].total_steps == 0


class TestEndstopFaults:
    def test_broken_endstop_aborts_homing(self, sim):
        harness, plant, ramps, firmware = build_bench(sim)
        # X endstop never closes: force the Arduino-side level to 0 forever.
        harness.path("X_MIN").install_interceptor(
            "fault", lambda p, kind, value, t: p.downstream.drive(0)
        )
        _run(sim, firmware, "G28")
        assert firmware.status is PrinterStatus.KILLED
        assert "Homing failed" in firmware.kill_reason

    def test_homing_failure_does_not_damage_hardware(self, sim):
        harness, plant, ramps, firmware = build_bench(sim)
        harness.path("X_MIN").install_interceptor(
            "fault", lambda p, kind, value, t: p.downstream.drive(0)
        )
        _run(sim, firmware, "G28")
        # The carriage ground against the frame (crash steps), but the
        # firmware stopped commanding motion after max travel.
        assert plant.axes["X"].crash_steps > 0
        assert not plant.damaged

    def test_stuck_closed_endstop_homes_immediately(self, sim):
        harness, plant, ramps, firmware = build_bench(sim)
        harness.path("X_MIN").install_interceptor(
            "fault", lambda p, kind, value, t: p.downstream.drive(1)
        )
        harness.path("X_MIN").downstream.drive(1)
        _run(sim, firmware, "G28 X")
        # Marlin zeroes where the (stuck) switch claims home: no crash, done.
        assert firmware.status is PrinterStatus.DONE
        assert "X" in firmware.state.homed_axes


class TestHostileConditions:
    def test_print_after_kill_is_rejected(self, sim):
        from repro.errors import FirmwareError

        harness, plant, ramps, firmware = build_bench(sim)
        _run(sim, firmware, "M112")
        assert firmware.status is PrinterStatus.KILLED
        with pytest.raises(FirmwareError):
            firmware.start_print(parse_program("G28"))

    def test_kill_mid_heating_releases_heaters(self, sim):
        harness, plant, ramps, firmware = build_bench(sim)
        firmware.start_print(parse_program("M109 S210\nG28"))
        sim.run_for(10 * S)
        firmware.kill("operator abort")
        sim.run_for(100 * S)
        # Physical heater off: the plant cools back toward ambient.
        assert plant.hotend_temp_c() < 80.0

    def test_double_kill_keeps_first_reason(self, sim):
        harness, plant, ramps, firmware = build_bench(sim)
        firmware.power_on()
        firmware.kill("first")
        firmware.kill("second")
        assert firmware.kill_reason == "first"


class TestDistributedQueueFaults:
    """Faults injected into the sweep's shard queue rather than the machine.

    The distributed sweep shares the simulator's fail-safe posture: bytes
    torn in flight must degrade to re-work, never to garbage verdicts. The
    backend-agnostic versions of these properties live in
    ``tests/test_transport_contract.py``; here they are injected *mid
    sweep* against the live coordinator/worker loop.
    """

    def test_torn_pending_shard_mid_sweep_recovers(self, spec_factory, tmp_path):
        """Corrupt a shard after the coordinator enqueues it: the claiming
        worker drops it, the coordinator re-enqueues from its in-memory
        copy, and the merged rows still match local scoring."""
        import threading
        import time as _time

        from repro.experiments.distrib import Coordinator, Worker
        from repro.experiments.transport import WorkDir
        from tests.test_distrib import _assert_rows_match_local, _job

        spec = spec_factory(noise_sigma=0.0, cacheable=False)
        jobs = [_job(0, spec), _job(1, spec, noise_seed=7)]
        work = WorkDir(str(tmp_path / "work"))
        coordinator = Coordinator(
            hosts=2, spawn_local=False, transport=work, timeout_s=240
        )
        outcome = {}

        def drive():
            outcome["result"] = coordinator.run(jobs)

        driver = threading.Thread(target=drive)
        driver.start()
        deadline = _time.monotonic() + 30
        while len(work.pending_ids()) < 2 and _time.monotonic() < deadline:
            _time.sleep(0.01)
        torn = work.pending_ids()[0]
        work.put_pending(torn, b"\x00torn mid-flight")
        Worker(work, "w1", poll_s=0.05).run()
        driver.join(timeout=120)
        _assert_rows_match_local(outcome["result"].rows, jobs)
