"""The benchmark's own tests.

    python3 -m pytest perfbench/selftest.py -q

Run from the repository root. The file name keeps these tests out of the
repository's tier-1 collection: they run every workload end to end.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import spans  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _bench(*args):
    """One benchmark run from the repository root; returns (stdout, result)."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout, json.loads(out.stdout.strip().splitlines()[-1])


def test_benchmark_json_follows_the_contract():
    spec = _benchmark()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert 1 <= spec["run_seconds"] <= 60
    workloads = [w["name"] for w in spec["workloads"]]
    assert tuple(workloads) == run.WORKLOAD_NAMES
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in spec["workloads"])
    names = workloads[:]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME_RE.match(metric["name"]) and UNIT_RE.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert len(names) == len(set(names))
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_layer_metric_has_a_recorded_target():
    with open(os.path.join(HERE, "targets.json")) as handle:
        targets = json.load(handle)
    targeted = [m for layer in targets["layers"] for m in layer["metrics"]]
    assert sorted(targeted) == sorted(m["name"] for m in _benchmark()["per_layer"])
    end_to_end = {m["name"] for m in _benchmark()["end_to_end"]}
    for layer in targets["layers"]:
        assert layer["moves"] is None or layer["moves"] in end_to_end
        assert set(layer["workloads"]) <= set(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smallest_run_prints_every_metric_and_passes_checks(workload, trace):
    stdout, result = _bench(
        "--workload", workload, "--seed", "3", "--seconds", "0",
        "--trace", trace, "--max-scenarios", "2",
    )
    kind = "per_layer" if trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in _benchmark()[kind]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert f"metric {name} = " in stdout
    assert "checks: ok" in stdout
    assert "events_dispatched_total = " in stdout
    if trace == "1":
        assert "tracing overhead:" in stdout


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "cold-mix",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_traced_self_times_sum_to_the_op_time(tmp_path):
    from workloads import ColdMix

    workload = ColdMix(seed=0, work_dir=str(tmp_path), limit=2)
    workload.setup()
    tracer = spans.Tracer().install()
    try:
        tracer.op = "sweep-0"
        workload.sweep(tracer)
    finally:
        tracer.close()
    op = next(s for s in tracer.spans if s.name == "op")
    own = spans.self_times(tracer.spans)
    assert {s.name for s in tracer.spans} >= {
        "runner.build", "runner.run", "cache.put", "batch.summarize"
    }
    assert abs(sum(own.values()) - op.duration) <= 1e-6 * max(1.0, op.duration)
    assert all(t >= -1e-9 for t in own.values())


def test_tracer_close_restores_every_patched_function():
    from repro.detection.protocol import GoldenComparisonDetector
    from repro.experiments import batch, runner, scenario

    before = (batch.execute_spec, runner.PrintSession.run,
              scenario.compile_scenario, batch.SessionCache.get)
    tracer = spans.Tracer().install()
    assert batch.execute_spec is not before[0]
    tracer.close()
    assert (batch.execute_spec, runner.PrintSession.run,
            scenario.compile_scenario, batch.SessionCache.get) == before
    assert "fit" not in vars(GoldenComparisonDetector)


def test_end_to_end_scales_timings_by_the_host_slowdown():
    from hostspeed import REFERENCE_PROBE_S, HostSpeed
    from workloads import Sweep

    sweep = Sweep(
        start=0.0, end=2.0, ops=[1.0, 1.0], digest="", sessions_total=4,
        sessions_simulated=4, sessions_failed=0, print_s=100.0, events=0,
        attacks=1, attacks_detected=1, clean=1, false_positives=0,
        cache_hits=0, cache_misses=0, cache_disk_hits=0, host_stats=[],
        requeues=0, payload_bytes=0,
    )
    setup_speed, speed = HostSpeed(), HostSpeed()
    setup_speed.samples = [4 * REFERENCE_PROBE_S]
    speed.samples = [REFERENCE_PROBE_S, 2 * REFERENCE_PROBE_S, 9 * REFERENCE_PROBE_S]
    metrics, _ = run.end_to_end([sweep], [0.5], setup_speed, speed)
    # Swept on a host running at half the reference speed, set up at a quarter.
    assert metrics["sessions_per_s"] == 4.0
    assert metrics["sim_speed_x"] == 100.0
    assert metrics["op_p50_s"] == 0.5
    assert metrics["setup_s"] == 0.125


def test_tail_needs_ten_samples_beyond():
    assert spans.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert spans.tail([float(i) for i in range(1, 40)])[1] == 100.0
    assert spans.tail([float(i) for i in range(1, 41)]) == (30.0, 75.0, 10)
    assert spans.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0, 10)
