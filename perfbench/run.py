"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cold-mix --seed 0 --seconds 25 --trace 0

Run from the repository root: the program is imported from ``src/``.
Each run times the workload's set-up in fresh processes, sweeps it in a
closed loop for ``--seconds``, checks the outputs, and prints one
``metric`` line per metric followed by a JSON object on the last line.
A short fixed piece of work (``hostspeed.probe``) is timed between ops all
through the run; end-to-end timings and rates are scaled by its median to
a reference host speed, so runs on a shared host that speeds up and slows
down still agree. The notes give them as measured too.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the
sweeps untraced, then the same number traced (spans around each layer's
public functions), then one under the profiler, and reports the
per-layer metrics and the tracing overhead. Scratch files live under
``.perfbench_work/`` and are removed at exit, except the span files of
traced runs (``.perfbench_work/traces/``).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 0
SETUP_REPEATS = 7
SETUP_PROBE_SCALE = 5
HOST_PROBE_SCALE = 20
WORK_ROOT = ".perfbench_work"
WORKLOAD_NAMES = ("cold-mix", "warm-mix", "steal-tiny")

SECONDS_PER_SWEEP = (
    "scenario.compile_s", "batch.content_key_s", "batch.summarize_s",
    "runner.build_s", "runner.run_s", "cache.get_s", "cache.put_s",
    "report.csv_s", "report.html_s",
) + tuple(
    f"detection.{name}.{phase}_s"
    for name in ("golden", "realtime", "quality", "sidechannel")
    for phase in ("fit", "score")
)
"""Per-layer self times in seconds per sweep; the span name drops ``_s``."""


def benchmark_metrics() -> Dict[str, Dict[str, str]]:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}``."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def measure_setup(args: argparse.Namespace, speed) -> List[float]:
    """Wall times of fresh processes that only set the workload up, with a
    host-speed probe before and after each."""
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-only",
    ]
    if args.max_scenarios:
        command += ["--max-scenarios", str(args.max_scenarios)]
    samples = []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        started = time.perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - started)
        speed.sample()
    return samples


def closed_loop(workload, seconds: float, tracer=None, count: Optional[int] = None):
    """Sweep back to back, probing host speed between sweeps, for exactly
    ``count`` sweeps or else until ``workload.min_ops`` ops are done and
    another sweep would end past ``seconds``."""
    sweeps = []
    started = time.perf_counter()
    while True:
        for _ in range(workload.probes_per_sweep):
            workload.speed.sample()
        if tracer is not None:
            tracer.op = f"sweep-{len(sweeps)}"
        sweeps.append(workload.sweep(tracer))
        if count is not None:
            if len(sweeps) >= count:
                return sweeps
        elif sum(len(s.ops) for s in sweeps) >= workload.min_ops:
            elapsed = time.perf_counter() - started
            if elapsed + statistics.median(s.end - s.start for s in sweeps) > seconds:
                return sweeps


def op_counts(sweeps) -> Tuple[int, int]:
    """``(attempted, failed)`` ops: a sweep's ops are its sessions on
    cold-mix and the sweep itself elsewhere, so an op fails with a session."""
    return (sum(len(s.ops) for s in sweeps),
            sum(min(len(s.ops), s.sessions_failed) for s in sweeps))


def end_to_end(sweeps, setup_samples, setup_speed,
               speed) -> Tuple[Dict[str, float], List[str]]:
    """The end-to-end metrics, plus notes printed beside them.

    Timings and rates are scaled to the reference host speed by the
    host-speed probes of the set-up and of the sweeps; the notes give them
    as measured too.
    """
    from hostspeed import REFERENCE_PROBE_S
    from spans import tail

    wall = sum(s.wall_s for s in sweeps)
    ops = [op for s in sweeps for op in s.ops]
    tail_value, percentile, beyond = tail(ops)
    last = sweeps[-1]
    fp_rate = last.false_positives / last.clean if last.clean else 0.0
    failed_frac = last.sessions_failed / last.sessions_total
    measured = {
        "setup_s": statistics.median(setup_samples),
        "sessions_per_s": statistics.median(
            s.sessions_total / s.wall_s for s in sweeps
        ),
        "sim_speed_x": statistics.median(s.print_s / s.wall_s for s in sweeps),
        "op_p50_s": statistics.median(ops),
        "op_tail_s": tail_value,
    }
    slowdown = speed.slowdown
    metrics = {
        name: value * slowdown if name.endswith(("_per_s", "_x"))
        else value / slowdown
        for name, value in measured.items()
    }
    metrics["setup_s"] = measured["setup_s"] / setup_speed.slowdown
    metrics.update({
        "peak_rss_mb": peak_rss_mb(),
        "detect_rate": (
            last.attacks_detected / last.attacks if last.attacks else 1.0
        ),
        "true_negative_rate": 1.0 - fp_rate,
        "completed_frac": 1.0 - failed_frac,
    })
    notes = [
        f"host slowdown {slowdown:.4f} in the sweeps, "
        f"{setup_speed.slowdown:.4f} in the set-up (median of "
        f"{len(speed.samples)} and {len(setup_speed.samples)} probes over the "
        f"reference {REFERENCE_PROBE_S} s); as measured: "
        + ", ".join(f"{name} = {value:.4f}" for name, value in measured.items()),
        f"op_tail_s is p{percentile:.1f} of {len(ops)} ops, "
        f"{beyond} samples beyond it",
        f"false_positive_rate = {fp_rate!r} "
        f"({last.false_positives}/{last.clean} clean scenarios)",
        f"failed_frac = {failed_frac!r} "
        f"({last.sessions_failed}/{last.sessions_total} sessions)",
        f"detected {last.attacks_detected}/{last.attacks} attacks",
        f"setup_s samples: {', '.join(f'{t:.4f}' for t in setup_samples)}",
        f"sweeps: {len(sweeps)} in {wall:.3f} s",
    ]
    return metrics, notes


def layer_metrics(workload, untraced, traced, recorded, stats):
    """Per-layer metrics from the traced sweeps' spans and the profiler pass.

    Times and counts are per sweep; ``gcode.slice_s`` is the set-up slice
    of every part the workload prints.
    """
    from spans import TimedApp, profile_metrics, self_time_by_name

    n = len(traced)
    in_ops = [s for s in recorded if s.op and s.op != "setup"]
    own = self_time_by_name(in_ops)
    metrics: Dict[str, float] = {
        name: own.get(name[: -len("_s")], 0.0) / n for name in SECONDS_PER_SWEEP
    }
    metrics["gcode.slice_s"] = sum(
        s.duration for s in recorded if s.name == "gcode.slice"
    )
    runs = [s for s in in_ops if s.name == "runner.run"]
    events = sum(s.count for s in runs)
    metrics["sim.events_dispatched"] = events / n
    metrics["sim.ns_per_event"] = (
        1e9 * sum(s.duration for s in runs) / events if events else 0.0
    )
    for name, span_name in (("cache.bytes_read", "cache.get"),
                            ("cache.bytes_written", "cache.put")):
        metrics[name] = sum(s.count for s in in_ops if s.name == span_name) / n
    for name in ("cache_hits", "cache_misses", "cache_disk_hits"):
        metrics[name.replace("_", ".", 1)] = sum(getattr(s, name) for s in traced) / n

    starts = [t for s in traced for t in s.worker_starts]
    busy_frac, imbalance = [], []
    for swept in traced:
        busy = [h["wall_clock_s"] for h in swept.host_stats]
        if busy:
            busy_frac.append(sum(busy) / (len(busy) * swept.wall_s))
            imbalance.append(max(busy) / statistics.mean(busy))
    metrics.update({
        "distrib.worker_start_s": statistics.median(starts) if starts else 0.0,
        "distrib.busy_frac": statistics.mean(busy_frac) if busy_frac else 0.0,
        "distrib.imbalance": statistics.mean(imbalance) if imbalance else 0.0,
        "distrib.shards": sum(h["shards"] for s in traced for h in s.host_stats) / n,
        "distrib.requeues": sum(s.requeues for s in traced) / n,
        "distrib.payload_bytes": sum(s.payload_bytes for s in traced) / n,
    })
    for name, value in (workload.app or TimedApp(None)).route_metrics().items():
        metrics[name] = value / n if name.endswith(("count", "requests")) else value
    metrics.update(profile_metrics(stats))

    untraced_s = statistics.mean(s.wall_s for s in untraced)
    traced_s = statistics.mean(s.wall_s for s in traced)
    metrics["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    notes = [
        f"tracing overhead: {traced_s - untraced_s:+.4f} s per sweep "
        f"({untraced_s:.4f} s untraced, {traced_s:.4f} s traced, "
        f"{len(untraced)}+{n} sweeps)",
    ]
    return metrics, notes


def traced_pass(workload, untraced, work_dir):
    """Repeat the untraced sweeps with spans on; returns (sweeps, tracer)."""
    from repro.experiments.scenario import get_part
    from spans import Tracer, load_spans

    tracer = Tracer()
    tracer.op = "setup"
    for part in sorted({s.part for s in workload.scenarios}):
        with tracer.span("gcode.slice"):
            get_part(part).build()
    spans_dir = os.path.join(work_dir, "worker-spans")
    os.makedirs(spans_dir)
    tracer.install()
    try:
        with workload.traced_workers(spans_dir):
            traced = closed_loop(workload, 0, tracer, len(untraced))
    finally:
        tracer.close()
    # Worker spans belong to the sweep whose window holds them.
    windows = [(f"sweep-{i}", s.start, s.end) for i, s in enumerate(traced)]
    for path in sorted(glob.glob(os.path.join(spans_dir, "*.jsonl"))):
        for span in load_spans(path):
            span.op = next(
                (op for op, start, end in windows if start <= span.start <= end),
                None,
            )
            tracer.spans.append(span)
    return traced, tracer


def run(args: argparse.Namespace, work_dir: str) -> int:
    from hostspeed import HostSpeed, probe
    from workloads import WORKLOADS

    units = benchmark_metrics()["per_layer" if args.trace else "end_to_end"]
    probe_start = probe(HOST_PROBE_SCALE)
    setup_speed = HostSpeed(SETUP_PROBE_SCALE)
    setup_samples = measure_setup(args, setup_speed)
    workload = WORKLOADS[args.workload](args.seed, work_dir, args.max_scenarios)
    try:
        started = time.perf_counter()
        workload.setup()
        set_up = time.perf_counter()
        workload.prepare()
        lines = [
            f"in-process set-up {set_up - started:.4f} s, "
            f"prepare {time.perf_counter() - set_up:.4f} s",
        ]
        if not args.trace:
            sweeps = closed_loop(workload, args.seconds)
            metrics, notes = end_to_end(
                sweeps, setup_samples, setup_speed, workload.speed
            )
        else:
            untraced = closed_loop(workload, args.seconds / 2)
            traced, tracer = traced_pass(workload, untraced, work_dir)
            stats = workload.profile()
            sweeps = untraced + traced
            metrics, notes = layer_metrics(
                workload, untraced, traced, tracer.spans, stats
            )
            traces = os.path.join(WORK_ROOT, "traces")
            os.makedirs(traces, exist_ok=True)
            trace_path = os.path.join(
                traces, f"{args.workload}-seed{args.seed}-{os.getpid()}.jsonl"
            )
            tracer.dump(trace_path)
            notes.append(f"spans written to {trace_path}")
        problems = workload.check(sweeps)
        attempted, failed = op_counts(sweeps)
        lines += notes
        lines.append(
            f"events_dispatched_total = {workload.reference_events(sweeps)} "
            "(exact, unique sessions of one sweep)"
        )
    finally:
        workload.close()
    lines.append(
        f"host_probe_s start={probe_start:.4f} "
        f"end={probe(HOST_PROBE_SCALE):.4f}"
    )
    lines.append("checks: " + ("ok" if not problems else "FAILED: " + "; ".join(problems)))
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for line in lines:
        print(line)
    for name, unit in units.items():
        print(f"metric {name} = {metrics[name]!r} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-scenarios", type=int, default=None,
                        help="sweep at most this many scenarios (smoke runs)")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    src = os.path.abspath("src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print("perfbench: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    work_dir = os.path.abspath(
        os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    )
    tmp = os.path.join(work_dir, "tmp")
    os.makedirs(tmp)
    # Worker logs and every other temp file stay inside the checkout.
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    try:
        if args.setup_only:
            from workloads import WORKLOADS

            workload = WORKLOADS[args.workload](args.seed, work_dir, args.max_scenarios)
            workload.setup()
            workload.close()
            return 0
        return run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
