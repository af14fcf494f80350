"""Benchmark: raw session throughput — the precise path vs the fast path.

Measures cold-cache sessions/sec and events/sec over the smoke grid's unique
sessions, once per execution path, and records both in
``benchmarks/out/session_speed.txt``. The two paths are byte-identical in
verdicts (pinned by ``tests/test_fast_path.py`` and the parity harness), so
the only thing this artifact tracks is speed.

Doubles as the CI non-regression gate::

    python benchmarks/bench_session_speed.py --check

re-measures the fast-path smoke figure and fails (exit 1) if it drops below
:data:`FLOOR_SESSIONS_PER_S` — a deliberately conservative floor (set from a
measured figure, with generous headroom for slow CI runners) that catches
"the fast path silently stopped batching", not ordinary machine-to-machine
variance. Re-record the floor when the measured figure changes on purpose.
"""

import argparse
import sys
import time
from dataclasses import replace

from repro.experiments.batch import execute_spec
from repro.experiments.scenario import compile_scenario, grid_scenarios

# Fast-path smoke-grid floor, in sessions/sec (cold cache, single process).
# Measured ~42.1 sessions/s fast and ~4.0 precise, 7,843 and 321,315
# events (median of three runs, interleaved on the same host with the
# version whose thermistor refresh, second heater tick and UART export
# still took kernel events on the fast path: ~30.2 fast, 19,021 events;
# earlier, on a slower day of the same host, ~11.3 before the STEP wires
# dropped their own pulse-gap statistics and ~10.1 while the deposition
# sampler still took kernel events) on a 2-vCPU Xeon container whose
# speed drifts by up to 2x; the floor sits far below that so only a real
# regression (not runner noise) trips it.
FLOOR_SESSIONS_PER_S = 1.2


def smoke_specs():
    """The smoke grid's unique sessions (golden dedup applied), precise."""
    unique = {}
    for scenario in grid_scenarios("smoke"):
        for spec in compile_scenario(scenario, fast_path=False):
            unique.setdefault(spec.content_key(), spec)
    return list(unique.values())


def measure(specs, fast_path):
    """Run every spec cold; returns (elapsed_s, sessions, events)."""
    events = 0
    t0 = time.perf_counter()
    for spec in specs:
        result = execute_spec(replace(spec, fast_path=fast_path))
        events += result.events_dispatched
    elapsed = time.perf_counter() - t0
    return elapsed, len(specs), events


def render(precise, fast) -> str:
    lines = ["smoke-grid session throughput (cold cache, single process)", ""]
    for label, (elapsed, sessions, events) in (("precise", precise), ("fast", fast)):
        lines.append(
            f"{label:<8} {sessions} sessions in {elapsed:6.2f}s  "
            f"{sessions / elapsed:6.2f} sessions/s  "
            f"{events / elapsed / 1e6:6.2f}M events/s  "
            f"({events} events)"
        )
    p_elapsed, _, _ = precise
    f_elapsed, _, _ = fast
    lines += [
        "",
        f"fast-path speedup: {p_elapsed / f_elapsed:.2f}x",
        f"CI floor (fast, sessions/s): {FLOOR_SESSIONS_PER_S}",
    ]
    return "\n".join(lines)


def run_check() -> int:
    """The CI gate: fast-path smoke throughput must clear the floor."""
    elapsed, sessions, events = measure(smoke_specs(), fast_path=True)
    rate = sessions / elapsed
    print(
        f"fast path: {sessions} smoke sessions in {elapsed:.2f}s "
        f"= {rate:.2f} sessions/s (floor {FLOOR_SESSIONS_PER_S})"
    )
    if rate < FLOOR_SESSIONS_PER_S:
        print("FAIL: fast-path session throughput regressed below the floor")
        return 1
    print("OK")
    return 0


def run_record(out_path: str) -> int:
    specs = smoke_specs()
    precise = measure(specs, fast_path=False)
    fast = measure(specs, fast_path=True)
    text = render(precise, fast)
    print(text)
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    print(f"\nwrote {out_path}")
    return 0


def test_session_speed(out_dir):
    """Pytest entry (``pytest benchmarks/ --benchmark-only`` suite)."""
    from benchmarks.conftest import write_artifact

    specs = smoke_specs()
    precise = measure(specs, fast_path=False)
    fast = measure(specs, fast_path=True)
    write_artifact(out_dir, "session_speed.txt", render(precise, fast))
    p_elapsed, _, _ = precise
    f_elapsed, sessions, _ = fast
    assert sessions / f_elapsed >= FLOOR_SESSIONS_PER_S
    assert f_elapsed < p_elapsed  # the fast path must actually be faster


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="CI gate: re-measure the fast-path smoke figure against the floor",
    )
    parser.add_argument(
        "--out",
        default="benchmarks/out/session_speed.txt",
        help="artifact path for the full record (default: %(default)s)",
    )
    args = parser.parse_args(argv)
    if args.check:
        return run_check()
    return run_record(args.out)


if __name__ == "__main__":
    sys.exit(main())
